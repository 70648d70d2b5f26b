/**
 * @file
 * In-place mutation of a canonical CSR master copy — the engine's
 * update path for long-lived (served) matrices.
 *
 * Served matrices drift: embeddings get refreshed, graph edges
 * appear and disappear, rows are republished wholesale. These
 * functions apply such updates to the CSR "master" representation
 * that owns the matrix content, and count the structural changes
 * (coordinates gaining or losing a stored entry) each one made:
 * MutationStats::structural() is the churn the serving layer's
 * drift gate accumulates before it re-profiles the master.
 *
 * Ownership/threading contract: the functions mutate @p m on the
 * calling thread and are not internally synchronized — callers
 * (serve::MatrixRegistry) serialize mutations per matrix. Each call
 * costs one O(nnz + deltas) merge pass; the result is again a valid
 * canonical CSR matrix (sorted columns, no duplicates, no stored
 * exact zeros except via scaleValues(0)).
 */

#ifndef SMASH_ENGINE_MUTATE_HH
#define SMASH_ENGINE_MUTATE_HH

#include <vector>

#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"

namespace smash::eng
{

/** What one mutation did to the stored structure and values. */
struct MutationStats
{
    Index inserted = 0; //!< coordinates that gained a stored entry
    Index removed = 0;  //!< entries that cancelled or were dropped
    Index updated = 0;  //!< existing entries whose value changed

    /** Changes that alter the sparsity structure (not just values;
     *  value-only updates cannot move a format boundary). */
    Index
    structural() const
    {
        return inserted + removed;
    }
};

/**
 * A(r, c) += v for every delta entry (the COO-delta update of the
 * serving layer). New coordinates are inserted; entries whose sum
 * cancels to exactly zero are removed from the structure. @p deltas
 * must be canonical and share the matrix shape.
 */
MutationStats applyUpdates(fmt::CsrMatrix& m,
                           const fmt::CooMatrix& deltas);

/**
 * Replace the full content of every row in @p rows with the entries
 * @p replacement carries for it (a row listed with no replacement
 * entries becomes empty). Every @p replacement entry must name a
 * listed row; @p replacement must be canonical and share the shape.
 */
MutationStats replaceRows(fmt::CsrMatrix& m,
                          const std::vector<Index>& rows,
                          const fmt::CooMatrix& replacement);

/**
 * Multiply every stored value by @p factor. The structure is
 * preserved — scaling by zero leaves explicit zeros rather than
 * ejecting entries (fromRaw() semantics), so it never makes a
 * structural change.
 */
MutationStats scaleValues(fmt::CsrMatrix& m, Value factor);

} // namespace smash::eng

#endif // SMASH_ENGINE_MUTATE_HH
