/**
 * @file
 * Compressed Sparse Row (CSR), the paper's baseline format (§2.1).
 *
 * Three arrays: row_ptr (rows+1 entries), col_ind (one column index
 * per non-zero), values. Row i's non-zeros live in the half-open
 * range [row_ptr[i], row_ptr[i+1]).
 */

#ifndef SMASH_FORMATS_CSR_MATRIX_HH
#define SMASH_FORMATS_CSR_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smash::fmt
{

class CooMatrix;
class DenseMatrix;

/** Column-index storage type; 32 bits as in mainstream libraries. */
using CsrIndex = std::int32_t;

/** Compressed Sparse Row matrix. */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Build from a canonical COO matrix. */
    static CsrMatrix fromCoo(const CooMatrix& coo);

    /**
     * Adopt pre-built CSR triples (e.g. from an SpGEMM kernel).
     * Validates the structural invariants; explicit zero values are
     * allowed (numerical cancellation results).
     */
    static CsrMatrix fromRaw(Index rows, Index cols,
                             std::vector<CsrIndex> rowPtr,
                             std::vector<CsrIndex> colInd,
                             std::vector<Value> values);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const { return static_cast<Index>(values_.size()); }

    const std::vector<CsrIndex>& rowPtr() const { return rowPtr_; }
    const std::vector<CsrIndex>& colInd() const { return colInd_; }
    const std::vector<Value>& values() const { return values_; }

    /**
     * Multiply every stored value by @p factor in place. Structure
     * (row_ptr/col_ind) is untouched by construction, so no
     * re-validation is needed; scaling by zero leaves explicit
     * zeros (fromRaw() semantics).
     */
    void scaleValues(Value factor);

    /**
     * The rows [@p rowBegin, @p rowEnd) as their own matrix: rows
     * re-indexed from 0, columns kept (a row band of this matrix
     * computes against the same x).
     */
    CsrMatrix rowSlice(Index rowBegin, Index rowEnd) const;

    /** Number of non-zeros in row @p r. */
    Index rowNnz(Index r) const;

    /** Value at (r, c); zero when the coordinate is not stored. */
    Value at(Index r, Index c) const;

    /** Expand into a dense matrix (test oracle). */
    DenseMatrix toDense() const;

    /** Convert back to a canonical COO matrix. */
    CooMatrix toCoo() const;

    /**
     * Total bytes of row_ptr + col_ind + values — the numerator used
     * by the Fig. 19 storage comparison.
     */
    std::size_t storageBytes() const;

    /** Structural invariants (monotone row_ptr, sorted columns...). */
    bool checkInvariants() const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<CsrIndex> rowPtr_;
    std::vector<CsrIndex> colInd_;
    std::vector<Value> values_;
};

} // namespace smash::fmt

#endif // SMASH_FORMATS_CSR_MATRIX_HH
