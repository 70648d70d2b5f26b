/**
 * @file
 * A sparse matrix in the SMASH encoding (paper §3.2/§4.1): a bitmap
 * hierarchy describing which fixed-size element blocks are non-zero,
 * plus the Non-Zero Values Array (NZA) holding those blocks
 * contiguously.
 *
 * Linearization: rows are padded to a multiple of the block size
 * (paddedCols) so an NZA block never straddles a row boundary. The
 * k-th set bit of Bitmap-0 corresponds to the k-th block of the NZA
 * and covers padded-linear element indices
 * [bit * blockSize, (bit+1) * blockSize).
 */

#ifndef SMASH_CORE_SMASH_MATRIX_HH
#define SMASH_CORE_SMASH_MATRIX_HH

#include <cstddef>
#include <vector>

#include "core/bitmap_hierarchy.hh"
#include "core/hierarchy_config.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smash::core
{

/** Position of one non-zero block inside the original matrix. */
struct BlockPosition
{
    Index row;      //!< matrix row of every element in the block
    Index colStart; //!< matrix column of the first element
    Index nzaBlock; //!< ordinal of the block inside the NZA
};

/** Sparse matrix held as bitmap hierarchy + NZA. */
class SmashMatrix
{
  public:
    SmashMatrix() = default;

    /** Encode a canonical COO matrix. */
    static SmashMatrix fromCoo(const fmt::CooMatrix& coo,
                               const HierarchyConfig& cfg);

    /** Encode a CSR matrix (the paper's §4.1.3 conversion path). */
    static SmashMatrix fromCsr(const fmt::CsrMatrix& csr,
                               const HierarchyConfig& cfg);

    /**
     * Assemble directly from a Bitmap-0 occupancy pattern and a
     * matching NZA (used by kernels that produce SMASH output, e.g.
     * bitmap-OR sparse addition). The caller guarantees that the
     * k-th set bit corresponds to NZA block k and that no stored
     * block is entirely zero.
     */
    static SmashMatrix fromBlocks(Index rows, Index cols,
                                  const HierarchyConfig& cfg,
                                  Bitmap level0, std::vector<Value> nza);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    /** Columns padded up to a multiple of the block size. */
    Index paddedCols() const { return paddedCols_; }

    /** True non-zero count of the encoded matrix. */
    Index nnz() const { return nnz_; }

    const HierarchyConfig& config() const { return hierarchy_.config(); }
    const BitmapHierarchy& hierarchy() const { return hierarchy_; }

    /** Elements per NZA block. */
    Index blockSize() const { return config().blockSize(); }

    /** Number of blocks stored in the NZA. */
    Index numBlocks() const
    {
        return static_cast<Index>(nza_.size()) / blockSize();
    }

    /** The Non-Zero Values Array (block-contiguous). */
    const std::vector<Value>& nza() const { return nza_; }

    /** Pointer to the first value of NZA block @p k. */
    const Value* blockData(Index k) const;

    /** Matrix position of the block encoded by Bitmap-0 bit @p bit. */
    BlockPosition positionOfBit(Index bit) const;

    /** Decode back to dense (test oracle). */
    fmt::DenseMatrix toDense() const;

    /** Decode back to canonical COO (SMASHtoCSR path of Fig. 20). */
    fmt::CooMatrix toCoo() const;

    /** Decode to CSR. */
    fmt::CsrMatrix toCsr() const;

    /**
     * Total bytes with compact bitmap storage (Fig. 4b): compacted
     * hierarchy + NZA. This is the Fig. 19 numerator for SMASH.
     */
    std::size_t storageBytesCompact() const;

    /**
     * Locality of sparsity (paper §7.2.3): average non-zeros per NZA
     * block over the block size, as a fraction in (0, 1].
     */
    double localityOfSparsity() const;

    /** Cross-structure invariants (bitmap popcount vs NZA size...). */
    bool checkInvariants() const;

  private:
    /**
     * The one two-pass encoder behind fromCoo() and fromCsr():
     * @p each(visit) must call visit(row, col, value) for every
     * entry in row-major order.
     */
    template <typename EachEntry>
    static SmashMatrix encode(Index rows, Index cols, Index nnz,
                              const HierarchyConfig& cfg,
                              EachEntry each);

    Index rows_ = 0;
    Index cols_ = 0;
    Index paddedCols_ = 0;
    Index nnz_ = 0;
    BitmapHierarchy hierarchy_;
    std::vector<Value> nza_;
};

} // namespace smash::core

#endif // SMASH_CORE_SMASH_MATRIX_HH
