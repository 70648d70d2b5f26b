/**
 * @file
 * ELLPACK (ELL) sparse format: every row is padded to the width of
 * the longest row, giving a rectangular rows x width slab of column
 * indices and values with no per-row pointers. Regular layout, but
 * one pathological row inflates the whole matrix — another point on
 * the structure-specialization spectrum the paper contrasts SMASH
 * against (§2.3).
 */

#ifndef SMASH_FORMATS_ELL_MATRIX_HH
#define SMASH_FORMATS_ELL_MATRIX_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"
#include "formats/csr_matrix.hh"

namespace smash::fmt
{

class CooMatrix;
class DenseMatrix;

/** Sentinel column index marking a padding slot. */
inline constexpr CsrIndex kEllPad = -1;

/** ELLPACK sparse matrix (row-major slab). */
class EllMatrix
{
  public:
    EllMatrix() = default;

    /**
     * Build from CSR in one pass over row_ptr: the width is the
     * longest row, and each row copies its entries into its slab
     * ahead of the padding. Explicit zeros in @p csr are dropped
     * (through the COO route), so the result always equals
     * fromCoo(csr.toCoo()).
     */
    static EllMatrix fromCsr(const CsrMatrix& csr);

    /** Build from a canonical COO matrix (via fromCsr). */
    static EllMatrix fromCoo(const CooMatrix& coo);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    /** True non-zero count of the encoded matrix. */
    Index nnz() const { return nnz_; }

    /** Entries stored per row (the maximum row degree). */
    Index width() const { return width_; }

    /**
     * Column indices, rows x width row-major; kEllPad marks padding.
     * Real entries of a row precede its padding slots.
     */
    const std::vector<CsrIndex>& colInd() const { return colInd_; }

    /** Values, rows x width row-major; padding slots hold zero. */
    const std::vector<Value>& values() const { return values_; }

    /** Expand into a dense matrix (test oracle). */
    DenseMatrix toDense() const;

    /** Bytes of the index slab + value slab. */
    std::size_t storageBytes() const;

    /** Fraction of slab slots holding true non-zeros. */
    double fillEfficiency() const;

    /** Structural invariants (padding placement, slab sizing). */
    bool checkInvariants() const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    Index nnz_ = 0;
    Index width_ = 0;
    std::vector<CsrIndex> colInd_;
    std::vector<Value> values_;
};

} // namespace smash::fmt

#endif // SMASH_FORMATS_ELL_MATRIX_HH
