#include "formats/ell_matrix.hh"

#include <algorithm>

#include "common/logging.hh"
#include "formats/coo_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smash::fmt
{

EllMatrix
EllMatrix::fromCsr(const CsrMatrix& csr)
{
    const std::vector<Value>& vals = csr.values();
    // Explicit zeros (fromRaw, scaleValues(0)) are not ELL entries:
    // drop them the way the COO route does, then build.
    if (std::find(vals.begin(), vals.end(), Value(0)) != vals.end())
        return fromCsr(CsrMatrix::fromCoo(csr.toCoo()));

    const std::vector<CsrIndex>& row_ptr = csr.rowPtr();
    const std::vector<CsrIndex>& cols = csr.colInd();
    EllMatrix ell;
    ell.rows_ = csr.rows();
    ell.cols_ = csr.cols();
    ell.nnz_ = csr.nnz();
    for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r)
        ell.width_ =
            std::max<Index>(ell.width_, row_ptr[r + 1] - row_ptr[r]);

    // Each slot is written once: a row's entries, then its padding.
    const std::size_t slab =
        static_cast<std::size_t>(ell.rows_) *
        static_cast<std::size_t>(ell.width_);
    ell.colInd_.reserve(slab);
    ell.values_.reserve(slab);
    for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
        const auto b = static_cast<std::size_t>(row_ptr[r]);
        const auto e = static_cast<std::size_t>(row_ptr[r + 1]);
        const auto pad = static_cast<std::size_t>(ell.width_) - (e - b);
        ell.colInd_.insert(ell.colInd_.end(), cols.begin() + b,
                           cols.begin() + e);
        ell.colInd_.insert(ell.colInd_.end(), pad, kEllPad);
        ell.values_.insert(ell.values_.end(), vals.begin() + b,
                           vals.begin() + e);
        ell.values_.insert(ell.values_.end(), pad, Value(0));
    }
    return ell;
}

EllMatrix
EllMatrix::fromCoo(const CooMatrix& coo)
{
    SMASH_CHECK(coo.isCanonical(),
                "ELL conversion requires a canonical COO matrix");
    return fromCsr(CsrMatrix::fromCoo(coo));
}

DenseMatrix
EllMatrix::toDense() const
{
    DenseMatrix dense(rows_, cols_);
    for (Index r = 0; r < rows_; ++r) {
        for (Index k = 0; k < width_; ++k) {
            std::size_t slot = static_cast<std::size_t>(r * width_ + k);
            if (colInd_[slot] == kEllPad)
                break;
            dense.at(r, static_cast<Index>(colInd_[slot])) = values_[slot];
        }
    }
    return dense;
}

std::size_t
EllMatrix::storageBytes() const
{
    return colInd_.size() * sizeof(CsrIndex) +
        values_.size() * sizeof(Value);
}

double
EllMatrix::fillEfficiency() const
{
    if (values_.empty())
        return 1.0;
    return static_cast<double>(nnz_) / static_cast<double>(values_.size());
}

bool
EllMatrix::checkInvariants() const
{
    const std::size_t slab =
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_);
    if (colInd_.size() != slab || values_.size() != slab)
        return false;
    Index count = 0;
    for (Index r = 0; r < rows_; ++r) {
        bool in_padding = false;
        for (Index k = 0; k < width_; ++k) {
            std::size_t slot = static_cast<std::size_t>(r * width_ + k);
            if (colInd_[slot] == kEllPad) {
                in_padding = true;
                if (values_[slot] != Value(0))
                    return false;
            } else {
                // Real entries must precede padding and be in range.
                if (in_padding)
                    return false;
                if (colInd_[slot] < 0 ||
                    static_cast<Index>(colInd_[slot]) >= cols_) {
                    return false;
                }
                ++count;
            }
        }
    }
    // Padding slots count zero values; every stored real entry is a
    // true non-zero because COO drops zeros.
    return count == nnz_;
}

} // namespace smash::fmt
