#include "formats/csr_matrix.hh"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.hh"
#include "formats/coo_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smash::fmt
{

CsrMatrix
CsrMatrix::fromCoo(const CooMatrix& coo)
{
    SMASH_CHECK(coo.isCanonical(),
                "CSR conversion requires a canonical COO matrix");
    SMASH_CHECK(coo.nnz() <= std::numeric_limits<CsrIndex>::max(),
                "nnz ", coo.nnz(), " overflows 32-bit CSR indices");

    CsrMatrix csr;
    csr.rows_ = coo.rows();
    csr.cols_ = coo.cols();
    csr.rowPtr_.assign(static_cast<std::size_t>(coo.rows()) + 1, 0);
    csr.colInd_.reserve(coo.entries().size());
    csr.values_.reserve(coo.entries().size());

    for (const CooEntry& e : coo.entries())
        ++csr.rowPtr_[static_cast<std::size_t>(e.row) + 1];
    for (std::size_t r = 1; r < csr.rowPtr_.size(); ++r)
        csr.rowPtr_[r] += csr.rowPtr_[r - 1];
    for (const CooEntry& e : coo.entries()) {
        csr.colInd_.push_back(static_cast<CsrIndex>(e.col));
        csr.values_.push_back(e.value);
    }
    return csr;
}

CsrMatrix
CsrMatrix::fromRaw(Index rows, Index cols, std::vector<CsrIndex> rowPtr,
                   std::vector<CsrIndex> colInd, std::vector<Value> values)
{
    CsrMatrix csr;
    csr.rows_ = rows;
    csr.cols_ = cols;
    csr.rowPtr_ = std::move(rowPtr);
    csr.colInd_ = std::move(colInd);
    csr.values_ = std::move(values);
    SMASH_CHECK(csr.checkInvariants(),
                "fromRaw: malformed CSR triples for ", rows, "x", cols,
                " matrix with ", csr.values_.size(), " values");
    return csr;
}

void
CsrMatrix::scaleValues(Value factor)
{
    for (Value& v : values_)
        v *= factor;
}

CsrMatrix
CsrMatrix::rowSlice(Index rowBegin, Index rowEnd) const
{
    SMASH_CHECK(0 <= rowBegin && rowBegin <= rowEnd && rowEnd <= rows_,
                "row slice [", rowBegin, ", ", rowEnd, ") outside [0, ",
                rows_, ")");
    const auto rb = static_cast<std::size_t>(rowBegin);
    const auto re = static_cast<std::size_t>(rowEnd);
    const CsrIndex lo = rowPtr_[rb];
    std::vector<CsrIndex> rowPtr(re - rb + 1);
    for (std::size_t r = 0; r < rowPtr.size(); ++r)
        rowPtr[r] = rowPtr_[rb + r] - lo;
    std::vector<CsrIndex> colInd(colInd_.begin() + lo,
                                 colInd_.begin() + rowPtr_[re]);
    std::vector<Value> values(values_.begin() + lo,
                              values_.begin() + rowPtr_[re]);
    return fromRaw(rowEnd - rowBegin, cols_, std::move(rowPtr),
                   std::move(colInd), std::move(values));
}

Index
CsrMatrix::rowNnz(Index r) const
{
    assert(r >= 0 && r < rows_);
    return rowPtr_[static_cast<std::size_t>(r) + 1] -
        rowPtr_[static_cast<std::size_t>(r)];
}

Value
CsrMatrix::at(Index r, Index c) const
{
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    auto begin = colInd_.begin() + rowPtr_[static_cast<std::size_t>(r)];
    auto end = colInd_.begin() + rowPtr_[static_cast<std::size_t>(r) + 1];
    auto it = std::lower_bound(begin, end, static_cast<CsrIndex>(c));
    if (it == end || *it != static_cast<CsrIndex>(c))
        return Value(0);
    return values_[static_cast<std::size_t>(it - colInd_.begin())];
}

DenseMatrix
CsrMatrix::toDense() const
{
    DenseMatrix dense(rows_, cols_);
    for (Index r = 0; r < rows_; ++r) {
        for (CsrIndex j = rowPtr_[static_cast<std::size_t>(r)];
             j < rowPtr_[static_cast<std::size_t>(r) + 1]; ++j) {
            dense.at(r, colInd_[static_cast<std::size_t>(j)]) =
                values_[static_cast<std::size_t>(j)];
        }
    }
    return dense;
}

CooMatrix
CsrMatrix::toCoo() const
{
    CooMatrix coo(rows_, cols_);
    for (Index r = 0; r < rows_; ++r) {
        for (CsrIndex j = rowPtr_[static_cast<std::size_t>(r)];
             j < rowPtr_[static_cast<std::size_t>(r) + 1]; ++j) {
            coo.add(r, colInd_[static_cast<std::size_t>(j)],
                    values_[static_cast<std::size_t>(j)]);
        }
    }
    // Rows are visited in order and columns are sorted within a row,
    // so the result is already canonical.
    assert(coo.isCanonical());
    return coo;
}

std::size_t
CsrMatrix::storageBytes() const
{
    return rowPtr_.size() * sizeof(CsrIndex) +
        colInd_.size() * sizeof(CsrIndex) +
        values_.size() * sizeof(Value);
}

bool
CsrMatrix::checkInvariants() const
{
    if (rowPtr_.size() != static_cast<std::size_t>(rows_) + 1)
        return false;
    if (rowPtr_.front() != 0)
        return false;
    if (rowPtr_.back() != static_cast<CsrIndex>(values_.size()))
        return false;
    if (colInd_.size() != values_.size())
        return false;
    for (std::size_t r = 0; r + 1 < rowPtr_.size(); ++r) {
        if (rowPtr_[r] > rowPtr_[r + 1])
            return false;
        for (CsrIndex j = rowPtr_[r] + 1; j < rowPtr_[r + 1]; ++j) {
            std::size_t sj = static_cast<std::size_t>(j);
            if (colInd_[sj - 1] >= colInd_[sj])
                return false;
        }
    }
    for (CsrIndex c : colInd_) {
        if (c < 0 || c >= static_cast<CsrIndex>(cols_))
            return false;
    }
    return true;
}

} // namespace smash::fmt
