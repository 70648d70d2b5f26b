#include "core/smash_matrix.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "formats/convert.hh"

namespace smash::core
{

template <typename EachEntry>
SmashMatrix
SmashMatrix::encode(Index rows, Index cols, Index nnz,
                    const HierarchyConfig& cfg, EachEntry each)
{
    // The paper's §4.1.3 conversion: pass 1 marks occupied blocks
    // in Bitmap-0, pass 2 scatters the values into the NZA, then
    // the upper levels are built bottom-up.
    SmashMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.nnz_ = nnz;
    const Index bs = cfg.blockSize();
    m.paddedCols_ = static_cast<Index>(
        roundUp(static_cast<std::uint64_t>(cols),
                static_cast<std::uint64_t>(bs)));
    const Index blocks_per_row = m.paddedCols_ / bs;

    Bitmap level0(m.rows_ * blocks_per_row);
    each([&](Index r, Index col, Value) {
        level0.set(r * blocks_per_row + col / bs);
    });

    // Entries arrive in row-major order, matching the Bitmap-0 bit
    // order, so block ordinals are just a running rank over set bits.
    const Index n_blocks = level0.countSet();
    m.nza_.assign(static_cast<std::size_t>(n_blocks * bs), Value(0));
    Index cur_bit = -1;
    Index cur_block = -1;
    each([&](Index r, Index col, Value v) {
        const Index bit = r * blocks_per_row + col / bs;
        if (bit != cur_bit) {
            assert(bit > cur_bit); // row-major order ascends
            cur_bit = bit;
            ++cur_block;
        }
        m.nza_[static_cast<std::size_t>(cur_block * bs + col % bs)] = v;
    });
    assert(cur_block + 1 == n_blocks);

    m.hierarchy_ = BitmapHierarchy(cfg, std::move(level0));
    return m;
}

SmashMatrix
SmashMatrix::fromCoo(const fmt::CooMatrix& coo, const HierarchyConfig& cfg)
{
    SMASH_CHECK(coo.isCanonical(),
                "SMASH encoding requires a canonical COO matrix");
    return encode(coo.rows(), coo.cols(), coo.nnz(), cfg,
                  [&](auto&& visit) {
                      for (const fmt::CooEntry& e : coo.entries())
                          visit(e.row, e.col, e.value);
                  });
}

SmashMatrix
SmashMatrix::fromCsr(const fmt::CsrMatrix& csr, const HierarchyConfig& cfg)
{
    const auto& row_ptr = csr.rowPtr();
    const auto& col_ind = csr.colInd();
    const auto& values = csr.values();
    return encode(csr.rows(), csr.cols(), csr.nnz(), cfg,
                  [&](auto&& visit) {
                      for (Index r = 0; r < csr.rows(); ++r) {
                          const auto sr = static_cast<std::size_t>(r);
                          for (fmt::CsrIndex j = row_ptr[sr];
                               j < row_ptr[sr + 1]; ++j) {
                              const auto sj = static_cast<std::size_t>(j);
                              visit(r, Index(col_ind[sj]), values[sj]);
                          }
                      }
                  });
}

SmashMatrix
SmashMatrix::fromBlocks(Index rows, Index cols, const HierarchyConfig& cfg,
                        Bitmap level0, std::vector<Value> nza)
{
    const Index bs = cfg.blockSize();
    SmashMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.paddedCols_ = static_cast<Index>(
        roundUp(static_cast<std::uint64_t>(cols),
                static_cast<std::uint64_t>(bs)));
    SMASH_CHECK(level0.numBits() == rows * (m.paddedCols_ / bs),
                "Bitmap-0 size does not match the padded matrix grid");
    SMASH_CHECK(static_cast<Index>(nza.size()) == level0.countSet() * bs,
                "NZA size does not match Bitmap-0 population");
    Index nnz = 0;
    for (Value v : nza) {
        if (v != Value(0))
            ++nnz;
    }
    m.nnz_ = nnz;
    m.nza_ = std::move(nza);
    m.hierarchy_ = BitmapHierarchy(cfg, std::move(level0));
    return m;
}

const Value*
SmashMatrix::blockData(Index k) const
{
    assert(k >= 0 && k < numBlocks());
    return nza_.data() + static_cast<std::size_t>(k * blockSize());
}

BlockPosition
SmashMatrix::positionOfBit(Index bit) const
{
    assert(bit >= 0 && bit < hierarchy_.level(0).numBits());
    const Index bs = blockSize();
    Index linear = bit * bs;
    BlockPosition pos;
    pos.row = linear / paddedCols_;
    pos.colStart = linear % paddedCols_;
    pos.nzaBlock = hierarchy_.level(0).rankBefore(bit);
    return pos;
}

fmt::DenseMatrix
SmashMatrix::toDense() const
{
    fmt::DenseMatrix dense(rows_, cols_);
    const Bitmap& level0 = hierarchy_.level(0);
    const Index bs = blockSize();
    Index block = 0;
    for (Index bit = level0.findNextSet(0); bit >= 0;
         bit = level0.findNextSet(bit + 1), ++block) {
        Index linear = bit * bs;
        Index row = linear / paddedCols_;
        Index col0 = linear % paddedCols_;
        const Value* data = blockData(block);
        for (Index e = 0; e < bs; ++e) {
            Index col = col0 + e;
            if (col < cols_ && data[e] != Value(0))
                dense.at(row, col) = data[e];
        }
    }
    return dense;
}

fmt::CooMatrix
SmashMatrix::toCoo() const
{
    fmt::CooMatrix coo(rows_, cols_);
    const Bitmap& level0 = hierarchy_.level(0);
    const Index bs = blockSize();
    Index block = 0;
    for (Index bit = level0.findNextSet(0); bit >= 0;
         bit = level0.findNextSet(bit + 1), ++block) {
        Index linear = bit * bs;
        Index row = linear / paddedCols_;
        Index col0 = linear % paddedCols_;
        const Value* data = blockData(block);
        for (Index e = 0; e < bs; ++e) {
            if (col0 + e < cols_ && data[e] != Value(0))
                coo.add(row, col0 + e, data[e]);
        }
    }
    assert(coo.isCanonical());
    return coo;
}

fmt::CsrMatrix
SmashMatrix::toCsr() const
{
    return fmt::CsrMatrix::fromCoo(toCoo());
}

std::size_t
SmashMatrix::storageBytesCompact() const
{
    return hierarchy_.compactStorageBytes() + nza_.size() * sizeof(Value);
}

double
SmashMatrix::localityOfSparsity() const
{
    if (nza_.empty())
        return 1.0;
    return static_cast<double>(nnz_) / static_cast<double>(nza_.size());
}

bool
SmashMatrix::checkInvariants() const
{
    const Bitmap& level0 = hierarchy_.level(0);
    if (level0.countSet() != numBlocks())
        return false;
    if (static_cast<Index>(nza_.size()) != numBlocks() * blockSize())
        return false;
    if (paddedCols_ % blockSize() != 0)
        return false;
    if (!hierarchy_.checkInvariants())
        return false;
    // Every stored block must contain at least one non-zero; zero
    // blocks would waste NZA space and break nnz accounting.
    for (Index k = 0; k < numBlocks(); ++k) {
        const Value* data = blockData(k);
        bool any = false;
        for (Index e = 0; e < blockSize(); ++e) {
            if (data[e] != Value(0)) {
                any = true;
                break;
            }
        }
        if (!any)
            return false;
    }
    return true;
}

} // namespace smash::core
