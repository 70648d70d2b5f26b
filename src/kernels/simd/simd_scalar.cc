/**
 * @file
 * Scalar (portable C++) kernel variants — the reference
 * implementation of the canonical arithmetic every vector variant
 * reproduces bit-for-bit (see simd_internal.hh). Runs on any host
 * and under SMASH_FORCE_ISA=scalar.
 */

#include "kernels/simd/simd_internal.hh"

namespace smash::simd
{
namespace
{

void
csrSpmvRangeScalar(const fmt::CsrMatrix& a, const std::vector<Value>& x,
                   std::vector<Value>& y, Index row_begin,
                   Index row_end)
{
    detail::checkRowOperands(a, x, y);
    const fmt::CsrIndex* row_ptr = a.rowPtr().data();
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const Value* xp = x.data();
    // Gate on the gathered range (a.cols()), not x.size(): an
    // arena-padded x is a grow-only buffer whose capacity says
    // nothing about how much of it this matrix touches.
    const Index pf_total =
        detail::wantXPrefetch(static_cast<std::size_t>(a.cols()) *
                              sizeof(Value))
            ? static_cast<Index>(a.colInd().size())
            : 0;
    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        const fmt::CsrIndex b = row_ptr[si];
        const Index n = static_cast<Index>(row_ptr[si + 1] - b);
        y[si] += detail::dotSpanScalar(
            cols + b, vals + b, n, xp,
            pf_total == 0 ? Index(0) : pf_total - b);
    }
}

void
ellSpmvRangeScalar(const fmt::EllMatrix& a, const std::vector<Value>& x,
                   std::vector<Value>& y, Index row_begin,
                   Index row_end)
{
    detail::checkRowOperands(a, x, y);
    const Index width = a.width();
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const Value* xp = x.data();
    // No x prefetch: it would have to stop at the row's end, and a
    // row is rarely long enough for a 16-ahead prefetch to pay.
    for (Index i = row_begin; i < row_end; ++i) {
        const auto slot = static_cast<std::size_t>(i * width);
        const Index n = detail::ellRowLength(cols + slot, width);
        y[static_cast<std::size_t>(i)] +=
            detail::dotSpanScalar(cols + slot, vals + slot, n, xp, 0);
    }
}

void
smashSpmvWordsScalar(const core::SmashMatrix& a,
                     const std::vector<Value>& x, std::vector<Value>& y,
                     Index word_begin, Index word_end, Index nza_block)
{
    detail::checkSmashOperands(a, x, y);
    const Index bs = a.blockSize();
    const core::Bitmap& level0 = a.hierarchy().level(0);
    const Value* nza = a.nza().data();
    const Value* xp = x.data();
    const Index bits_per_row = a.paddedCols() / bs;
    if (word_begin >= word_end || bits_per_row == 0)
        return;
    Index block = nza_block;
    for (Index w = word_begin; w < word_end; ++w) {
        const BitWord word = level0.word(w);
        if (word == 0)
            continue;
        const Index base_bit = w * kBitsPerWord;
        const Index row = base_bit / bits_per_row;
        // Fast path: the whole word maps into one matrix row, so the
        // word's blocks reduce in registers and hit y exactly once.
        if ((base_bit + kBitsPerWord - 1) / bits_per_row == row) {
            const Value* x_org =
                xp + static_cast<std::size_t>(
                         (base_bit - row * bits_per_row) * bs);
            const Value* blk =
                nza + static_cast<std::size_t>(block * bs);
            y[static_cast<std::size_t>(row)] +=
                bs == 2 ? detail::pairWordScalar(word, x_org, blk)
                        : detail::genericWordScalar(word, x_org, blk,
                                                    bs);
            block += popcount(word);
        } else {
            block = detail::smashWordSlow(word, base_bit, bits_per_row,
                                          bs, nza, block, xp,
                                          y.data());
        }
    }
}

Index
popcountWordsScalar(const BitWord* words, Index n)
{
    // Bit-clearing loop: beats std::popcount's libcall when the
    // binary is built without -mpopcnt and words are sparse.
    Index total = 0;
    for (Index i = 0; i < n; ++i) {
        BitWord w = words[static_cast<std::size_t>(i)];
        while (w != 0) {
            w = clearLowestSet(w);
            ++total;
        }
    }
    return total;
}

} // namespace

const KernelTable&
scalarKernelTable()
{
    static const KernelTable table = {
        &csrSpmvRangeScalar,   &ellSpmvRangeScalar,
        &smashSpmvWordsScalar, &popcountWordsScalar,
        IsaLevel::kScalar,
    };
    return table;
}

} // namespace smash::simd
