/**
 * @file
 * Small helpers shared by the kernel templates.
 */

#ifndef SMASH_KERNELS_UTIL_HH
#define SMASH_KERNELS_UTIL_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/block_cursor.hh"
#include "core/smash_matrix.hh"

namespace smash::kern
{

/**
 * Bills BlockCursor scan work to an execution model under the
 * compact-storage assumption (paper Fig. 4b): each examined bitmap
 * word lives at a stable synthetic address assigned on first touch
 * (consecutive for in-order scans, so whole-matrix traversals
 * stream and re-scans hit in the cache model). CLZ/AND register
 * work is billed as instructions.
 */
class ScanBiller
{
  public:
    /** @param base synthetic address region for the compact stream */
    explicit ScanBiller(Addr base)
        : base_(base)
    {}

    /** Default region for software bitmap streams (away from the
     *  host heap and the BMU's device-stream regions). */
    static constexpr Addr kSoftwareStreamBase = 0x0200'0000'0000ULL;

    /** Address space reserved per hierarchy level. */
    static constexpr Addr kLevelStride = 0x4000'0000ULL;

    /** Charge the touches recorded since the previous call. Under
     *  NativeExec this compiles to nothing. */
    template <typename E>
    void
    charge(core::BlockCursor& cursor, E& e)
    {
        if constexpr (!E::kSimulated) {
            (void)cursor;
            (void)e;
            return;
        }
        for (const core::WordTouch& t : cursor.touches()) {
            auto sl = static_cast<std::size_t>(t.level);
            auto [it, fresh] = slot_[sl].try_emplace(t.word,
                                                     nextSlot_[sl]);
            if (fresh)
                ++nextSlot_[sl];
            e.loadAddr(base_ + static_cast<Addr>(t.level) * kLevelStride +
                       static_cast<Addr>(it->second) * sizeof(BitWord),
                       sizeof(BitWord));
        }
        cursor.drainTouches();
        Counter d_ops = cursor.stats().bitOps - prevOps_;
        prevOps_ = cursor.stats().bitOps;
        e.op(static_cast<int>(d_ops));
    }

  private:
    Addr base_;
    std::array<std::unordered_map<Index, Index>,
               core::HierarchyConfig::kMaxLevels> slot_{};
    std::array<Index, core::HierarchyConfig::kMaxLevels> nextSlot_{};
    Counter prevOps_ = 0;
};

/**
 * Return @p x zero-extended to at least @p padded_len entries.
 * SMASH kernels read x at padded-column offsets, so callers pad the
 * operand once up front.
 */
inline std::vector<Value>
padVector(const std::vector<Value>& x, Index padded_len)
{
    std::vector<Value> out(x);
    if (static_cast<Index>(out.size()) < padded_len)
        out.resize(static_cast<std::size_t>(padded_len), Value(0));
    return out;
}

/**
 * Rank of the first Bitmap-0 bit of each row: rowRank[r] is the NZA
 * block ordinal where row r's blocks begin (rowRank[rows] = total).
 * Precomputed once per kernel invocation; used by the row-ranged
 * SpMM scans to locate NZA payloads without a per-bit rank query.
 */
inline std::vector<Index>
rowBlockRanks(const core::SmashMatrix& m)
{
    const Index bits_per_row = m.paddedCols() / m.blockSize();
    std::vector<Index> rank(static_cast<std::size_t>(m.rows()) + 1, 0);
    const core::Bitmap& level0 = m.hierarchy().level(0);
    Index count = 0;
    Index next_row_start = bits_per_row;
    Index row = 0;
    for (Index bit = level0.findNextSet(0); bit >= 0;
         bit = level0.findNextSet(bit + 1)) {
        while (bit >= next_row_start) {
            rank[static_cast<std::size_t>(++row)] = count;
            next_row_start += bits_per_row;
        }
        ++count;
    }
    while (row < m.rows())
        rank[static_cast<std::size_t>(++row)] = count;
    return rank;
}

} // namespace smash::kern

#endif // SMASH_KERNELS_UTIL_HH
