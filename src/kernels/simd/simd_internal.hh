/**
 * @file
 * Internals shared by the SIMD variant translation units. Not part
 * of the public surface — include simd_kernels.hh instead.
 *
 * This header pins down the *canonical arithmetic* every variant
 * must reproduce bit-for-bit:
 *
 *  - CSR row/segment dots, ELL row dots and generic SMASH block
 *    dots keep eight lane sums, element k feeding lane k mod 8,
 *    with the final (n mod 8) group padded by +0.0 products; lanes
 *    reduce as
 *    ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)). That is precisely the
 *    result of two 4-lane AVX2 accumulators (or one 8-lane AVX-512
 *    accumulator folded 256-bit-halves-first) reduced
 *    add / extract-high / add / unpack / add. An ELL row is the
 *    span of its slots before the first kEllPad (ellRowLength), so
 *    it reduces exactly like the same row in CSR.
 *  - The blockSize==2 SMASH fast path keeps four lane sums: set-bit
 *    ordinal b contributes its two products to lanes (b%2)*2 and
 *    (b%2)*2+1 (one ymm holds two blocks), an odd trailing block
 *    pads lanes 2..3 with +0.0, and the reduction is
 *    (s0+s2) + (s1+s3). All ISA levels use this 4-lane canonical
 *    for blockSize==2 — the AVX-512 table reuses the AVX2 walk,
 *    since an 8-lane grouping would change the addition tree.
 *  - Words that straddle a row boundary take the shared per-bit
 *    scalar path below (identical code in every variant); the
 *    fast/slow choice is purely geometric, so every variant makes
 *    the same choice per word.
 *
 * Every TU including this header is compiled with -ffp-contract=off
 * (see CMakeLists.txt) so a*b+c never contracts into FMA behind the
 * scalar variant's back under -mavx2/-mfma builds.
 */

#ifndef SMASH_KERNELS_SIMD_SIMD_INTERNAL_HH
#define SMASH_KERNELS_SIMD_SIMD_INTERNAL_HH

#include "common/bitops.hh"
#include "common/logging.hh"
#include "kernels/simd/simd_kernels.hh"

namespace smash::simd
{

/** Per-variant tables (each .cc defines one; non-x86 builds alias
 *  the vector tables to the scalar one). */
const KernelTable& scalarKernelTable();
const KernelTable& avx2KernelTable();
const KernelTable& avx512KernelTable();

namespace detail
{

/**
 * Best-effort read prefetch into a far cache level. The CSR-family
 * gather variants issue it for the x element a fixed distance ahead
 * of the current non-zero: the x access pattern is data-dependent
 * (the paper's pointer chase), so the hardware stride prefetchers
 * cannot cover it, but its *address* is known one col_ind load
 * early. No-op where the builtin is unavailable.
 */
inline void
prefetchRead(const void* p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 1);
#else
    (void)p;
#endif
}

/** How many non-zeros ahead the gather variants prefetch x. */
inline constexpr std::size_t kXPrefetchDistance = 16;

/**
 * Prefetch only pays when the gathered operand cannot sit in the
 * fast cache levels — on a cache-resident x the extra instruction
 * per non-zero is pure overhead. 256 KiB ~ a typical L2.
 */
inline bool
wantXPrefetch(std::size_t operand_bytes)
{
    return operand_bytes > 256 * 1024;
}

/** The canonical 8-lane reduction tree (see file comment). */
inline Value
reduceLanes8(const Value* s)
{
    return ((s[0] + s[4]) + (s[2] + s[6])) +
           ((s[1] + s[5]) + (s[3] + s[7]));
}

/**
 * Canonical CSR span dot: sum of vals[k] * x[cols[k]] over
 * k in [0, n) in the 8-lane scheme. Prefetches x for elements
 * kXPrefetchDistance ahead while that index stays below
 * @p prefetch_limit — the count of valid col entries from @p cols
 * onward (pass 0 to disable).
 */
inline Value
dotSpanScalar(const fmt::CsrIndex* cols, const Value* vals, Index n,
              const Value* x, Index prefetch_limit)
{
    Value s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        for (int l = 0; l < 8; ++l) {
            const Index kk = k + l;
            if (kk + static_cast<Index>(kXPrefetchDistance) <
                prefetch_limit)
                prefetchRead(
                    &x[static_cast<std::size_t>(
                        cols[kk + kXPrefetchDistance])]);
            s[l] += vals[kk] *
                    x[static_cast<std::size_t>(cols[kk])];
        }
    }
    if (k < n) {
        for (int l = 0; l < 8; ++l) {
            const Index kk = k + l;
            s[l] += kk < n
                        ? vals[kk] *
                              x[static_cast<std::size_t>(cols[kk])]
                        : Value(0);
        }
    }
    return reduceLanes8(s);
}

/** Canonical contiguous dot (generic-blockSize SMASH payloads):
 *  sum of a[k] * b[k], k in [0, n), 8-lane scheme. */
inline Value
dotContigScalar(const Value* a, const Value* b, Index n)
{
    Value s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    Index k = 0;
    for (; k + 8 <= n; k += 8)
        for (int l = 0; l < 8; ++l)
            s[l] += a[k + l] * b[k + l];
    if (k < n) {
        for (int l = 0; l < 8; ++l) {
            const Index kk = k + l;
            s[l] += kk < n ? a[kk] * b[kk] : Value(0);
        }
    }
    return reduceLanes8(s);
}

/**
 * Canonical blockSize==2 word sum: @p x_org points at x offset so
 * that set bit t of @p word reads x_org[2t], x_org[2t+1]; @p blk is
 * the first block's payload (consecutive set bits have contiguous
 * payloads). 4-lane scheme (see file comment).
 */
inline Value
pairWordScalar(BitWord word, const Value* x_org, const Value* blk)
{
    Value s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    Index ordinal = 0;
    while (word != 0) {
        const Index t = findFirstSet(word);
        word = clearLowestSet(word);
        const Value* xb = x_org + static_cast<std::size_t>(2 * t);
        if ((ordinal & 1) == 0) {
            s0 += blk[0] * xb[0];
            s1 += blk[1] * xb[1];
        } else {
            s2 += blk[0] * xb[0];
            s3 += blk[1] * xb[1];
        }
        blk += 2;
        ++ordinal;
    }
    if ((ordinal & 1) != 0) {
        s2 += Value(0);
        s3 += Value(0);
    }
    return (s0 + s2) + (s1 + s3);
}

/** Canonical generic-blockSize word sum: left fold of the blocks'
 *  contiguous dots in bit order. */
inline Value
genericWordScalar(BitWord word, const Value* x_org, const Value* blk,
                  Index bs)
{
    Value ws = 0;
    while (word != 0) {
        const Index t = findFirstSet(word);
        word = clearLowestSet(word);
        ws += dotContigScalar(
            blk, x_org + static_cast<std::size_t>(t * bs), bs);
        blk += bs;
    }
    return ws;
}

/**
 * Shared slow path for a Bitmap-0 word whose bits straddle a row
 * boundary: the original per-bit walk (plain sequential block dot,
 * one y read-modify-write per bit). Every variant calls this exact
 * code, so row-spanning words are trivially bit-identical across
 * ISA levels. Returns the NZA block ordinal after the word.
 */
inline Index
smashWordSlow(BitWord word, Index word_base_bit, Index bits_per_row,
              Index bs, const Value* nza, Index block, const Value* x,
              Value* y)
{
    while (word != 0) {
        const Index bit = word_base_bit + findFirstSet(word);
        word = clearLowestSet(word);
        const Index row = bit / bits_per_row;
        const Index col0 = (bit - row * bits_per_row) * bs;
        const Value* blk = nza + static_cast<std::size_t>(block * bs);
        Value acc = 0;
        for (Index k = 0; k < bs; ++k)
            acc += blk[k] * x[static_cast<std::size_t>(col0 + k)];
        y[static_cast<std::size_t>(row)] += acc;
        ++block;
    }
    return block;
}

/** Operand checks shared by the CSR and ELL row entries. */
template <typename M>
inline void
checkRowOperands(const M& a, const std::vector<Value>& x,
                 const std::vector<Value>& y)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(),
                "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(),
                "y too short");
}

/**
 * Real-entry count of one ELL row slab of @p width slots — exactly
 * the CSR row length, so the row's dot runs CSR's canonical tree.
 * Real entries precede the kEllPad slots: a real last slot means a
 * full row (one compare, the uniform-rows case); otherwise the
 * count is a branch-free pass over the slots (a backward scan
 * stopping at the last real entry mispredicts once per ragged row
 * and measured slower).
 */
inline Index
ellRowLength(const fmt::CsrIndex* slab, Index width)
{
    if (width == 0 || slab[width - 1] != fmt::kEllPad)
        return width;
    Index n = 0;
    for (Index k = 0; k < width; ++k)
        n += slab[k] != fmt::kEllPad ? 1 : 0;
    return n;
}

/** Operand checks shared by the SMASH entries. */
inline void
checkSmashOperands(const core::SmashMatrix& a,
                   const std::vector<Value>& x,
                   const std::vector<Value>& y)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.paddedCols(),
                "x must be padded to paddedCols");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(),
                "y too short");
}

} // namespace detail

} // namespace smash::simd

#endif // SMASH_KERNELS_SIMD_SIMD_INTERNAL_HH
