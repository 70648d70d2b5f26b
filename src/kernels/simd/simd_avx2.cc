/**
 * @file
 * AVX2 + BMI + POPCNT kernel variants — the software analogue of
 * the paper's Bitmap Management Unit. CSR and ELL row dots gather
 * x with vgatherdpd under two 4-lane accumulators; the SMASH word
 * walk decodes set bits with tzcnt/blsr (BMI) and, for the common
 * blockSize==2 encoding, multiplies two blocks per ymm; the rank
 * pre-scan uses the popcnt instruction. (_pext_u64 lane compaction
 * was prototyped and lost to the tzcnt/blsr decode — see
 * docs/performance.md.)
 *
 * Every function carries a target attribute instead of the TU being
 * compiled with -mavx2, so the binary stays runnable on any x86-64
 * and the dispatch table alone decides what executes. Arithmetic is
 * mul+add (never FMA) in the canonical order of simd_internal.hh:
 * results are bit-identical to the scalar variant. Tail lanes use
 * masked loads/gathers that contribute +0.0 products, exactly like
 * the scalar tail padding; masked lanes never touch memory, so
 * there are no out-of-bounds reads.
 */

#include "kernels/simd/simd_internal.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SMASH_SIMD_X86 1
#include <immintrin.h>
#else
#define SMASH_SIMD_X86 0
#endif

namespace smash::simd
{

#if SMASH_SIMD_X86

#define SMASH_TARGET_AVX2 \
    __attribute__((target("avx2,bmi,bmi2,popcnt")))

namespace
{

/** Sliding-window tail masks: load at (8 - active) for a 64-bit
 *  4-lane mask with the first `active` lanes enabled. */
alignas(32) constexpr std::int64_t kTailMask64[12] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0,
};
/** Same trick for 32-bit index lanes (first `active` of 4). */
alignas(16) constexpr std::int32_t kTailMask32[8] = {
    -1, -1, -1, -1, 0, 0, 0, 0,
};

SMASH_TARGET_AVX2 inline __m256i
tailMask64(Index active) // 0..4 lanes enabled
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        kTailMask64 + (8 - active)));
}

SMASH_TARGET_AVX2 inline __m128i
tailMask32(Index active) // 0..4 lanes enabled
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        kTailMask32 + (4 - active)));
}

/** The canonical reduction of the two 4-lane accumulators (see
 *  simd_internal.hh: this IS the ((s0+s4)+(s2+s6)) +
 *  ((s1+s5)+(s3+s7)) tree). */
SMASH_TARGET_AVX2 inline Value
reduceAcc(__m256d acc0, __m256d acc1)
{
    const __m256d v = _mm256_add_pd(acc0, acc1);
    const __m128d p = _mm_add_pd(_mm256_castpd256_pd128(v),
                                 _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_pd(p, _mm_unpackhi_pd(p, p)));
}

/** Canonical CSR span dot, AVX2: dual gather accumulators, masked
 *  tail group. Mirrors detail::dotSpanScalar bit-for-bit. */
SMASH_TARGET_AVX2 inline Value
dotSpanAvx2(const fmt::CsrIndex* cols, const Value* vals, Index n,
            const Value* x, Index prefetch_limit)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        if (k + static_cast<Index>(detail::kXPrefetchDistance) + 7 <
            prefetch_limit) {
            // Match the scalar variant's coverage: one prefetch per
            // element, a full group ahead of the gathers.
            for (int l = 0; l < 8; ++l)
                detail::prefetchRead(&x[static_cast<std::size_t>(
                    cols[k + detail::kXPrefetchDistance + l])]);
        }
        const __m128i idx0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cols + k));
        const __m128i idx1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cols + k + 4));
        // Full-mask form of the gather: same vgatherdpd, but with a
        // defined destination (the plain intrinsic's undefined dst
        // trips -Wmaybe-uninitialized through the GCC headers).
        const __m256d ones =
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        const __m256d x0 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx0, ones, 8);
        const __m256d x1 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx1, ones, 8);
        const __m256d v0 = _mm256_loadu_pd(vals + k);
        const __m256d v1 = _mm256_loadu_pd(vals + k + 4);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
    }
    const Index rem = n - k;
    if (rem > 0) {
        const Index r0 = rem < 4 ? rem : 4;
        const Index r1 = rem - r0;
        const __m256i m0 = tailMask64(r0);
        const __m256i m1 = tailMask64(r1);
        // Masked index loads keep inactive lanes at 0; the masked
        // gather never dereferences inactive lanes, so the value is
        // irrelevant.
        const __m128i idx0 = _mm_maskload_epi32(
            reinterpret_cast<const int*>(cols + k), tailMask32(r0));
        const __m128i idx1 = _mm_maskload_epi32(
            reinterpret_cast<const int*>(cols + k + 4), tailMask32(r1));
        const __m256d x0 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx0, _mm256_castsi256_pd(m0), 8);
        const __m256d x1 = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), x, idx1, _mm256_castsi256_pd(m1), 8);
        const __m256d v0 = _mm256_maskload_pd(vals + k, m0);
        const __m256d v1 = _mm256_maskload_pd(vals + k + 4, m1);
        // Inactive lanes add +0.0 * +0.0 — the scalar tail padding.
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v0, x0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v1, x1));
    }
    return reduceAcc(acc0, acc1);
}

/** Canonical contiguous dot, AVX2 (generic-blockSize SMASH). */
SMASH_TARGET_AVX2 inline Value
dotContigAvx2(const Value* a, const Value* b, Index n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(a + k),
                                _mm256_loadu_pd(b + k)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_loadu_pd(a + k + 4),
                                _mm256_loadu_pd(b + k + 4)));
    }
    const Index rem = n - k;
    if (rem > 0) {
        const Index r0 = rem < 4 ? rem : 4;
        const Index r1 = rem - r0;
        const __m256i m0 = tailMask64(r0);
        const __m256i m1 = tailMask64(r1);
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_maskload_pd(a + k, m0),
                                _mm256_maskload_pd(b + k, m0)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_maskload_pd(a + k + 4, m1),
                                _mm256_maskload_pd(b + k + 4, m1)));
    }
    return reduceAcc(acc0, acc1);
}

SMASH_TARGET_AVX2 void
csrSpmvRangeAvx2(const fmt::CsrMatrix& a, const std::vector<Value>& x,
                 std::vector<Value>& y, Index row_begin, Index row_end)
{
    detail::checkRowOperands(a, x, y);
    const fmt::CsrIndex* row_ptr = a.rowPtr().data();
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const Value* xp = x.data();
    const Index pf_total =
        detail::wantXPrefetch(static_cast<std::size_t>(a.cols()) *
                              sizeof(Value))
            ? static_cast<Index>(a.colInd().size())
            : 0;
    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        const fmt::CsrIndex b = row_ptr[si];
        const Index n = static_cast<Index>(row_ptr[si + 1] - b);
        y[si] += dotSpanAvx2(cols + b, vals + b, n, xp,
                             pf_total == 0 ? Index(0) : pf_total - b);
    }
}

SMASH_TARGET_AVX2 void
ellSpmvRangeAvx2(const fmt::EllMatrix& a, const std::vector<Value>& x,
                 std::vector<Value>& y, Index row_begin, Index row_end)
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
            dotSpanAvx2(cols + slot, vals + slot, n, xp, 0);
    }
}

/**
 * Canonical blockSize==2 word sum, AVX2: decode set bits two at a
 * time with tzcnt/blsr, multiply two blocks (four products) per
 * ymm — even block in lanes 0..1, odd block in lanes 2..3 — then
 * reduce (s0+s2) + (s1+s3). Mirrors detail::pairWordScalar.
 */
SMASH_TARGET_AVX2 inline Value
pairWordAvx2(BitWord word, const Value* x_org, const Value* blk)
{
    __m256d acc = _mm256_setzero_pd();
    while (word != 0) {
        const auto t0 = static_cast<Index>(_tzcnt_u64(word));
        word = _blsr_u64(word);
        const __m128d xa =
            _mm_loadu_pd(x_org + static_cast<std::size_t>(2 * t0));
        if (word != 0) {
            const auto t1 = static_cast<Index>(_tzcnt_u64(word));
            word = _blsr_u64(word);
            const __m128d xb = _mm_loadu_pd(
                x_org + static_cast<std::size_t>(2 * t1));
            // Consecutive set bits own contiguous NZA payloads: one
            // unmasked 4-wide load covers both blocks.
            const __m256d bv = _mm256_loadu_pd(blk);
            const __m256d xv = _mm256_set_m128d(xb, xa);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(bv, xv));
            blk += 4;
        } else {
            // Odd trailing block: lanes 2..3 add +0.0 (the scalar
            // variant's explicit padding). Masked load also keeps
            // the last NZA block from reading past the array.
            const __m256d bv = _mm256_maskload_pd(blk, tailMask64(2));
            const __m256d xv =
                _mm256_set_m128d(_mm_setzero_pd(), xa);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(bv, xv));
            blk += 2;
        }
    }
    const __m128d p = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                 _mm256_extractf128_pd(acc, 1));
    return _mm_cvtsd_f64(_mm_add_pd(p, _mm_unpackhi_pd(p, p)));
}

SMASH_TARGET_AVX2 void
smashSpmvWordsAvx2(const core::SmashMatrix& a,
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
        if ((base_bit + kBitsPerWord - 1) / bits_per_row == row) {
            const Value* x_org =
                xp + static_cast<std::size_t>(
                         (base_bit - row * bits_per_row) * bs);
            const Value* blk =
                nza + static_cast<std::size_t>(block * bs);
            Value ws;
            if (bs == 2) {
                ws = pairWordAvx2(word, x_org, blk);
            } else {
                ws = 0;
                BitWord rest = word;
                while (rest != 0) {
                    const auto t =
                        static_cast<Index>(_tzcnt_u64(rest));
                    rest = _blsr_u64(rest);
                    ws += dotContigAvx2(
                        blk,
                        x_org + static_cast<std::size_t>(t * bs), bs);
                    blk += bs;
                }
            }
            y[static_cast<std::size_t>(row)] += ws;
            block += static_cast<Index>(_mm_popcnt_u64(word));
        } else {
            // Row-straddling word: the shared scalar per-bit path
            // (identical code in every variant).
            block = detail::smashWordSlow(word, base_bit, bits_per_row,
                                          bs, nza, block, xp,
                                          y.data());
        }
    }
}

SMASH_TARGET_AVX2 Index
popcountWordsAvx2(const BitWord* words, Index n)
{
    std::uint64_t total = 0;
    Index i = 0;
    for (; i + 4 <= n; i += 4) {
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i)]);
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i + 1)]);
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i + 2)]);
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i + 3)]);
    }
    for (; i < n; ++i)
        total += _mm_popcnt_u64(words[static_cast<std::size_t>(i)]);
    return static_cast<Index>(total);
}

} // namespace

const KernelTable&
avx2KernelTable()
{
    static const KernelTable table = {
        &csrSpmvRangeAvx2,   &ellSpmvRangeAvx2,
        &smashSpmvWordsAvx2, &popcountWordsAvx2,
        IsaLevel::kAvx2,
    };
    return table;
}

#else // !SMASH_SIMD_X86

const KernelTable&
avx2KernelTable()
{
    return scalarKernelTable();
}

#endif

} // namespace smash::simd
