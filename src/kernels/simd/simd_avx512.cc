/**
 * @file
 * Guarded AVX-512F kernel variants. Only the CSR and ELL gather
 * dots get wider here (one 8-lane zmm accumulator, vgatherdpd over
 * a full 8-index vector): the zmm is reduced 256-bit-halves-first,
 * which reproduces the canonical 8-lane tree exactly (lane l of the
 * zmm is lane sum s[l]; the half-add yields s[l] + s[l+4],
 * identical to AVX2's acc0+acc1). CSR tail groups spill the
 * accumulator and finish with the scalar canonical tail; a partial
 * ELL row's tail is one masked gather (ellRowAvx512). No AVX-512VL
 * needed, no out-of-bounds index loads.
 *
 * The SMASH walk and popcount reuse the AVX2 entries: the
 * blockSize==2 walk is pinned to the 4-lane canonical (an 8-lane
 * grouping would change the addition tree and break bit-identity),
 * and popcount is bound by memory, not lanes.
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

#define SMASH_TARGET_AVX512 \
    __attribute__((target("avx512f,avx2,bmi,bmi2,popcnt")))

namespace
{

/** Canonical CSR span dot, AVX-512F: full groups gather 8 doubles
 *  per iteration; the sub-8 tail spills and finishes scalar. */
SMASH_TARGET_AVX512 inline Value
dotSpanAvx512(const fmt::CsrIndex* cols, const Value* vals, Index n,
              const Value* x, Index prefetch_limit)
{
    __m512d acc = _mm512_setzero_pd();
    Index k = 0;
    for (; k + 8 <= n; k += 8) {
        if (k + static_cast<Index>(detail::kXPrefetchDistance) + 7 <
            prefetch_limit) {
            for (int l = 0; l < 8; ++l)
                detail::prefetchRead(&x[static_cast<std::size_t>(
                    cols[k + detail::kXPrefetchDistance + l])]);
        }
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cols + k));
        // Full-mask gather: defined destination (see the AVX2 TU).
        const __m512d xg = _mm512_mask_i32gather_pd(
            _mm512_setzero_pd(), static_cast<__mmask8>(0xff), idx, x,
            8);
        const __m512d v = _mm512_loadu_pd(vals + k);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(v, xg));
    }
    // Spill the lane sums and run the canonical scalar tail + tree:
    // bit-identical to every other variant by construction.
    alignas(64) Value s[8];
    _mm512_store_pd(s, acc);
    if (k < n) {
        for (int l = 0; l < 8; ++l) {
            const Index kk = k + l;
            s[l] += kk < n
                        ? vals[kk] *
                              x[static_cast<std::size_t>(cols[kk])]
                        : Value(0);
        }
    }
    return detail::reduceLanes8(s);
}

SMASH_TARGET_AVX512 void
csrSpmvRangeAvx512(const fmt::CsrMatrix& a, const std::vector<Value>& x,
                   std::vector<Value>& y, Index row_begin,
                   Index row_end)
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
        y[si] += dotSpanAvx512(cols + b, vals + b, n, xp,
                               pf_total == 0 ? Index(0)
                                             : pf_total - b);
    }
}

/**
 * One ELL row in the canonical 8-lane tree. A full row (last slot
 * real) is a plain span dot. Otherwise the row walks 8-slot groups:
 * a group's real slots gather and add, its kEllPad slots add +0.0
 * products (the canonical tail padding, with x never read), and
 * the first group that is not all real ends the row — real entries
 * precede pads. An all-pad group adds nothing, as a row whose
 * length is a multiple of 8 has no tail group. The masked tail is
 * what keeps ragged rows at template speed or better; the plain
 * dot's scalar tail does not.
 */
SMASH_TARGET_AVX512 inline Value
ellRowAvx512(const fmt::CsrIndex* cols, const Value* vals, Index width,
             const Value* x)
{
    if (width == 0 || cols[width - 1] != fmt::kEllPad)
        return dotSpanAvx512(cols, vals, width, x, 0);
    const __m512i pad = _mm512_set1_epi32(fmt::kEllPad);
    __m512d acc = _mm512_setzero_pd();
    for (Index k = 0; k < width; k += 8) {
        const Index left = width - k;
        const auto live = static_cast<__mmask16>(
            left >= 8 ? 0xffu : (1u << left) - 1);
        const __m512i idx = _mm512_maskz_loadu_epi32(live, cols + k);
        const auto real = static_cast<__mmask8>(
            _mm512_mask_cmpneq_epi32_mask(live, idx, pad));
        if (real == 0)
            break;
        // Zero-masked extract: _mm512_castsi512_si256 trips
        // -Wmaybe-uninitialized through the GCC headers.
        const __m512d xg = _mm512_mask_i32gather_pd(
            _mm512_setzero_pd(), real,
            _mm512_maskz_extracti64x4_epi64(0x0f, idx, 0), x, 8);
        const __m512d v = _mm512_maskz_loadu_pd(real, vals + k);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(v, xg));
        if (real != 0xff)
            break;
    }
    alignas(64) Value s[8];
    _mm512_store_pd(s, acc);
    return detail::reduceLanes8(s);
}

SMASH_TARGET_AVX512 void
ellSpmvRangeAvx512(const fmt::EllMatrix& a, const std::vector<Value>& x,
                   std::vector<Value>& y, Index row_begin,
                   Index row_end)
{
    detail::checkRowOperands(a, x, y);
    const Index width = a.width();
    const fmt::CsrIndex* cols = a.colInd().data();
    const Value* vals = a.values().data();
    const Value* xp = x.data();
    for (Index i = row_begin; i < row_end; ++i) {
        const auto slot = static_cast<std::size_t>(i * width);
        y[static_cast<std::size_t>(i)] +=
            ellRowAvx512(cols + slot, vals + slot, width, xp);
    }
}

} // namespace

const KernelTable&
avx512KernelTable()
{
    const KernelTable& avx2 = avx2KernelTable();
    static const KernelTable table = {
        &csrSpmvRangeAvx512, &ellSpmvRangeAvx512,
        avx2.smashSpmvWords, avx2.popcountWords,
        IsaLevel::kAvx512,
    };
    return table;
}

#else // !SMASH_SIMD_X86

const KernelTable&
avx512KernelTable()
{
    return scalarKernelTable();
}

#endif

} // namespace smash::simd
