/**
 * @file
 * SIMD kernel layer: runtime-dispatched variants of the engine's
 * hot native loops — the CSR gather SpMV row loop, the ELL row-slab
 * SpMV, the SMASH Bitmap-0 word walk (the software analogue of the
 * paper's BMU), and the word-rank popcount used by the SMASH
 * partition pre-scan.
 *
 * One binary carries scalar, AVX2+BMI2, and (guarded) AVX-512F
 * implementations of every entry; kernels() returns the table for
 * the active IsaLevel (common/cpu_features.hh). The variants are
 * *bit-identical* by construction: every implementation computes
 * the same canonical reduction tree — eight lane sums filled in
 * element order (lane = element index mod 8, missing tail lanes
 * padded with +0.0 products) reduced as
 * ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), which is exactly what the
 * vector variants' register layout produces — and the SIMD
 * translation units are compiled with -ffp-contract=off so the
 * scalar variant cannot be silently contracted into FMA under
 * -mavx2 builds. SMASH_FORCE_ISA / setIsaLevel() therefore never
 * changes results, only speed; tests/test_simd.cc enforces this.
 * CSR and ELL rows run the same span dot over the same entries in
 * the same order, so native CSR and native ELL answers on the same
 * content are bit-identical too.
 *
 * These entries are native-only (no execution-model billing): the
 * engine's simulated (SimExec) paths keep the cost-accurate kernels
 * in kernels/spmv.hh and kernels/spmv_structured.hh. None of the
 * entries allocates — the steady-state zero-allocation contract of
 * the dispatch layer extends to every variant.
 */

#ifndef SMASH_KERNELS_SIMD_SIMD_KERNELS_HH
#define SMASH_KERNELS_SIMD_SIMD_KERNELS_HH

#include <vector>

#include "common/cpu_features.hh"
#include "common/types.hh"
#include "core/smash_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/ell_matrix.hh"

namespace smash::simd
{

/**
 * Function-pointer table of one ISA level. All entries of any
 * table produce bit-identical results; only throughput differs.
 */
struct KernelTable
{
    /** y := y + A x over CSR rows [row_begin, row_end). x must hold
     *  at least a.cols() entries, y at least a.rows(). */
    void (*csrSpmvRange)(const fmt::CsrMatrix& a,
                         const std::vector<Value>& x,
                         std::vector<Value>& y, Index row_begin,
                         Index row_end);

    /** y := y + A x over ELL rows [row_begin, row_end). Each row
     *  sums its real entries (those before its first kEllPad slot)
     *  with the canonical tree csrSpmvRange uses, so the answer
     *  equals native CSR's on the same content bit for bit. x must
     *  hold at least a.cols() entries, y at least a.rows(). */
    void (*ellSpmvRange)(const fmt::EllMatrix& a,
                         const std::vector<Value>& x,
                         std::vector<Value>& y, Index row_begin,
                         Index row_end);

    /** The §4.4 SMASH word walk over Bitmap-0 words
     *  [word_begin, word_end); nza_block is the Bitmap-0 rank before
     *  word_begin. x must be padded to a.paddedCols(). */
    void (*smashSpmvWords)(const core::SmashMatrix& a,
                           const std::vector<Value>& x,
                           std::vector<Value>& y, Index word_begin,
                           Index word_end, Index nza_block);

    /** Total set bits in words[0, n) — the SMASH partition rank
     *  pre-scan. */
    Index (*popcountWords)(const BitWord* words, Index n);

    /** The level this table implements. */
    IsaLevel level;
};

/** The table of the active IsaLevel (re-read on every call, so
 *  setIsaLevel() takes effect immediately). */
const KernelTable& kernels();

/** The table of exactly @p level (callers must ensure the host
 *  supports it; kernelsFor(activeIsaLevel()) always does). */
const KernelTable& kernelsFor(IsaLevel level);

} // namespace smash::simd

#endif // SMASH_KERNELS_SIMD_SIMD_KERNELS_HH
