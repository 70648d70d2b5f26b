/**
 * @file
 * ISA dispatch layer guarantees (kernels/simd/):
 *
 *  - every kernel variant table — scalar, AVX2+BMI2, AVX-512F —
 *    produces *bit-identical* results on every entry point (CSR
 *    SpMV, ELL SpMV, the SMASH word walk, popcountWords), at every
 *    level the host supports,
 *    and ELL SpMV equals CSR SpMV on the same content;
 *  - the same holds through the engine dispatch at 1, 2, and 8
 *    threads with the active level switched via setIsaLevel() (the
 *    in-process equivalent of SMASH_FORCE_ISA — the CI matrix runs
 *    this whole binary under SMASH_FORCE_ISA=scalar to cover the
 *    env route), and parallel CSR equals serial CSR on every shape,
 *    including one whose x operand overflows any L2;
 *  - the warmed dispatch stays allocation-free at the forced scalar
 *    level (the contract test_perf_paths.cc pins for the default
 *    level).
 *
 * The allocation counter duplicates the test_perf_paths.cc pattern:
 * overrides are binary-local, counting only inside marked windows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "common/cpu_features.hh"
#include "common/parallel_exec.hh"
#include "core/hierarchy_config.hh"
#include "core/smash_matrix.hh"
#include "engine/dispatch.hh"
#include "formats/csr_matrix.hh"
#include "formats/ell_matrix.hh"
#include "kernels/simd/simd_kernels.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_gen.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

template <typename Fn>
std::uint64_t
allocationsDuring(Fn&& fn)
{
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
    fn();
    g_counting.store(false, std::memory_order_release);
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace

void*
operator new(std::size_t size)
{
    if (g_counting.load(std::memory_order_acquire))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The deletes stay out of line: inlined into a delete-expression,
// their free() would meet a pointer from operator new, which g++
// reports as -Wmismatched-new-delete.
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace smash
{
namespace
{

/** Restore the active ISA level (tests lower it at will). */
struct IsaGuard
{
    simd::IsaLevel saved = simd::activeIsaLevel();
    ~IsaGuard() { simd::setIsaLevel(saved); }
};

/** The ISA levels this host can actually execute, low to high. */
std::vector<simd::IsaLevel>
supportedLevels()
{
    std::vector<simd::IsaLevel> out{simd::IsaLevel::kScalar};
    const int best = static_cast<int>(simd::detectedIsaLevel());
    if (best >= static_cast<int>(simd::IsaLevel::kAvx2))
        out.push_back(simd::IsaLevel::kAvx2);
    if (best >= static_cast<int>(simd::IsaLevel::kAvx512))
        out.push_back(simd::IsaLevel::kAvx512);
    return out;
}

/** Deterministic non-dyadic operand values: a dyadic x would let
 *  different summation orders agree by luck; these do not. */
std::vector<Value>
pseudoX(Index n, std::uint64_t seed)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    std::uint64_t s = seed;
    for (auto& v : x) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        v = Value(static_cast<double>(s >> 11) /
                      static_cast<double>(std::uint64_t{1} << 53) *
                      2.0 -
                  1.0);
    }
    return x;
}

/** A wide-ish clustered matrix with long and empty rows. */
fmt::CooMatrix
csrTestMatrix()
{
    return wl::genClustered(300, 512, 6000, 6, 17);
}

/** A 256 x 2^22 random matrix, 32 non-zeros per row scattered over
 *  the whole width: x is 32 MiB, past any L2, and every row spans
 *  many 131,072-column bands. */
fmt::CooMatrix
wideMatrix()
{
    return wl::genUniform(256, Index(1) << 22, 8192, 5);
}

/** Narrow matrix: 90 columns means the SMASH Bitmap-0 rows span a
 *  non-multiple of 64 bits, so words straddle rows and both the
 *  fast and slow word paths run. */
fmt::CooMatrix
straddleMatrix()
{
    return wl::genClustered(128, 90, 1800, 4, 23);
}

/**
 * A 40 x 64 matrix whose ELL width is @p width: full-width rows
 * mixed with empty and partial rows (width 0 leaves every row
 * empty). Column 0 holds no entry, so x[0] is never a real operand.
 */
fmt::CsrMatrix
ellWidthMatrix(Index width)
{
    const Index rows = 40;
    fmt::CooMatrix coo(rows, 64);
    const std::vector<Value> v =
        pseudoX(rows * 64, 101 + static_cast<std::uint64_t>(width));
    for (Index r = 0; r < rows; ++r) {
        // Cycle: full, empty, full, one short, single, empty, and
        // 8 (a whole lane group followed by pads).
        const Index lens[7] = {width, 0, width, width - 1, 1, 0, 8};
        const Index len =
            std::min(width, std::max<Index>(0, lens[r % 7]));
        for (Index k = 0; k < len; ++k) {
            const Index c = 1 + (r * 5 + k * 3) % 63;
            coo.add(r, c, v[static_cast<std::size_t>(r * 64 + c)]);
        }
    }
    coo.canonicalize();
    return fmt::CsrMatrix::fromCoo(coo);
}

/** The ELL widths every ELL test covers, plus a 0 x 0 matrix. */
std::vector<fmt::CsrMatrix>
ellEdgeMatrices()
{
    std::vector<fmt::CsrMatrix> out;
    out.push_back(fmt::CsrMatrix::fromCoo(fmt::CooMatrix(0, 0)));
    for (Index w : {Index(0), Index(1), Index(7), Index(8), Index(13),
                    Index(17)})
        out.push_back(ellWidthMatrix(w));
    return out;
}

/** x with a non-finite x[0]: a kernel that reads x for a pad slot
 *  turns its row into NaN or inf. */
std::vector<Value>
poisonedX(Index n, Value x0)
{
    std::vector<Value> x = pseudoX(n, 43);
    if (n > 0)
        x[0] = x0;
    return x;
}

const Value kPoisons[3] = {std::numeric_limits<Value>::infinity(),
                           -std::numeric_limits<Value>::infinity(),
                           std::numeric_limits<Value>::quiet_NaN()};

bool
sameBits(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) ==
                0);
}

bool
allFinite(const std::vector<Value>& v)
{
    for (Value e : v)
        if (!std::isfinite(e))
            return false;
    return true;
}

} // namespace

TEST(CpuFeaturesProbe, LevelOrderingAndClamping)
{
    IsaGuard guard;
    const simd::IsaLevel detected = simd::detectedIsaLevel();
    EXPECT_LE(static_cast<int>(simd::activeIsaLevel()),
              static_cast<int>(detected));
    // The detected level is always selectable; anything above it is
    // rejected without changing the active level.
    EXPECT_TRUE(simd::setIsaLevel(detected));
    if (static_cast<int>(detected) <
        static_cast<int>(simd::IsaLevel::kAvx512)) {
        EXPECT_FALSE(simd::setIsaLevel(simd::IsaLevel::kAvx512));
        EXPECT_EQ(simd::activeIsaLevel(), detected);
    }
    EXPECT_TRUE(simd::setIsaLevel(simd::IsaLevel::kScalar));
    EXPECT_EQ(simd::activeIsaLevel(), simd::IsaLevel::kScalar);
}

TEST(CpuFeaturesProbe, ParseIsaLevelVocabulary)
{
    simd::IsaLevel level;
    EXPECT_TRUE(simd::parseIsaLevel("scalar", level));
    EXPECT_EQ(level, simd::IsaLevel::kScalar);
    EXPECT_TRUE(simd::parseIsaLevel("avx2", level));
    EXPECT_EQ(level, simd::IsaLevel::kAvx2);
    EXPECT_TRUE(simd::parseIsaLevel("avx512", level));
    EXPECT_EQ(level, simd::IsaLevel::kAvx512);
    EXPECT_FALSE(simd::parseIsaLevel("sse9", level));
    EXPECT_FALSE(simd::parseIsaLevel("", level));
}

TEST(KernelTables, ReportTheirLevelAndFollowTheActiveOne)
{
    IsaGuard guard;
    EXPECT_EQ(simd::kernelsFor(simd::IsaLevel::kScalar).level,
              simd::IsaLevel::kScalar);
    // On any host the detected level's table reports that level (on
    // non-x86 builds detection is kScalar and this still holds).
    const simd::IsaLevel detected = simd::detectedIsaLevel();
    EXPECT_EQ(simd::kernelsFor(detected).level, detected);
    // kernels() follows the active level.
    ASSERT_TRUE(simd::setIsaLevel(simd::IsaLevel::kScalar));
    EXPECT_EQ(simd::kernels().level, simd::IsaLevel::kScalar);
    ASSERT_TRUE(simd::setIsaLevel(detected));
    EXPECT_EQ(simd::kernels().level, detected);
}

TEST(BitIdentity, CsrSpmvAcrossLevels)
{
    for (const fmt::CooMatrix& coo : {csrTestMatrix(), straddleMatrix()}) {
        const fmt::CsrMatrix m = fmt::CsrMatrix::fromCoo(coo);
        const std::vector<Value> x = pseudoX(m.cols(), 41);
        std::vector<Value> ref(static_cast<std::size_t>(m.rows()),
                               Value(0.25));
        simd::kernelsFor(simd::IsaLevel::kScalar)
            .csrSpmvRange(m, x, ref, 0, m.rows());
        for (simd::IsaLevel level : supportedLevels()) {
            std::vector<Value> y(static_cast<std::size_t>(m.rows()),
                                 Value(0.25));
            simd::kernelsFor(level).csrSpmvRange(m, x, y, 0, m.rows());
            EXPECT_EQ(y, ref)
                << "CSR SpMV diverged at level "
                << simd::toString(level);
        }
    }
}

TEST(BitIdentity, EllSpmvAcrossLevelsAndEqualsCsr)
{
    for (const fmt::CsrMatrix& csr : ellEdgeMatrices()) {
        const fmt::EllMatrix ell = fmt::EllMatrix::fromCsr(csr);
        for (Value poison : kPoisons) {
            const std::vector<Value> x = poisonedX(ell.cols(), poison);
            std::vector<Value> ref(static_cast<std::size_t>(ell.rows()),
                                   Value(0.25));
            simd::kernelsFor(simd::IsaLevel::kScalar)
                .ellSpmvRange(ell, x, ref, 0, ell.rows());
            EXPECT_TRUE(allFinite(ref))
                << "a pad slot read x[0] = " << poison << " at width "
                << ell.width();
            for (simd::IsaLevel level : supportedLevels()) {
                const simd::KernelTable& kt = simd::kernelsFor(level);
                std::vector<Value> y(
                    static_cast<std::size_t>(ell.rows()), Value(0.25));
                kt.ellSpmvRange(ell, x, y, 0, ell.rows());
                EXPECT_TRUE(sameBits(y, ref))
                    << "ELL SpMV diverged at level "
                    << simd::toString(level) << ", width "
                    << ell.width() << ", x[0] = " << poison;
                std::vector<Value> yc(
                    static_cast<std::size_t>(ell.rows()), Value(0.25));
                kt.csrSpmvRange(csr, x, yc, 0, csr.rows());
                EXPECT_TRUE(sameBits(y, yc))
                    << "ELL and CSR differ at level "
                    << simd::toString(level) << ", width "
                    << ell.width();
            }
        }
    }
}

TEST(BitIdentity, SmashWordWalkAcrossLevelsAndSplits)
{
    // blockSize 2 exercises the paired fast path, 4 the generic
    // one; the 90-column matrix forces words that straddle rows.
    for (Index bs : {Index(2), Index(4)}) {
        for (const fmt::CooMatrix& coo :
             {csrTestMatrix(), straddleMatrix()}) {
            const core::SmashMatrix m = core::SmashMatrix::fromCoo(
                coo, core::HierarchyConfig({bs}));
            const Index words = m.hierarchy().level(0).numWords();
            const std::vector<Value> x = pseudoX(m.paddedCols(), 71);
            std::vector<Value> ref(static_cast<std::size_t>(m.rows()),
                                   Value(0));
            simd::kernelsFor(simd::IsaLevel::kScalar)
                .smashSpmvWords(m, x, ref, 0, words, 0);
            for (simd::IsaLevel level : supportedLevels()) {
                const simd::KernelTable& kt = simd::kernelsFor(level);
                std::vector<Value> y(
                    static_cast<std::size_t>(m.rows()), Value(0));
                kt.smashSpmvWords(m, x, y, 0, words, 0);
                EXPECT_EQ(y, ref) << "SMASH walk diverged, level "
                                  << simd::toString(level) << ", bs "
                                  << bs;
                // Split word range with the rank as NZA base: the
                // same contract the parallel word partition uses.
                const Index mid = words / 2;
                const Index base = kt.popcountWords(
                    m.hierarchy().level(0).words().data(), mid);
                std::vector<Value> ys(
                    static_cast<std::size_t>(m.rows()), Value(0));
                kt.smashSpmvWords(m, x, ys, 0, mid, 0);
                kt.smashSpmvWords(m, x, ys, mid, words, base);
                EXPECT_EQ(ys, ref)
                    << "split SMASH walk diverged, level "
                    << simd::toString(level) << ", bs " << bs;
            }
        }
    }
}

TEST(BitIdentity, PopcountWordsAcrossLevels)
{
    std::vector<BitWord> words(257, 0);
    std::uint64_t s = 12345;
    Index expected = 0;
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (i % 5 == 0)
            continue; // keep zero words in the mix
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        words[i] = s & (s >> 7);
        expected += popcount(words[i]);
    }
    for (simd::IsaLevel level : supportedLevels()) {
        EXPECT_EQ(simd::kernelsFor(level).popcountWords(
                      words.data(), static_cast<Index>(words.size())),
                  expected)
            << "popcount diverged at level " << simd::toString(level);
    }
}

TEST(DispatchBitIdentity, CsrAndSmashAcrossLevelsPerThreadCount)
{
    IsaGuard guard;
    eng::SparseMatrixAny csr(fmt::CsrMatrix::fromCoo(csrTestMatrix()));
    eng::SparseMatrixAny sm(core::SmashMatrix::fromCoo(
        straddleMatrix(), core::HierarchyConfig({2})));
    const std::vector<Value> x512 = pseudoX(512, 7);
    const std::vector<Value> x90 = pseudoX(90, 9);
    // For a fixed thread count the partition and merge order are
    // fixed, so switching the ISA level must not move a single bit.
    for (int threads : {1, 2, 8}) {
        exec::ParallelExec pe(threads);
        std::vector<Value> ref_csr(300, Value(0));
        std::vector<Value> ref_sm(128, Value(0));
        ASSERT_TRUE(simd::setIsaLevel(simd::IsaLevel::kScalar));
        eng::spmv(csr.ref(), x512, ref_csr, pe);
        eng::spmv(sm.ref(), x90, ref_sm, pe);
        for (simd::IsaLevel level : supportedLevels()) {
            ASSERT_TRUE(simd::setIsaLevel(level));
            std::vector<Value> y_csr(300, Value(0));
            std::vector<Value> y_sm(128, Value(0));
            eng::spmv(csr.ref(), x512, y_csr, pe);
            eng::spmv(sm.ref(), x90, y_sm, pe);
            EXPECT_EQ(y_csr, ref_csr)
                << "parallel CSR diverged at " << threads
                << " threads, level " << simd::toString(level);
            EXPECT_EQ(y_sm, ref_sm)
                << "parallel SMASH diverged at " << threads
                << " threads, level " << simd::toString(level);
        }
    }
}

TEST(DispatchBitIdentity, SerialCsrMatchesParallelAtEveryLevel)
{
    IsaGuard guard;
    for (const fmt::CooMatrix& coo : {csrTestMatrix(), wideMatrix()}) {
        eng::SparseMatrixAny m(fmt::CsrMatrix::fromCoo(coo));
        const std::vector<Value> x = pseudoX(m.cols(), 11);
        const auto rows = static_cast<std::size_t>(m.rows());
        for (simd::IsaLevel level : supportedLevels()) {
            ASSERT_TRUE(simd::setIsaLevel(level));
            std::vector<Value> serial(rows, Value(0));
            sim::NativeExec ne;
            eng::spmv(m.ref(), x, serial, ne);
            for (int threads : {1, 2, 8}) {
                exec::ParallelExec pe(threads);
                std::vector<Value> par(rows, Value(0));
                eng::spmv(m.ref(), x, par, pe);
                EXPECT_TRUE(sameBits(par, serial))
                    << "row-partitioned CSR diverged from serial at "
                    << threads << " threads, level "
                    << simd::toString(level) << ", " << m.cols()
                    << " columns";
            }
        }
    }
}

TEST(DispatchBitIdentity, SerialEllMatchesParallelAtEveryLevel)
{
    IsaGuard guard;
    for (const fmt::CsrMatrix& csr : ellEdgeMatrices()) {
        eng::SparseMatrixAny m(fmt::EllMatrix::fromCsr(csr));
        const std::vector<Value> x =
            poisonedX(csr.cols(), kPoisons[2]);
        const auto rows = static_cast<std::size_t>(csr.rows());
        std::vector<Value> ref(rows, Value(0));
        ASSERT_TRUE(simd::setIsaLevel(simd::IsaLevel::kScalar));
        sim::NativeExec ne;
        eng::spmv(m.ref(), x, ref, ne);
        for (simd::IsaLevel level : supportedLevels()) {
            ASSERT_TRUE(simd::setIsaLevel(level));
            std::vector<Value> serial(rows, Value(0));
            eng::spmv(m.ref(), x, serial, ne);
            EXPECT_TRUE(sameBits(serial, ref))
                << "serial ELL diverged at level "
                << simd::toString(level) << ", width "
                << m.as<fmt::EllMatrix>().width();
            for (int threads : {1, 2, 8}) {
                exec::ParallelExec pe(threads);
                std::vector<Value> par(rows, Value(0));
                eng::spmv(m.ref(), x, par, pe);
                EXPECT_TRUE(sameBits(par, ref))
                    << "parallel ELL diverged from serial at "
                    << threads << " threads, level "
                    << simd::toString(level) << ", width "
                    << m.as<fmt::EllMatrix>().width();
            }
        }
    }
}

TEST(AllocationFree, WarmedDispatchAtForcedScalarLevel)
{
    // Lowering the ISA level swaps function pointers, nothing else:
    // the scalar table must honor the same zero-allocation contract.
    IsaGuard guard;
    ASSERT_TRUE(simd::setIsaLevel(simd::IsaLevel::kScalar));
    eng::SparseMatrixAny csr(fmt::CsrMatrix::fromCoo(csrTestMatrix()));
    eng::SparseMatrixAny sm(core::SmashMatrix::fromCoo(
        csrTestMatrix(), core::HierarchyConfig({2})));
    const std::vector<Value> x = pseudoX(512, 31);
    std::vector<Value> y(300, Value(0));
    sim::NativeExec ne;
    exec::ParallelExec pe(2);
    for (int i = 0; i < 3; ++i) {
        eng::spmv(csr.ref(), x, y, ne);
        eng::spmv(csr.ref(), x, y, pe);
        eng::spmv(sm.ref(), x, y, ne);
        eng::spmv(sm.ref(), x, y, pe);
    }
    const std::uint64_t n = allocationsDuring([&] {
        eng::spmv(csr.ref(), x, y, ne);
        eng::spmv(csr.ref(), x, y, pe);
        eng::spmv(sm.ref(), x, y, ne);
        eng::spmv(sm.ref(), x, y, pe);
    });
    EXPECT_EQ(n, 0u) << "warmed dispatch allocated under the forced "
                        "scalar table";
}

} // namespace smash
