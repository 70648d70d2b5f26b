/**
 * @file
 * Steady-state hot-path guarantees: plan caching, the
 * zero-allocation property of the warmed SpMV dispatch paths, and
 * the bounded allocations of the structure profile.
 *
 * The allocation counter overrides global operator new/delete for
 * this test binary only and counts allocations inside explicitly
 * marked measurement windows. gtest and the library allocate
 * freely outside the windows; inside one, the warmed serial and
 * parallel SpMV paths must not touch the heap at all — that is the
 * contract the PlanCache + ScratchArena layer exists to provide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/cpu_features.hh"
#include "common/parallel_exec.hh"
#include "engine/autoselect.hh"
#include "engine/dispatch.hh"
#include "formats/csr_matrix.hh"
#include "kernels/util.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_gen.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

/** Allocations observed while fn() ran on this thread. Note the
 *  counter is global: pool workers' allocations (if fn fans out)
 *  are counted too — exactly what the steady-state contract needs. */
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

// Counting overrides. Deliberately outside any namespace; sized
// deallocation variants forward so every delete form is covered.
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

fmt::CooMatrix
testMatrix()
{
    return wl::genClustered(512, 512, 8192, 6, 41);
}

double
checksum(const std::vector<Value>& y)
{
    double s = 0;
    for (Value v : y)
        s += static_cast<double>(v);
    return s;
}

TEST(PlanCache, BuildsOnceAndHitsAfterWarmup)
{
    eng::SparseMatrixAny m(fmt::CsrMatrix::fromCoo(testMatrix()));
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    exec::ParallelExec pe(4);

    EXPECT_EQ(m.planCache().builds(), 0u);
    eng::spmv(m.ref(), x, y, pe);
    const std::uint64_t cold = m.planCache().builds();
    EXPECT_GE(cold, 1u);
    for (int i = 0; i < 5; ++i)
        eng::spmv(m.ref(), x, y, pe);
    EXPECT_EQ(m.planCache().builds(), cold)
        << "warm dispatches must not rebuild partition plans";
    EXPECT_GE(m.planCache().hits(), 5u);
}

TEST(PlanCache, DistinctChunkCountsGetDistinctPlans)
{
    eng::SparseMatrixAny m(fmt::CsrMatrix::fromCoo(testMatrix()));
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    exec::ParallelExec two(2);
    exec::ParallelExec eight(8);
    eng::spmv(m.ref(), x, y, two);
    const std::uint64_t after_two = m.planCache().builds();
    eng::spmv(m.ref(), x, y, eight);
    EXPECT_GT(m.planCache().builds(), after_two)
        << "a different thread count partitions differently";
    eng::spmv(m.ref(), x, y, two);
    eng::spmv(m.ref(), x, y, eight);
    EXPECT_EQ(m.planCache().builds(), after_two + 1);
}

TEST(PlanCache, CopiesDoNotSharePlans)
{
    eng::SparseMatrixAny a(fmt::CsrMatrix::fromCoo(testMatrix()));
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    exec::ParallelExec pe(4);
    eng::spmv(a.ref(), x, y, pe);
    eng::SparseMatrixAny b = a; // copy: fresh, empty cache
    EXPECT_EQ(b.planCache().builds(), 0u);
    EXPECT_EQ(b.planCache().size(), 0u);
}

TEST(AllocationFree, WarmedSerialSpmv)
{
    eng::SparseMatrixAny m(fmt::CsrMatrix::fromCoo(testMatrix()));
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    sim::NativeExec ne;
    eng::spmv(m.ref(), x, y, ne); // warm (nothing to warm serially)
    const std::uint64_t n = allocationsDuring([&] {
        for (int i = 0; i < 16; ++i)
            eng::spmv(m.ref(), x, y, ne);
    });
    EXPECT_EQ(n, 0u) << "warmed serial CSR SpMV must not allocate";
    EXPECT_NE(checksum(y), 0.0);
}

TEST(AllocationFree, WarmedSerialSmashSpmvWithPaddedScratch)
{
    eng::SparseMatrixAny m =
        eng::SparseMatrixAny::fromCoo(testMatrix(), eng::Format::kSmash);
    // Deliberately unpadded x: the pad goes through the thread's
    // ScratchArena, which must reuse its buffer once warmed.
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    sim::NativeExec ne;
    eng::spmv(m.ref(), x, y, ne); // warm the arena pad buffer
    const std::uint64_t n = allocationsDuring([&] {
        for (int i = 0; i < 16; ++i)
            eng::spmv(m.ref(), x, y, ne);
    });
    EXPECT_EQ(n, 0u)
        << "warmed SMASH SpMV (arena-padded x) must not allocate";
}

TEST(AllocationFree, WarmedParallelSpmvCsrAndSmash)
{
    eng::SparseMatrixAny csr(fmt::CsrMatrix::fromCoo(testMatrix()));
    eng::SparseMatrixAny smash =
        eng::SparseMatrixAny::fromCoo(testMatrix(), eng::Format::kSmash);
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    for (int threads : {2, 4}) {
        exec::ParallelExec pe(threads);
        // Warm: plan builds, arena buffers, pool wake paths.
        for (int i = 0; i < 3; ++i) {
            eng::spmv(csr.ref(), x, y, pe);
            eng::spmv(smash.ref(), x, y, pe);
        }
        const std::uint64_t n = allocationsDuring([&] {
            for (int i = 0; i < 8; ++i) {
                eng::spmv(csr.ref(), x, y, pe);
                eng::spmv(smash.ref(), x, y, pe);
            }
        });
        EXPECT_EQ(n, 0u)
            << "warmed parallel SpMV at " << threads
            << " threads must not allocate (plans cached, scatter "
               "accumulators arena-backed, chunk claiming heap-free)";
    }
}

TEST(AllocationFree, WarmedParallelSpmvBatch)
{
    eng::SparseMatrixAny csr(fmt::CsrMatrix::fromCoo(testMatrix()));
    fmt::DenseMatrix x(512, 8);
    for (Index r = 0; r < 8; ++r)
        for (Index j = 0; j < 512; ++j)
            x.at(j, r) = Value(1) + Value((j + r) % 5) * Value(0.25);
    fmt::DenseMatrix y(512, 8);
    exec::ParallelExec pe(4);
    eng::spmvBatch(csr.ref(), x, y, pe); // warm
    const std::uint64_t n = allocationsDuring([&] {
        for (int i = 0; i < 8; ++i)
            eng::spmvBatch(csr.ref(), x, y, pe);
    });
    EXPECT_EQ(n, 0u)
        << "warmed batched SpMV must not allocate";
}

TEST(AllocationFree, StructureProfileIsOnePassWithoutHashTables)
{
    // The §7.2.3 profile runs at every registration and every drift
    // check that opens: its heap use is the diagonal bitmap, not a
    // per-entry table, so it does not grow with nnz.
    for (Index nnz : {Index(8192), Index(131072)}) {
        const fmt::CsrMatrix m = fmt::CsrMatrix::fromCoo(
            wl::genClustered(8192, 8192, nnz, 6, 43));
        eng::StructureStats stats;
        const std::uint64_t n = allocationsDuring(
            [&] { stats = eng::analyzeStructure(m); });
        EXPECT_LE(n, 2u) << nnz << " nnz";
        EXPECT_EQ(stats.nnz, m.nnz());
        EXPECT_GT(stats.numDiagonals, 0);
    }
}

TEST(AllocationFree, ColdCallsDoAllocate)
{
    // Sanity check on the counter itself: a cold parallel dispatch
    // builds a plan, which must show up as allocations.
    eng::SparseMatrixAny m(fmt::CsrMatrix::fromCoo(testMatrix()));
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));
    exec::ParallelExec pe(4);
    const std::uint64_t n = allocationsDuring([&] {
        eng::spmv(m.ref(), x, y, pe);
    });
    EXPECT_GT(n, 0u) << "the counter must observe cold-path builds";
}

TEST(SmashWordWalk, ZeroColumnMatrixIsANoOp)
{
    // Regression: the word walks' amortized row tracking divides
    // by bits_per_row; a legal zero-column matrix has
    // bits_per_row == 0 and must return cleanly (it used to be a
    // no-op, and briefly a SIGFPE). Driven through the kern::
    // template and through the engine's simd:: walks at every ISA
    // level, serial, parallel and batched.
    fmt::CooMatrix coo(4, 0);
    core::SmashMatrix m = core::SmashMatrix::fromCoo(
        coo, core::HierarchyConfig::fromPaperNotation({16, 4, 2}));
    std::vector<Value> x;
    std::vector<Value> y(4, Value(7));
    sim::NativeExec ne;
    kern::spmvSmashSw(m, x, y, ne);
    for (Value v : y)
        EXPECT_EQ(v, Value(7));

    const eng::SparseMatrixAny any(m);
    exec::ParallelExec pe(2);
    const simd::IsaLevel saved = simd::activeIsaLevel();
    for (simd::IsaLevel level :
         {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
          simd::IsaLevel::kAvx512}) {
        if (!simd::setIsaLevel(level))
            continue;
        SCOPED_TRACE(simd::toString(level));
        std::vector<Value> ys(4, Value(7)), yp(4, Value(7));
        eng::spmv(any.ref(), x, ys, ne);
        eng::spmv(any.ref(), x, yp, pe);
        EXPECT_EQ(ys, y);
        EXPECT_EQ(yp, y);
        fmt::DenseMatrix xb(any.ref().xLength(), 3);
        fmt::DenseMatrix yb(4, 3);
        yb.data().assign(12, Value(7));
        eng::spmvBatch(any.ref(), xb, yb, ne);
        for (Value v : yb.data())
            EXPECT_EQ(v, Value(7));
    }
    simd::setIsaLevel(saved);
}

TEST(StickyChunks, ParallelResultsBitMatchSerial)
{
    // The sticky chunk claiming must not change results, whatever
    // worker ends up with which chunk.
    eng::SparseMatrixAny m(fmt::CsrMatrix::fromCoo(testMatrix()));
    std::vector<Value> x(512, Value(1));
    for (Index i = 0; i < 512; ++i)
        x[static_cast<std::size_t>(i)] += Value(i % 7) * Value(0.125);
    std::vector<Value> serial(512, Value(0));
    sim::NativeExec ne;
    eng::spmv(m.ref(), x, serial, ne);
    for (int threads : {1, 2, 8}) {
        exec::ParallelExec pe(
            exec::ThreadPool::Options{threads, true}); // pinned
        for (int rep = 0; rep < 3; ++rep) {
            std::vector<Value> y(512, Value(0));
            eng::spmv(m.ref(), x, y, pe);
            ASSERT_EQ(y, serial)
                << "pinned/sticky run diverged at " << threads
                << " threads, rep " << rep;
        }
    }
}

} // namespace
} // namespace smash
