/**
 * @file
 * Tests for the execution engine: format-agnostic dispatch against
 * the dense oracle, the capability registry, format auto-selection,
 * the thread pool, and parallel-vs-serial agreement
 * of the multi-threaded SpMV drivers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>

#include "common/parallel_exec.hh"
#include "common/rng.hh"
#include "engine/autoselect.hh"
#include "engine/dispatch.hh"
#include "engine/operator.hh"
#include "formats/convert.hh"
#include "kernels/reference.hh"
#include "sim/machine.hh"
#include "solvers/iterative.hh"
#include "workloads/matrix_gen.hh"

namespace smash
{
namespace
{

const eng::Format kAllFormats[] = {
    eng::Format::kCoo,  eng::Format::kCsr,   eng::Format::kCsc,
    eng::Format::kBcsr, eng::Format::kEll,   eng::Format::kDia,
    eng::Format::kDense, eng::Format::kSmash,
};

std::vector<Value>
rampVector(Index n)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value(i % 7) * Value(0.25);
    return x;
}

/** Oracle y = A x over the dense expansion of @p coo. */
std::vector<Value>
oracleSpmv(const fmt::CooMatrix& coo, const std::vector<Value>& x)
{
    std::vector<Value> y(static_cast<std::size_t>(coo.rows()), Value(0));
    kern::denseSpmv(coo.toDense(), x, y);
    return y;
}

/**
 * An asymmetric matrix: leading empty rows, one fully dense row,
 * a scattered tail — the shapes that break naive partitioning.
 */
fmt::CooMatrix
asymmetricMatrix(Index rows, Index cols)
{
    fmt::CooMatrix coo(rows, cols);
    for (Index c = 0; c < cols; ++c) // one dense row
        coo.add(rows / 3, c, Value(1) + Value(c % 5));
    Rng rng(99);
    for (Index k = 0; k < rows * 2; ++k) { // scattered tail
        Index r = rows / 2 + static_cast<Index>(
            rng.nextU64() % static_cast<std::uint64_t>(rows - rows / 2));
        Index c = static_cast<Index>(
            rng.nextU64() % static_cast<std::uint64_t>(cols));
        coo.add(r, c, Value(0.5) + Value((r + c) % 3));
    }
    coo.canonicalize();
    return coo;
}

TEST(EngineDispatch, EveryFormatMatchesDenseOracle)
{
    fmt::CooMatrix coo = wl::genClustered(61, 53, 600, 5, 7);
    std::vector<Value> x = rampVector(coo.cols());
    std::vector<Value> ref = oracleSpmv(coo, x);
    sim::NativeExec e;

    for (eng::Format f : kAllFormats) {
        eng::SparseMatrixAny m = eng::SparseMatrixAny::fromCoo(coo, f);
        EXPECT_EQ(m.format(), f);
        EXPECT_EQ(m.rows(), coo.rows());
        EXPECT_EQ(m.cols(), coo.cols());
        std::vector<Value> y(static_cast<std::size_t>(coo.rows()),
                             Value(0));
        eng::spmv(m, x, y, e);
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_NEAR(y[i], ref[i], 1e-9)
                << "format " << eng::toString(f) << " row " << i;
    }
}

TEST(EngineDispatch, NativeEllEqualsNativeCsrBitForBit)
{
    // Random values: a different summation order would show in the
    // bits. ELL and CSR rows run the same canonical row sum.
    const fmt::CooMatrix coo = wl::genUniform(211, 173, 2400, 41);
    const eng::SparseMatrixAny csr =
        eng::SparseMatrixAny::fromCoo(coo, eng::Format::kCsr);
    const eng::SparseMatrixAny ell =
        eng::SparseMatrixAny::fromCoo(coo, eng::Format::kEll);
    std::vector<Value> x(static_cast<std::size_t>(coo.cols()));
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Value(1) / Value(i + 3);
    const auto rows = static_cast<std::size_t>(coo.rows());
    const auto same = [](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
        return std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(Value)) == 0;
    };

    sim::NativeExec ne;
    std::vector<Value> y_csr(rows, Value(0)), y_ell(rows, Value(0));
    eng::spmv(csr, x, y_csr, ne);
    eng::spmv(ell, x, y_ell, ne);
    EXPECT_TRUE(same(y_ell, y_csr)) << "serial";
    for (int threads : {2, 4}) {
        exec::ParallelExec pe(threads);
        std::vector<Value> p_csr(rows, Value(0)), p_ell(rows, Value(0));
        eng::spmv(csr, x, p_csr, pe);
        eng::spmv(ell, x, p_ell, pe);
        EXPECT_TRUE(same(p_ell, p_csr)) << threads << " threads";
        EXPECT_TRUE(same(p_ell, y_ell)) << threads << " threads";
    }
}

TEST(EngineDispatch, AlgoVariantsMatchOracle)
{
    fmt::CooMatrix coo = wl::genClustered(48, 48, 300, 4, 3);
    std::vector<Value> x = rampVector(coo.cols());
    std::vector<Value> ref = oracleSpmv(coo, x);
    sim::NativeExec e;

    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    for (eng::SpmvAlgo algo :
         {eng::SpmvAlgo::kPlain, eng::SpmvAlgo::kUnrolled,
          eng::SpmvAlgo::kIdeal}) {
        std::vector<Value> y(ref.size(), Value(0));
        eng::spmv(csr, x, y, e, {.algo = algo});
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_NEAR(y[i], ref[i], 1e-9);
    }

    eng::SparseMatrixAny sm =
        eng::SparseMatrixAny::fromCoo(coo, eng::Format::kSmash);
    isa::Bmu bmu;
    std::vector<Value> y(ref.size(), Value(0));
    eng::spmv(sm, x, y, e, {.bmu = &bmu}); // kAuto resolves to the BMU
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-9);
}

TEST(EngineDispatch, SimulatedDispatchBillsTheMachine)
{
    fmt::CooMatrix coo = wl::genClustered(40, 40, 220, 4, 5);
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    std::vector<Value> x = rampVector(coo.cols());
    std::vector<Value> ref = oracleSpmv(coo, x);

    sim::Machine machine;
    sim::SimExec e(machine);
    std::vector<Value> y(ref.size(), Value(0));
    eng::spmv(csr, x, y, e);
    EXPECT_GT(machine.core().instructions(), 0u);
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-9);
}

TEST(EngineDispatch, SpmmMatchesDenseOracle)
{
    fmt::CooMatrix a_coo = wl::genClustered(40, 36, 260, 4, 11);
    fmt::CooMatrix b_coo = wl::genClustered(36, 24, 180, 4, 12);

    fmt::DenseMatrix ref(a_coo.rows(), b_coo.cols());
    kern::denseSpmm(a_coo.toDense(), b_coo.toDense(), ref);
    sim::NativeExec e;

    { // CSR x CSC
        fmt::DenseMatrix c(a_coo.rows(), b_coo.cols());
        eng::spmm(fmt::CsrMatrix::fromCoo(a_coo),
                  fmt::CscMatrix::fromCoo(b_coo), c, e);
        EXPECT_TRUE(c.approxEquals(ref, 1e-9));
    }
    { // dense x dense
        fmt::DenseMatrix c(a_coo.rows(), b_coo.cols());
        eng::spmm(a_coo.toDense(), b_coo.toDense(), c, e);
        EXPECT_TRUE(c.approxEquals(ref, 1e-9));
    }
    { // SMASH x SMASH(B^T), software scan and BMU
        fmt::CooMatrix bt_coo = fmt::transpose(
            fmt::CsrMatrix::fromCoo(b_coo)).toCoo();
        eng::SparseMatrixAny a =
            eng::SparseMatrixAny::fromCoo(a_coo, eng::Format::kSmash);
        eng::SparseMatrixAny bt =
            eng::SparseMatrixAny::fromCoo(bt_coo, eng::Format::kSmash);
        fmt::DenseMatrix c_sw(a_coo.rows(), b_coo.cols());
        eng::spmm(a, bt, c_sw, e);
        EXPECT_TRUE(c_sw.approxEquals(ref, 1e-9));

        isa::Bmu bmu;
        fmt::DenseMatrix c_hw(a_coo.rows(), b_coo.cols());
        eng::spmm(a, bt, c_hw, e, {.bmu = &bmu});
        EXPECT_TRUE(c_hw.approxEquals(ref, 1e-9));
    }
}

TEST(EngineDispatch, SpgemmMatchesDenseOracle)
{
    fmt::CooMatrix a_coo = wl::genClustered(40, 36, 260, 4, 13);
    fmt::CooMatrix b_coo = wl::genClustered(36, 24, 180, 4, 14);
    fmt::CsrMatrix b = fmt::CsrMatrix::fromCoo(b_coo);
    fmt::DenseMatrix ref(a_coo.rows(), b_coo.cols());
    kern::denseSpmm(a_coo.toDense(), b_coo.toDense(), ref);
    sim::NativeExec e;

    for (eng::Format f :
         {eng::Format::kCsr, eng::Format::kCsc, eng::Format::kSmash}) {
        eng::SparseMatrixAny a = eng::SparseMatrixAny::fromCoo(a_coo, f);
        fmt::CsrMatrix c = eng::spgemm(a, b, e);
        EXPECT_TRUE(c.toCoo().toDense().approxEquals(ref, 1e-9))
            << "format " << eng::toString(f);
    }
    isa::Bmu bmu;
    eng::SparseMatrixAny a =
        eng::SparseMatrixAny::fromCoo(a_coo, eng::Format::kSmash);
    fmt::CsrMatrix c = eng::spgemm(a, b, e, {.bmu = &bmu});
    EXPECT_TRUE(c.toCoo().toDense().approxEquals(ref, 1e-9));
    // COO has no SpGEMM route: the registry gates it.
    EXPECT_THROW(eng::spgemm(a_coo, b, e), FatalError);
}

TEST(EngineDispatch, SpaddMatchesDenseOracle)
{
    fmt::CooMatrix a_coo = wl::genClustered(32, 32, 150, 4, 21);
    fmt::CooMatrix b_coo = wl::genClustered(32, 32, 150, 4, 22);
    fmt::DenseMatrix ref(32, 32);
    kern::denseSpadd(a_coo.toDense(), b_coo.toDense(), ref);
    sim::NativeExec e;
    std::vector<Value> x = rampVector(32);
    std::vector<Value> y_ref(32, Value(0));
    kern::denseSpmv(ref, x, y_ref);

    for (eng::Format f :
         {eng::Format::kCsr, eng::Format::kSmash, eng::Format::kDense}) {
        eng::SparseMatrixAny a = eng::SparseMatrixAny::fromCoo(a_coo, f);
        eng::SparseMatrixAny b = eng::SparseMatrixAny::fromCoo(b_coo, f);
        eng::SparseMatrixAny c = eng::spadd(a, b, e);
        std::vector<Value> y(32, Value(0));
        eng::spmv(c, x, y, e);
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_NEAR(y[i], y_ref[i], 1e-9)
                << "format " << eng::toString(f);
    }
}

TEST(EngineRegistry, CapabilitiesGateDispatch)
{
    EXPECT_TRUE(eng::capabilities(eng::Format::kCsr).spmm);
    EXPECT_FALSE(eng::capabilities(eng::Format::kCoo).spmm);
    EXPECT_TRUE(eng::capabilities(eng::Format::kSmash).spadd);
    for (eng::Format f : kAllFormats) {
        EXPECT_TRUE(eng::capabilities(f).spmv);
        EXPECT_TRUE(eng::capabilities(f).parallelSpmv);
        EXPECT_STREQ(eng::capabilities(f).name, eng::toString(f));
    }

    fmt::CooMatrix coo = wl::genUniform(8, 8, 16, 1);
    sim::NativeExec e;
    fmt::DenseMatrix c(8, 8);
    EXPECT_THROW(eng::spmm(coo, coo, c, e), FatalError);
    EXPECT_THROW(eng::spadd(coo, coo, e), FatalError);
}

TEST(EngineRegistry, AlgoValidation)
{
    fmt::CooMatrix coo = wl::genUniform(8, 8, 16, 1);
    eng::SparseMatrixAny sm =
        eng::SparseMatrixAny::fromCoo(coo, eng::Format::kSmash);
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    std::vector<Value> x(8, Value(1));
    std::vector<Value> y(8, Value(0));
    sim::NativeExec e;
    // Ideal is CSR-only; the BMU path needs a Bmu and SMASH.
    EXPECT_THROW(eng::spmv(sm, x, y, e, {.algo = eng::SpmvAlgo::kIdeal}),
                 FatalError);
    EXPECT_THROW(eng::spmv(csr, x, y, e, {.algo = eng::SpmvAlgo::kHw}),
                 FatalError);
    EXPECT_THROW(eng::spmv(sm, x, y, e, {.algo = eng::SpmvAlgo::kHw}),
                 FatalError); // no bmu supplied
}

TEST(EngineAutoselect, PicksTheStructurallyRightFormat)
{
    // Banded SPD system: few full diagonals -> DIA.
    EXPECT_EQ(eng::chooseFormat(wl::genPoisson2d(24, 24)),
              eng::Format::kDia);
    // High locality of sparsity -> SMASH (paper §7.2.3).
    EXPECT_EQ(eng::chooseFormat(
                  wl::genWithLocality(512, 512, 8000, 8, 0.9, 5)),
              eng::Format::kSmash);
    // Power-law rows, scattered columns -> CSR.
    EXPECT_EQ(eng::chooseFormat(
                  wl::genPowerLaw(512, 512, 6000, 1.2, 6)),
              eng::Format::kCsr);
    // Near-dense -> dense.
    EXPECT_EQ(eng::chooseFormat(wl::genUniform(24, 24, 320, 7)),
              eng::Format::kDense);
    // Constant row degree, scattered columns -> ELL.
    fmt::CooMatrix even(256, 256);
    Rng rng(8);
    for (Index r = 0; r < 256; ++r)
        for (Index k = 0; k < 6; ++k)
            even.add(r,
                     static_cast<Index>(rng.nextU64() % 256),
                     Value(1));
    even.canonicalize();
    EXPECT_EQ(eng::chooseFormat(even), eng::Format::kEll);
}

TEST(EngineAutoselect, EncodeAutoRunsThroughDispatch)
{
    fmt::CooMatrix coo = wl::genWithLocality(128, 128, 2000, 8, 0.85, 3);
    eng::SparseMatrixAny m = eng::encodeAuto(coo);
    EXPECT_EQ(m.format(), eng::Format::kSmash);
    std::vector<Value> x = rampVector(coo.cols());
    std::vector<Value> ref = oracleSpmv(coo, x);
    std::vector<Value> y(ref.size(), Value(0));
    sim::NativeExec e;
    eng::spmv(m, x, y, e);
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-9);
}

TEST(ThreadPool, ParallelForCoversTheRangeOnce)
{
    exec::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, 1000, 1, [&](Index b, Index e) {
        for (Index i = b; i < e; ++i)
            hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, StealsSkewedWork)
{
    exec::ThreadPool pool(4);
    std::atomic<long> sum{0};
    // Chunk 0 is enormously more expensive: stealing must let the
    // other workers drain the rest meanwhile; completion proves no
    // deadlock and the sum proves full coverage.
    pool.parallelFor(0, 64, 1, [&](Index b, Index e) {
        for (Index i = b; i < e; ++i) {
            long local = 0;
            const long spin = i == 0 ? 200000 : 10;
            for (long k = 0; k < spin; ++k)
                local += k % 7;
            sum.fetch_add(i + (local - local));
        }
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPool, PropagatesExceptions)
{
    exec::ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(0, 8, 1, [&](Index b, Index /*e*/) {
            if (b >= 0)
                SMASH_FATAL("boom");
        }),
        FatalError);
}

TEST(ThreadPool, PostedTasksRunInSubmissionOrder)
{
    exec::ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable cv;
    int parked = 0;
    bool released[2] = {false, false};
    std::vector<int> order;

    // Park both workers on blockers, so every task posted next waits
    // in the queue until a blocker returns.
    for (int b = 0; b < 2; ++b)
        pool.post([&, b] {
            std::unique_lock<std::mutex> lock(mutex);
            ++parked;
            cv.notify_all();
            cv.wait(lock, [&] { return released[b]; });
        });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return parked == 2; });
    }
    for (int t = 0; t < 10; ++t)
        pool.post([&, t] {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(t);
            cv.notify_all();
        });

    // One freed worker runs all ten, one at a time, oldest first.
    {
        std::unique_lock<std::mutex> lock(mutex);
        released[0] = true;
        cv.notify_all();
        EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return order.size() == 10; }));
        released[1] = true;
        cv.notify_all();
    }
    pool.shutdown();
    std::vector<int> want(10);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
}

TEST(ParallelExec, MatchesSerialOnAsymmetricMatrices)
{
    const fmt::CooMatrix matrices[] = {
        asymmetricMatrix(97, 83),
        wl::genClustered(120, 120, 1500, 6, 31),
        wl::genPowerLaw(150, 150, 1800, 1.0, 32),
    };
    sim::NativeExec serial;

    for (const fmt::CooMatrix& coo : matrices) {
        std::vector<Value> x = rampVector(coo.cols());
        for (eng::Format f : kAllFormats) {
            eng::SparseMatrixAny m =
                eng::SparseMatrixAny::fromCoo(coo, f);
            std::vector<Value> y_serial(
                static_cast<std::size_t>(coo.rows()), Value(0));
            eng::spmv(m, x, y_serial, serial);
            for (int threads : {1, 2, 4, 8}) {
                exec::ParallelExec pe(threads);
                std::vector<Value> y_par(
                    static_cast<std::size_t>(coo.rows()), Value(0));
                eng::spmv(m, x, y_par, pe);
                for (std::size_t i = 0; i < y_serial.size(); ++i)
                    EXPECT_NEAR(y_par[i], y_serial[i], 1e-10)
                        << eng::toString(f) << " threads " << threads
                        << " row " << i;
            }
        }
    }
}

TEST(ParallelExec, AccumulatesLikeTheSerialKernel)
{
    // y := y + A x semantics: a pre-filled y must survive.
    fmt::CooMatrix coo = wl::genClustered(64, 64, 700, 4, 41);
    std::vector<Value> x = rampVector(64);
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    sim::NativeExec serial;
    exec::ParallelExec pe(4);

    std::vector<Value> y1(64, Value(2.5));
    std::vector<Value> y2(64, Value(2.5));
    eng::spmv(csr, x, y1, serial);
    eng::spmv(csr, x, y2, pe);
    for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_NEAR(y2[i], y1[i], 1e-10);
}

TEST(ParallelExec, OperatorDrivesSolvers)
{
    // CG over the parallel engine operator converges to the same
    // solution as the serial one.
    fmt::CooMatrix coo = wl::genPoisson2d(16, 16);
    fmt::CsrMatrix a = fmt::CsrMatrix::fromCoo(coo);
    std::vector<Value> b(static_cast<std::size_t>(a.rows()), Value(1));

    sim::NativeExec se;
    std::vector<Value> x_serial(b.size(), Value(0));
    solve::SolveReport r1 = solve::conjugateGradient(
        eng::makeOperator(a, se), b, x_serial, 1e-10, 1000, se);

    exec::ParallelExec pe(4);
    std::vector<Value> x_par(b.size(), Value(0));
    solve::SolveReport r2 = solve::conjugateGradient(
        eng::makeOperator(a, pe), b, x_par, 1e-10, 1000, pe);

    EXPECT_TRUE(r1.converged);
    EXPECT_TRUE(r2.converged);
    for (std::size_t i = 0; i < x_serial.size(); ++i)
        EXPECT_NEAR(x_par[i], x_serial[i], 1e-8);
}

} // namespace
} // namespace smash
