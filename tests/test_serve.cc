/**
 * @file
 * Tests for the serving subsystem and the engine growth beneath it:
 * batched SpMV against per-request dispatch (bit for bit, in the
 * engine and through a session, on every served format), the
 * parallel SpMM/SpAdd drivers, thread-pool shutdown semantics, the
 * matrix registry's conversion caching — and the typed
 * serve::Result surface: status codes instead of exceptions, one
 * pool task per request with priority-ordered starts, admission
 * control (kOverloaded fail-fast, kBlock eventual completion),
 * deadlines, and the per-priority latency accounting.
 *
 * Tests that need requests to stay queued hold every worker with a
 * WorkerPin (worker_pin.hh) and let go when they are ready.
 *
 * Thread counts: SMASH_SERVE_THREADS pins one count (the ctest
 * variants run 1, 2, and 8); unset, every count is covered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_exec.hh"
#include "common/rng.hh"
#include "engine/dispatch.hh"
#include "formats/convert.hh"
#include "kernels/reference.hh"
#include "obs/metrics.hh"
#include "serve/session.hh"
#include "workloads/matrix_gen.hh"
#include "worker_pin.hh"

namespace smash
{
namespace
{

const eng::Format kAllFormats[] = {
    eng::Format::kCoo,  eng::Format::kCsr,   eng::Format::kCsc,
    eng::Format::kBcsr, eng::Format::kEll,   eng::Format::kDia,
    eng::Format::kDense, eng::Format::kSmash,
};

std::vector<int>
threadCounts()
{
    if (const char* env = std::getenv("SMASH_SERVE_THREADS"))
        return {std::atoi(env)};
    return {1, 2, 8};
}

std::vector<Value>
rampVector(Index n, Index kind)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value((i * 3 + kind) % 7) * Value(0.25);
    return x;
}

/** Dyadic-valued COO (multiples of 2^-4): exact in any sum order. */
fmt::CooMatrix
dyadicMatrix(Index rows, Index cols, Index per_row)
{
    fmt::CooMatrix coo(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index k = 0; k < per_row; ++k)
            coo.add(r, (r * 5 + k * 7) % cols,
                    Value(1) + Value((r * 3 + k) % 9) * Value(0.0625));
    coo.canonicalize();
    return coo;
}

/** Dyadic dense block, one distinct column per RHS. */
fmt::DenseMatrix
dyadicBlock(Index rows, Index nrhs, Index kind)
{
    fmt::DenseMatrix b(rows, nrhs);
    for (Index c = 0; c < nrhs; ++c)
        for (Index j = 0; j < rows; ++j)
            b.at(j, c) = Value(1) +
                Value((j * 5 + c * 3 + kind) % 9) * Value(0.0625);
    return b;
}

/** X block with column r = rampVector(rows, r), zero-padded. */
fmt::DenseMatrix
operandBlock(Index padded_rows, Index logical_rows, Index nrhs)
{
    fmt::DenseMatrix x(padded_rows, nrhs);
    for (Index r = 0; r < nrhs; ++r) {
        const std::vector<Value> xr = rampVector(logical_rows, r);
        for (Index j = 0; j < logical_rows; ++j)
            x.at(j, r) = xr[static_cast<std::size_t>(j)];
    }
    return x;
}

/** True when @p a and @p b hold the same values bit for bit. */
bool
sameBits(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0;
}

/** Per-column reference: N independent single-RHS dispatches. */
template <typename E>
fmt::DenseMatrix
perRhsReference(const eng::MatrixRef& m, Index logical_rows,
                Index nrhs, E& e)
{
    fmt::DenseMatrix y(m.rows(), nrhs);
    for (Index r = 0; r < nrhs; ++r) {
        std::vector<Value> yr(static_cast<std::size_t>(m.rows()),
                              Value(0));
        eng::spmv(m, rampVector(logical_rows, r), yr, e);
        for (Index i = 0; i < m.rows(); ++i)
            y.at(i, r) = yr[static_cast<std::size_t>(i)];
    }
    return y;
}

TEST(SpmvBatch, MatchesIndividualSpmvAcrossFormats)
{
    const fmt::CooMatrix coo = wl::genClustered(96, 80, 900, 5, 17);
    const Index nrhs = 7;
    sim::NativeExec e;

    for (eng::Format f : kAllFormats) {
        eng::SparseMatrixAny m = eng::SparseMatrixAny::fromCoo(coo, f);
        fmt::DenseMatrix x =
            operandBlock(m.xLength(), coo.cols(), nrhs);
        fmt::DenseMatrix y(coo.rows(), nrhs);
        eng::spmvBatch(m.ref(), x, y, e);
        const fmt::DenseMatrix ref =
            perRhsReference(m.ref(), coo.cols(), nrhs, e);
        EXPECT_TRUE(sameBits(y.data(), ref.data())) << eng::toString(f);
    }
}

TEST(SpmvBatch, StagedColumnZeroesThePadTail)
{
    // The batch operand is staged in a grow-only arena buffer. A
    // tall all-NaN batch first leaves NaN far past the pad tail of
    // the matrices below; BCSR and SMASH multiply the stored zeros
    // of their pad columns, so a stale NaN there would poison every
    // row the last block column touches.
    sim::NativeExec e;
    {
        const fmt::CsrMatrix tall =
            fmt::CsrMatrix::fromCoo(wl::genUniform(8, 1000, 400, 5));
        fmt::DenseMatrix x(1000, 2);
        for (Value& v : x.data())
            v = std::numeric_limits<Value>::quiet_NaN();
        fmt::DenseMatrix y(8, 2);
        eng::spmvBatch(tall, x, y, e);
    }
    const fmt::CooMatrix coo = wl::genClustered(50, 61, 600, 4, 29);
    for (eng::Format f : {eng::Format::kBcsr, eng::Format::kSmash}) {
        const eng::SparseMatrixAny m =
            eng::SparseMatrixAny::fromCoo(coo, f);
        ASSERT_GT(m.xLength(), m.cols()) << eng::toString(f);
        const fmt::DenseMatrix x = operandBlock(61, 61, 3);
        fmt::DenseMatrix y(50, 3);
        eng::spmvBatch(m.ref(), x, y, e);
        const fmt::DenseMatrix ref = perRhsReference(m.ref(), 61, 3, e);
        EXPECT_TRUE(sameBits(y.data(), ref.data())) << eng::toString(f);
    }
}

TEST(SpmvBatch, AccumulatesIntoY)
{
    const fmt::CooMatrix coo = wl::genClustered(40, 40, 300, 4, 3);
    const fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    sim::NativeExec e;
    fmt::DenseMatrix x = operandBlock(40, 40, 3);
    fmt::DenseMatrix y1(40, 3);
    eng::spmvBatch(csr, x, y1, e);
    // Y := Y + A X semantics: a second call doubles the result.
    fmt::DenseMatrix y2(40, 3);
    eng::spmvBatch(csr, x, y2, e);
    eng::spmvBatch(csr, x, y2, e);
    for (Index i = 0; i < 40; ++i)
        for (Index r = 0; r < 3; ++r)
            EXPECT_NEAR(y2.at(i, r), 2 * y1.at(i, r), 1e-12);
}

TEST(SpmvBatch, ParallelMatchesSerialAtEveryThreadCount)
{
    const fmt::CooMatrix coo = wl::genPowerLaw(150, 150, 1800, 1.0, 32);
    const Index nrhs = 5;
    sim::NativeExec serial;

    for (eng::Format f : kAllFormats) {
        eng::SparseMatrixAny m = eng::SparseMatrixAny::fromCoo(coo, f);
        fmt::DenseMatrix x =
            operandBlock(m.xLength(), coo.cols(), nrhs);
        fmt::DenseMatrix y_serial(coo.rows(), nrhs);
        eng::spmvBatch(m.ref(), x, y_serial, serial);
        for (int threads : threadCounts()) {
            exec::ParallelExec pe(threads);
            fmt::DenseMatrix y(coo.rows(), nrhs);
            eng::spmvBatch(m.ref(), x, y, pe);
            for (Index i = 0; i < coo.rows(); ++i)
                for (Index r = 0; r < nrhs; ++r)
                    EXPECT_NEAR(y.at(i, r), y_serial.at(i, r), 1e-12)
                        << eng::toString(f) << " threads " << threads;
        }
    }
}

TEST(SpmvBatch, SimulatedDispatchBillsTheMachine)
{
    const fmt::CooMatrix coo = wl::genClustered(48, 48, 400, 4, 9);
    sim::NativeExec native;
    for (eng::Format f : {eng::Format::kCsr, eng::Format::kSmash}) {
        eng::SparseMatrixAny m = eng::SparseMatrixAny::fromCoo(coo, f);
        fmt::DenseMatrix x = operandBlock(m.xLength(), 48, 4);
        fmt::DenseMatrix ref(48, 4);
        eng::spmvBatch(m.ref(), x, ref, native);

        sim::Machine machine;
        sim::SimExec e(machine);
        fmt::DenseMatrix y(48, 4);
        eng::spmvBatch(m.ref(), x, y, e);
        EXPECT_GT(machine.core().instructions(), 0u);
        EXPECT_TRUE(y.approxEquals(ref, 1e-12)) << eng::toString(f);
    }
}

TEST(SpmvBatch, BitIdenticalToConcatenationAndCloseToSpmm)
{
    // The serving layer's dense-operand SpMM path: a block computed
    // alone is bit-identical to the same block inside a wider
    // concatenation (each column is one canonical SpMV).
    const fmt::CooMatrix coo = dyadicMatrix(64, 48, 6);
    const fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    sim::NativeExec e;

    const fmt::DenseMatrix b1 = dyadicBlock(48, 3, 1);
    const fmt::DenseMatrix b2 = dyadicBlock(48, 5, 2);
    fmt::DenseMatrix wide(48, 8);
    for (Index j = 0; j < 48; ++j) {
        for (Index c = 0; c < 3; ++c)
            wide.at(j, c) = b1.at(j, c);
        for (Index c = 0; c < 5; ++c)
            wide.at(j, 3 + c) = b2.at(j, c);
    }
    fmt::DenseMatrix c1(64, 3), c2(64, 5), cw(64, 8);
    eng::spmvBatch(csr, b1, c1, e);
    eng::spmvBatch(csr, b2, c2, e);
    eng::spmvBatch(csr, wide, cw, e);
    for (Index i = 0; i < 64; ++i) {
        for (Index c = 0; c < 3; ++c)
            EXPECT_EQ(c1.at(i, c), cw.at(i, c));
        for (Index c = 0; c < 5; ++c)
            EXPECT_EQ(c2.at(i, c), cw.at(i, 3 + c));
    }

    // And against the sparse-B SpMM route (CSR x CSC): dyadic
    // values make every summation order exact, so even the
    // different traversal agrees bitwise.
    fmt::CooMatrix b_coo(48, 8);
    for (Index j = 0; j < 48; ++j)
        for (Index c = 0; c < 8; ++c)
            b_coo.add(j, c, wide.at(j, c));
    b_coo.canonicalize();
    const fmt::CscMatrix b_csc = fmt::CscMatrix::fromCoo(b_coo);
    fmt::DenseMatrix c_spmm(64, 8);
    eng::spmm(csr, b_csc, c_spmm, e);
    for (Index i = 0; i < 64; ++i)
        for (Index c = 0; c < 8; ++c)
            EXPECT_EQ(cw.at(i, c), c_spmm.at(i, c));
}

TEST(ParallelDrivers, SpmmTilesMatchSerial)
{
    const fmt::CooMatrix a_coo = wl::genClustered(90, 70, 1100, 4, 21);
    const fmt::CooMatrix b_coo = wl::genClustered(70, 60, 800, 4, 22);
    const fmt::CsrMatrix a = fmt::CsrMatrix::fromCoo(a_coo);
    const fmt::CscMatrix b = fmt::CscMatrix::fromCoo(b_coo);

    sim::NativeExec serial;
    fmt::DenseMatrix c_serial(a.rows(), b.cols());
    eng::spmm(a, b, c_serial, serial);

    for (int threads : threadCounts()) {
        exec::ParallelExec pe(threads);
        fmt::DenseMatrix c(a.rows(), b.cols());
        eng::spmm(a, b, c, pe);
        EXPECT_TRUE(c.approxEquals(c_serial, 1e-12))
            << "threads " << threads;
    }
}

TEST(ParallelDrivers, SpaddMatchesSerial)
{
    const fmt::CooMatrix a_coo = wl::genClustered(80, 80, 900, 4, 31);
    const fmt::CooMatrix b_coo = wl::genClustered(80, 80, 900, 4, 32);
    sim::NativeExec serial;
    const std::vector<Value> x = rampVector(80, 1);

    for (eng::Format f :
         {eng::Format::kCsr, eng::Format::kDense, eng::Format::kSmash}) {
        eng::SparseMatrixAny a = eng::SparseMatrixAny::fromCoo(a_coo, f);
        eng::SparseMatrixAny b = eng::SparseMatrixAny::fromCoo(b_coo, f);
        eng::SparseMatrixAny c_serial = eng::spadd(a, b, serial);
        std::vector<Value> y_serial(80, Value(0));
        eng::spmv(c_serial, x, y_serial, serial);

        for (int threads : threadCounts()) {
            exec::ParallelExec pe(threads);
            eng::SparseMatrixAny c = eng::spadd(a, b, pe);
            std::vector<Value> y(80, Value(0));
            eng::spmv(c, x, y, serial);
            for (std::size_t i = 0; i < y.size(); ++i)
                EXPECT_NEAR(y[i], y_serial[i], 1e-12)
                    << eng::toString(f) << " threads " << threads;
        }
    }
}

TEST(ThreadPoolShutdown, RejectsSubmissionAfterShutdown)
{
    exec::ThreadPool pool(2);
    pool.parallelFor(0, 4, 1, [](Index, Index) {});
    pool.shutdown();
    EXPECT_THROW(pool.parallelFor(0, 4, 1, [](Index, Index) {}),
                 FatalError);
    EXPECT_THROW(pool.post([] {}), FatalError);
    pool.shutdown(); // idempotent
}

TEST(ThreadPoolShutdown, TryPostRunsBeforeAndRejectsAfterShutdown)
{
    std::atomic<int> ran{0};
    exec::ThreadPool pool(2);
    // Accepted submissions run even when shutdown follows at once
    // (the drain-before-join contract).
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pool.tryPost([&ran] { ran.fetch_add(1); }));
    pool.shutdown();
    EXPECT_EQ(ran.load(), 8);
    // After shutdown the gate reports rejection instead of
    // throwing — the caller (a drift re-encode racing a session
    // teardown) falls back to running inline.
    EXPECT_FALSE(pool.tryPost([&ran] { ran.fetch_add(1); }));
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolShutdown, DrainsPostedTasksBeforeJoining)
{
    std::atomic<int> ran{0};
    {
        exec::ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.post([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(20));
                ran.fetch_add(1);
            });
        pool.shutdown(); // must run all 200, not strand them
        EXPECT_EQ(ran.load(), 200);
    }
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolShutdown, NestedParallelForProgresses)
{
    // A worker task that itself calls parallelFor must not
    // deadlock, even when it is the pool's only worker: the
    // blocked caller helps drain the queues.
    for (int threads : {1, 4}) {
        exec::ThreadPool pool(threads);
        std::atomic<long> sum{0};
        pool.parallelFor(0, 8, 1, [&](Index ob, Index oe) {
            for (Index o = ob; o < oe; ++o)
                pool.parallelFor(o * 100, (o + 1) * 100, 1,
                                 [&](Index b, Index e) {
                    for (Index i = b; i < e; ++i)
                        sum.fetch_add(i);
                });
        });
        EXPECT_EQ(sum.load(), 800L * 799 / 2) << threads << " threads";
    }
}

TEST(ServeRegistry, SelectsOnceAndCachesConversions)
{
    serve::MatrixRegistry registry;
    const eng::Format chosen = registry.put(
        "clustered", wl::genWithLocality(256, 256, 4000, 8, 0.9, 5));
    EXPECT_EQ(chosen, eng::Format::kSmash);
    EXPECT_EQ(registry.format("clustered"), eng::Format::kSmash);
    EXPECT_EQ(registry.conversions("clustered"), 0u); // lazy

    const serve::MatrixRegistry::EncodingPtr first =
        registry.encoded("clustered");
    EXPECT_EQ(registry.conversions("clustered"), 1u);
    const serve::MatrixRegistry::EncodingPtr second =
        registry.encoded("clustered");
    EXPECT_EQ(first.get(), second.get()); // cached, not reconverted
    EXPECT_EQ(registry.conversions("clustered"), 1u);

    registry.encodedAs("clustered", eng::Format::kCsr);
    EXPECT_EQ(registry.conversions("clustered"), 2u);
    registry.encodedAs("clustered", eng::Format::kCsr);
    EXPECT_EQ(registry.conversions("clustered"), 2u);

    const serve::MatrixInfo info = registry.info("clustered");
    EXPECT_EQ(info.nnz, registry.encoded("clustered")->nnz());
    EXPECT_EQ(info.cached.size(), 2u);
}

TEST(ServeRegistry, RejectsDuplicatesAndUnknownNames)
{
    serve::MatrixRegistry registry;
    registry.put("a", wl::genUniform(16, 16, 40, 1));
    EXPECT_THROW(registry.put("a", wl::genUniform(16, 16, 40, 2)),
                 FatalError);
    EXPECT_THROW(registry.encoded("missing"), FatalError);
    EXPECT_FALSE(registry.contains("missing"));
}

/** Oracle y = A x for one registered matrix. */
std::vector<Value>
serialOracle(serve::MatrixRegistry& registry, const std::string& name,
             const std::vector<Value>& x)
{
    sim::NativeExec e;
    std::vector<Value> y(
        static_cast<std::size_t>(registry.rows(name)), Value(0));
    eng::spmv(registry.encoded(name)->ref(), x, y, e);
    return y;
}

TEST(ServeSession, BatchedEqualsIndividualSpmv)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genClustered(200, 200, 3000, 6, 41));
    const Index n_req = 40;

    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        serve::RequestOptions ropts;
        ropts.priority = serve::Priority::kBatch;
        std::vector<std::future<serve::Result<std::vector<Value>>>>
            futures;
        for (Index r = 0; r < n_req; ++r)
            futures.push_back(session.submit(serve::SpmvRequest{
                "m", rampVector(200, r % 6), ropts}));
        for (Index r = 0; r < n_req; ++r) {
            serve::Result<std::vector<Value>> result =
                futures[static_cast<std::size_t>(r)].get();
            ASSERT_TRUE(result.ok()) << result.status().toString();
            const std::vector<Value>& got = result.value();
            const std::vector<Value> want =
                serialOracle(registry, "m", rampVector(200, r % 6));
            ASSERT_TRUE(sameBits(got, want))
                << "threads " << threads << " request " << r;
        }
        session.drain();
        EXPECT_EQ(session.stats().completed.load(), 40u);
        EXPECT_EQ(session.stats().failed.load(), 0u);
        // One compute per request.
        EXPECT_EQ(session.stats().batches.load(), 40u)
            << "threads " << threads;
    }
}

/** Banded COO (half-width @p half) with random, non-dyadic values:
 *  rows sum in an order-sensitive way, so two traversals that add
 *  in different orders disagree in the last bits. */
fmt::CooMatrix
randomBanded(Index n, Index half, std::uint64_t seed)
{
    Rng rng(seed);
    fmt::CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r)
        for (Index c = std::max<Index>(0, r - half);
             c <= std::min<Index>(n - 1, r + half); ++c)
            coo.add(r, c, rng.uniform() * 2 - 1);
    coo.canonicalize();
    return coo;
}

TEST(ServeSession, BatchedAnswersBitIdenticalAcrossServedFormats)
{
    // Whatever requests run beside it, a request's answer is the
    // direct one bit for bit: serial eng::spmv on the entry's
    // encoding for K=1, the stack's own spmv for K=4. Random x and
    // matrix values make any second summation order show.
    const Index n = 240;
    const fmt::CooMatrix coo = randomBanded(n, 6, 71);
    serve::MatrixRegistry registry;
    const eng::Format formats[] = {
        eng::Format::kCsr, eng::Format::kEll, eng::Format::kDia,
        eng::Format::kDense, eng::Format::kSmash,
    };
    std::vector<std::string> names;
    for (eng::Format f : formats) {
        names.push_back(eng::toString(f));
        registry.put(names.back(), coo, f);
    }
    registry.registerSharded("sharded", coo, 4);
    names.push_back("sharded");

    Rng rng(73);
    std::vector<std::vector<Value>> xs(16);
    for (std::vector<Value>& x : xs) {
        x.resize(static_cast<std::size_t>(n));
        for (Value& v : x)
            v = rng.uniform() * 2 - 1;
    }
    const auto oracle = [&](const std::string& name,
                            const std::vector<Value>& x) {
        std::vector<Value> y(static_cast<std::size_t>(n), Value(0));
        if (name == "sharded") {
            registry.sharded(name)->spmv(x, y, nullptr);
        } else {
            sim::NativeExec e;
            eng::spmv(registry.encoded(name)->ref(), x, y, e);
        }
        return y;
    };

    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);
        serve::RequestOptions ropts;
        ropts.priority = serve::Priority::kBatch;
        std::vector<std::future<serve::Result<std::vector<Value>>>>
            futures;
        for (const std::string& name : names)
            for (const std::vector<Value>& x : xs)
                futures.push_back(
                    session.submit(serve::SpmvRequest{name, x, ropts}));
        std::size_t k = 0;
        for (const std::string& name : names) {
            for (const std::vector<Value>& x : xs) {
                serve::Result<std::vector<Value>> result =
                    futures[k++].get();
                ASSERT_TRUE(result.ok()) << result.status().toString();
                EXPECT_TRUE(sameBits(result.value(), oracle(name, x)))
                    << name << " threads " << threads;
            }
        }
    }
}

TEST(ServeSession, LoneRequestCompletesPromptly)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genClustered(96, 96, 1000, 5, 43));
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        for (Index r = 0; r < 3; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            auto f = session.submit(
                serve::SpmvRequest{"m", rampVector(96, r), {}});
            ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                      std::future_status::ready);
            EXPECT_LT(std::chrono::steady_clock::now() - t0,
                      std::chrono::milliseconds(100))
                << "threads " << threads;
            ASSERT_TRUE(f.get().ok());
        }
    }
}

TEST(ServeSession, SecondSubmitDoesNotReconvert)
{
    serve::MatrixRegistry registry;
    registry.put("cached", wl::genWithLocality(128, 128, 2000, 8, 0.9, 3));
    serve::SessionOptions opts;
    opts.threads = threadCounts().front();
    serve::Session session(registry, opts);

    ASSERT_TRUE(session
                    .submit(serve::SpmvRequest{"cached",
                                               rampVector(128, 0)})
                    .get()
                    .ok());
    EXPECT_EQ(registry.conversions("cached"), 1u);
    ASSERT_TRUE(session
                    .submit(serve::SpmvRequest{"cached",
                                               rampVector(128, 1)})
                    .get()
                    .ok());
    EXPECT_EQ(registry.conversions("cached"), 1u);
}

TEST(ServeSession, CompletesUnderOutOfOrderArrival)
{
    // Requests against several matrices, submitted from several
    // client threads at mixed priorities: priority reorders starts,
    // and first-touch conversions interleave with computes.
    serve::MatrixRegistry registry;
    registry.put("alpha", wl::genClustered(160, 160, 2400, 6, 51));
    registry.put("beta", wl::genPowerLaw(120, 120, 1500, 1.1, 52));
    registry.put("gamma", wl::genPoisson2d(12, 12)); // 144x144, DIA

    const serve::Priority kPrio[] = {serve::Priority::kHigh,
                                     serve::Priority::kNormal,
                                     serve::Priority::kBatch};
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        const char* names[] = {"alpha", "beta", "gamma"};
        const Index dims[] = {160, 120, 144};
        struct Pending
        {
            std::string name;
            Index kind;
            std::future<serve::Result<std::vector<Value>>> future;
        };
        std::vector<Pending> pending(45);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < 3; ++c)
            clients.emplace_back([&] {
                for (;;) {
                    const std::size_t slot = next.fetch_add(1);
                    if (slot >= pending.size())
                        return;
                    const std::size_t which = slot % 3;
                    const auto kind = static_cast<Index>(slot % 5);
                    pending[slot].name = names[which];
                    pending[slot].kind = kind;
                    serve::RequestOptions ropts;
                    ropts.priority = kPrio[slot % 3];
                    pending[slot].future =
                        session.submit(serve::SpmvRequest{
                            names[which],
                            rampVector(dims[which], kind), ropts});
                }
            });
        for (std::thread& c : clients)
            c.join();

        for (Pending& p : pending) {
            serve::Result<std::vector<Value>> result = p.future.get();
            ASSERT_TRUE(result.ok()) << result.status().toString();
            const std::vector<Value>& got = result.value();
            const std::vector<Value> want = serialOracle(
                registry, p.name,
                rampVector(registry.cols(p.name), p.kind));
            ASSERT_TRUE(sameBits(got, want))
                << p.name << " threads " << threads;
        }
        session.drain();
        EXPECT_EQ(session.stats().completed.load(), 45u);
        EXPECT_EQ(registry.conversions("alpha"), 1u);
        EXPECT_EQ(registry.conversions("beta"), 1u);
        EXPECT_EQ(registry.conversions("gamma"), 1u);
        // Every priority class saw traffic and latency accounting.
        for (serve::Priority p : kPrio)
            EXPECT_EQ(session.stats().latency(p).count(), 15u)
                << serve::toString(p);
    }
}

TEST(TypedApi, ValidationFailuresAreReadyResults)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genUniform(32, 32, 100, 7));
    registry.put("wide", wl::genUniform(32, 48, 100, 8));
    serve::Session session(registry, {});

    auto nf = session.submit(serve::SpmvRequest{"nope",
                                                rampVector(32, 0)});
    ASSERT_EQ(nf.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(nf.get().status().code(), serve::StatusCode::kNotFound);

    auto bad_len = session.submit(serve::SpmvRequest{
        "m", rampVector(31, 0)});
    EXPECT_EQ(bad_len.get().status().code(),
              serve::StatusCode::kInvalidOperand);

    auto bad_block = session.submit(serve::SpmmRequest{
        "m", fmt::DenseMatrix(31, 2)});
    EXPECT_EQ(bad_block.get().status().code(),
              serve::StatusCode::kInvalidOperand);
    auto empty_block = session.submit(serve::SpmmRequest{
        "m", fmt::DenseMatrix(32, 0)});
    EXPECT_EQ(empty_block.get().status().code(),
              serve::StatusCode::kInvalidOperand);

    auto bad_other = session.submit(serve::SpaddRequest{"m", "nope"});
    EXPECT_EQ(bad_other.get().status().code(),
              serve::StatusCode::kNotFound);
    auto bad_shape = session.submit(serve::SpaddRequest{"m", "wide"});
    EXPECT_EQ(bad_shape.get().status().code(),
              serve::StatusCode::kInvalidOperand);

    // Nothing above entered the pipeline.
    EXPECT_EQ(session.stats().submitted.load(), 0u);
}

TEST(TypedApi, CloseResolvesLaterSubmitsAsShuttingDown)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genUniform(32, 32, 100, 7));
    serve::Session session(registry, {});
    ASSERT_TRUE(
        session.submit(serve::SpmvRequest{"m", rampVector(32, 0)})
            .get()
            .ok());
    session.close();
    auto f = session.submit(serve::SpmvRequest{"m", rampVector(32, 1)});
    EXPECT_EQ(f.get().status().code(),
              serve::StatusCode::kShuttingDown);
}

TEST(ServeSpmm, ServedBlocksBitIdenticalToDirectSpmm)
{
    // SpMM requests served through a session must be
    // bit-identical to the direct eng::spmvBatch result (each block
    // computes alone), and, since dyadic values make every
    // summation order exact, to eng::spmm's sparse-B route too.
    const fmt::CooMatrix coo = dyadicMatrix(96, 96, 6);
    const fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        registry.put("m", coo, eng::Format::kCsr);
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        const Index widths[] = {1, 3, 5, 2};
        std::vector<std::future<serve::Result<fmt::DenseMatrix>>>
            futures;
        for (Index r = 0; r < 4; ++r)
            futures.push_back(session.submit(serve::SpmmRequest{
                "m", dyadicBlock(96, widths[r], r)}));
        sim::NativeExec e;
        for (Index r = 0; r < 4; ++r) {
            serve::Result<fmt::DenseMatrix> result =
                futures[static_cast<std::size_t>(r)].get();
            ASSERT_TRUE(result.ok()) << result.status().toString();
            const fmt::DenseMatrix& got = result.value();
            ASSERT_EQ(got.rows(), 96);
            ASSERT_EQ(got.cols(), widths[r]);
            const fmt::DenseMatrix b = dyadicBlock(96, widths[r], r);
            fmt::DenseMatrix want(96, widths[r]);
            eng::spmvBatch(csr, b, want, e);
            for (Index i = 0; i < 96; ++i)
                for (Index c = 0; c < widths[r]; ++c)
                    ASSERT_EQ(got.at(i, c), want.at(i, c))
                        << "block " << r << " threads " << threads;
            // Cross-check one block against the sparse-B route.
            if (r == 1) {
                fmt::CooMatrix b_coo(96, widths[r]);
                for (Index j = 0; j < 96; ++j)
                    for (Index c = 0; c < widths[r]; ++c)
                        b_coo.add(j, c, b.at(j, c));
                b_coo.canonicalize();
                fmt::DenseMatrix c_spmm(96, widths[r]);
                eng::spmm(csr, fmt::CscMatrix::fromCoo(b_coo), c_spmm,
                          e);
                for (Index i = 0; i < 96; ++i)
                    for (Index c = 0; c < widths[r]; ++c)
                        ASSERT_EQ(got.at(i, c), c_spmm.at(i, c));
            }
        }
        session.drain();
        EXPECT_EQ(session.stats().failed.load(), 0u);
    }
}

TEST(ServeSpadd, MatchesDirectSpadd)
{
    serve::MatrixRegistry registry;
    registry.put("a", dyadicMatrix(60, 60, 5));
    registry.put("b", dyadicMatrix(60, 60, 4));
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);
        serve::Result<fmt::CooMatrix> result =
            session.submit(serve::SpaddRequest{"a", "b"}).get();
        ASSERT_TRUE(result.ok()) << result.status().toString();

        sim::NativeExec e;
        const eng::SparseMatrixAny want = eng::spadd(
            registry.encodedAs("a", eng::Format::kCsr)->ref(),
            registry.encodedAs("b", eng::Format::kCsr)->ref(), e);
        const fmt::CooMatrix& wc = want.as<fmt::CooMatrix>();
        const fmt::CooMatrix& got = result.value();
        ASSERT_EQ(got.nnz(), wc.nnz());
        for (std::size_t i = 0; i < got.entries().size(); ++i) {
            EXPECT_EQ(got.entries()[i].row, wc.entries()[i].row);
            EXPECT_EQ(got.entries()[i].col, wc.entries()[i].col);
            EXPECT_EQ(got.entries()[i].value, wc.entries()[i].value);
        }
    }
}

TEST(Admission, FailFastSaturationReturnsOverloaded)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genClustered(128, 128, 1500, 5, 61));
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        // Room for one pin per worker plus 4 queued requests.
        opts.maxInflight = threads + 4;
        serve::Session session(registry, opts);
        testing::WorkerPin pin(session, "m", rampVector(128, 0));
        ASSERT_TRUE(pin.pinned()) << "threads " << threads;

        // Every worker is held, so admitted requests stay queued
        // with their tickets: of 10 submits, 4 are admitted and
        // 5..10 must be denied — deterministically, since nothing
        // can complete until the pin lets go.
        std::vector<std::future<serve::Result<std::vector<Value>>>>
            futures;
        serve::RequestOptions ropts;
        ropts.priority = serve::Priority::kBatch;
        ropts.admission = serve::Admission::kFailFast;
        for (Index r = 0; r < 10; ++r)
            futures.push_back(session.submit(serve::SpmvRequest{
                "m", rampVector(128, r % 4), ropts}));

        // Classify before releasing: rejected futures are ready
        // immediately, admitted ones are queued.
        std::vector<std::size_t> rejected, admitted;
        for (std::size_t r = 0; r < 10; ++r) {
            if (futures[r].wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)
                rejected.push_back(r);
            else
                admitted.push_back(r);
        }
        for (std::size_t r : rejected) {
            serve::Result<std::vector<Value>> result =
                futures[r].get();
            ASSERT_FALSE(result.ok());
            EXPECT_EQ(result.status().code(),
                      serve::StatusCode::kOverloaded);
        }
        pin.release();
        for (std::size_t r : admitted)
            ASSERT_TRUE(futures[r].get().ok());
        EXPECT_EQ(admitted.size(), 4u);
        EXPECT_EQ(rejected.size(), 6u);
        EXPECT_EQ(session.overloadRejects(), 6u);
        session.drain();
        // The 4 admitted requests and the pins.
        EXPECT_EQ(session.stats().completed.load(),
                  static_cast<std::uint64_t>(4 + threads));
        EXPECT_EQ(session.stats().failed.load(), 0u);
    }
}

TEST(Admission, BlockingRequestsEventuallyComplete)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genClustered(96, 96, 1000, 5, 62));
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        opts.maxInflight = 2;
        serve::Session session(registry, opts);

        // 3 clients x 4 requests against a 2-slot gate: submits
        // block until earlier requests deliver, and every one
        // completes — back-pressure, not rejection.
        constexpr int kClients = 3;
        constexpr int kPerClient = 4;
        std::atomic<int> ok{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (int i = 0; i < kPerClient; ++i) {
                    serve::RequestOptions ropts;
                    ropts.admission = serve::Admission::kBlock;
                    auto f = session.submit(serve::SpmvRequest{
                        "m",
                        rampVector(96, static_cast<Index>(c + i)),
                        ropts});
                    if (f.get().ok())
                        ok.fetch_add(1);
                }
            });
        for (std::thread& c : clients)
            c.join();
        EXPECT_EQ(ok.load(), kClients * kPerClient);
        EXPECT_EQ(session.overloadRejects(), 0u);
        session.drain();
        EXPECT_EQ(session.stats().completed.load(),
                  static_cast<std::uint64_t>(kClients * kPerClient));
    }
}

TEST(Priorities, HighStartsAheadOfQueuedWork)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genClustered(96, 96, 1000, 5, 71));
    for (int threads : threadCounts()) {
        // Declared before the session, so they outlive every
        // callback that records into them.
        std::mutex mutex;
        std::condition_variable done;
        std::vector<serve::Priority> order;
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);
        testing::WorkerPin pin(session, "m", rampVector(96, 0));
        ASSERT_TRUE(pin.pinned()) << "threads " << threads;

        // Queue kBatch, then kNormal, then kHigh behind the held
        // workers; each completion records its priority.
        for (serve::Priority p :
             {serve::Priority::kBatch, serve::Priority::kNormal,
              serve::Priority::kHigh}) {
            serve::RequestOptions ropts;
            ropts.priority = p;
            session.submit(
                serve::SpmvRequest{"m", rampVector(96, 1), ropts},
                [&, p](serve::Result<std::vector<Value>> r) {
                    EXPECT_TRUE(r.ok()) << r.status().toString();
                    std::lock_guard<std::mutex> lock(mutex);
                    order.push_back(p);
                    done.notify_all();
                });
        }

        // Let one worker go: it alone runs the three queued
        // requests, one after another, so completion order is
        // start order.
        pin.releaseOne();
        {
            std::unique_lock<std::mutex> lock(mutex);
            ASSERT_TRUE(done.wait_for(lock, std::chrono::seconds(30),
                                      [&] { return order.size() == 3; }))
                << "threads " << threads;
            EXPECT_EQ(order,
                      (std::vector<serve::Priority>{
                          serve::Priority::kHigh, serve::Priority::kNormal,
                          serve::Priority::kBatch}))
                << "threads " << threads;
        }
        pin.release();
        session.drain();
    }
}

TEST(Deadlines, ExpiredRequestResolvesDeadlineExceeded)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genClustered(64, 64, 600, 4, 81));
    serve::SessionOptions opts;
    opts.threads = threadCounts().front();
    serve::Session session(registry, opts);
    testing::WorkerPin pin(session, "m", rampVector(64, 0));
    ASSERT_TRUE(pin.pinned());

    // A 1 ms deadline on a request queued behind held workers: it
    // cannot start before its budget runs out, so its task sheds it
    // instead of computing.
    serve::RequestOptions ropts;
    ropts.priority = serve::Priority::kBatch;
    ropts.deadline = std::chrono::milliseconds(1);
    auto f = session.submit(serve::SpmvRequest{
        "m", rampVector(64, 0), ropts});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    pin.release();
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_EQ(f.get().status().code(),
              serve::StatusCode::kDeadlineExceeded);
    session.drain();
    EXPECT_EQ(session.stats().expired.load(), 1u);
    // Only the pins computed.
    EXPECT_EQ(session.stats().completed.load(),
              static_cast<std::uint64_t>(session.threads()));
    EXPECT_EQ(session.stats().batches.load(),
              static_cast<std::uint64_t>(session.threads()));
}

TEST(ServeSession, RejectsBadOptionsWithoutTerminating)
{
    // Must throw (catchable), not std::terminate during
    // constructor unwinding.
    serve::MatrixRegistry registry;
    serve::SessionOptions neg;
    neg.maxInflight = -1;
    EXPECT_THROW(serve::Session session(registry, neg), FatalError);
}

} // namespace
} // namespace smash
