/**
 * @file
 * Tests for the sharded-matrix subsystem (src/shard/): bit-identity
 * of scatter–gather SpMV / batched SpMV (and served SpAdd) against
 * the unsharded engine (values dyadic, so every summation order is
 * exact and the comparisons are memcmp, not tolerance), random-valued
 * CSR shards against serial CSR on a wide matrix, delta
 * routing to the owning shard, per-shard divergent format
 * re-selection with per-shard (not whole-matrix) async re-encode,
 * per-matrix re-encode counters, a failed shard build failing its
 * request (not the process), K=1 as the put() stack, and the NUMA
 * topology probe's invariants.
 *
 * Thread counts: SMASH_SERVE_THREADS pins one count (the ctest
 * variants run 1, 2, and 8); unset, every count is covered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/numa_topology.hh"
#include "common/thread_pool.hh"
#include "engine/dispatch.hh"
#include "formats/dense_matrix.hh"
#include "obs/metrics.hh"
#include "serve/session.hh"
#include "shard/sharded_matrix.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_gen.hh"

namespace smash
{
namespace
{

std::vector<int>
threadCounts()
{
    if (const char* env = std::getenv("SMASH_SERVE_THREADS"))
        return {std::atoi(env)};
    return {1, 2, 8};
}

/** Dyadic-valued operand (multiples of 2^-4): exact in any order. */
std::vector<Value>
dyadicOperand(Index n, Index kind)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value((i * 5 + kind) % 9) * Value(0.0625);
    return x;
}

/** Non-dyadic operand in [-1, 1): summation order shows in the
 *  bits, so a comparison with it checks order, not just value. */
std::vector<Value>
randomOperand(Index n, std::uint64_t seed)
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

/** Scattered dyadic matrix with irregular rows (profiles to a
 *  non-DIA format in every band — the drift test's baseline). */
fmt::CooMatrix
scatteredMatrix(Index rows, Index cols, Index seed = 11)
{
    fmt::CooMatrix coo(rows, cols);
    for (Index r = 0; r < rows; ++r) {
        const Index per_row = 3 + (r * 7 + seed) % 5; // 3..7, rowCv > 0
        for (Index k = 0; k < per_row; ++k)
            coo.add(r, (r * 37 + k * 53 + seed) % cols,
                    Value(1) + Value((r + k + seed) % 8) * Value(0.125));
    }
    coo.canonicalize();
    return coo;
}

/** Two aligned 8-column blocks per row, 7 of 8 filled, at shifting
 *  positions, dyadic values: block locality 7/8, so the rules pick
 *  kSmash. */
fmt::CooMatrix
clusteredMatrix(Index rows, Index cols)
{
    fmt::CooMatrix coo(rows, cols);
    const Index blocks = cols / 8;
    for (Index r = 0; r < rows; ++r)
        for (Index b : {(r * 3) % blocks, (r * 3 + 5) % blocks})
            for (Index j = 0; j < 7; ++j)
                coo.add(r, b * 8 + j,
                        Value(1) + Value((r + j) % 8) * Value(0.125));
    coo.canonicalize();
    return coo;
}

/** Wait until no re-encode is pending for @p name. */
bool
waitReencodeSettled(serve::MatrixRegistry& registry,
                    const std::string& name)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(5);
    while (registry.info(name).reencodePending) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(NumaTopology, ProbeInvariants)
{
    const sys::NumaTopology& topo = sys::NumaTopology::probe();
    ASSERT_GE(topo.nodeCount(), 1);
    ASSERT_GE(topo.cpuCount(), 1);

    // nodeMajorCpuOrder is a permutation of every probed CPU.
    const std::vector<int> order = topo.nodeMajorCpuOrder();
    ASSERT_EQ(static_cast<int>(order.size()), topo.cpuCount());
    std::set<int> seen(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(seen.size()), topo.cpuCount());

    // Every shard gets a non-empty CPU subset; on a 1-node host with
    // enough CPUs the round-robin subsets of one split are disjoint
    // (with fewer CPUs than shards the degraded mode shares them).
    for (Index k = 1; k <= 5; ++k) {
        std::set<int> all;
        std::size_t total = 0;
        for (Index s = 0; s < k; ++s) {
            const std::vector<int> cpus = topo.shardCpus(s, k);
            ASSERT_FALSE(cpus.empty()) << "shard " << s << "/" << k;
            all.insert(cpus.begin(), cpus.end());
            total += cpus.size();
            const int node = topo.shardNode(s);
            ASSERT_GE(node, 0);
            ASSERT_LT(node, topo.nodeCount());
        }
        if (topo.nodeCount() == 1 &&
            topo.cpuCount() >= static_cast<int>(k)) {
            EXPECT_EQ(all.size(), total) << "overlap at K=" << k;
        }
    }
}

TEST(Shard, PartitionIsNnzBalancedAndCoversRows)
{
    const fmt::CsrMatrix master =
        fmt::CsrMatrix::fromCoo(scatteredMatrix(200, 160));
    for (const Index k : {Index(1), Index(3), Index(8)}) {
        shard::ShardedMatrix sm("part", master, k);
        ASSERT_EQ(sm.shardCount(), k);
        ASSERT_EQ(sm.rows(), master.rows());
        ASSERT_EQ(sm.cols(), master.cols());
        ASSERT_EQ(sm.nnz(), master.nnz());
        Index covered = 0;
        Index nnz = 0;
        for (Index s = 0; s < k; ++s) {
            const shard::ShardInfo info = sm.shardInfo(s);
            ASSERT_EQ(info.rowBegin, covered);
            ASSERT_GT(info.rowEnd, info.rowBegin);
            covered = info.rowEnd;
            nnz += info.nnz;
            // Every row maps back to its owning shard.
            for (Index r = info.rowBegin; r < info.rowEnd; ++r)
                ASSERT_EQ(sm.shardOfRow(r), s);
        }
        EXPECT_EQ(covered, master.rows());
        EXPECT_EQ(nnz, master.nnz());
        // toCsr reproduces the construction input bit for bit.
        const fmt::CsrMatrix back = sm.toCsr();
        ASSERT_EQ(back.rowPtr(), master.rowPtr());
        ASSERT_EQ(back.colInd(), master.colInd());
        ASSERT_EQ(back.values().size(), master.values().size());
        EXPECT_EQ(std::memcmp(back.values().data(),
                              master.values().data(),
                              master.values().size() * sizeof(Value)),
                  0);
    }
    // K beyond the row count clamps (each shard still owns a row).
    shard::ShardedMatrix tiny("tiny",
                              fmt::CsrMatrix::fromCoo(
                                  wl::genTridiagonal(3)),
                              64);
    EXPECT_EQ(tiny.shardCount(), 3);
}

TEST(Shard, SpmvBitIdenticalToUnsharded)
{
    // Dyadic values: the memcmp is exact even when the shards'
    // auto-selected format accumulates in a different association
    // than the CSR oracle.
    const fmt::CooMatrix coo = scatteredMatrix(240, 200);
    const fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    const std::vector<Value> x = dyadicOperand(200, 1);

    std::vector<Value> expect(240, Value(0));
    sim::NativeExec ne;
    eng::spmv(master, x, expect, ne);

    for (int threads : threadCounts()) {
        exec::ThreadPool pool(threads);
        for (const Index k : {Index(1), Index(2), Index(5)}) {
            shard::ShardedMatrix sm("spmv", master, k);
            for (exec::ThreadPool* p :
                 {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
                std::vector<Value> y(240, Value(0));
                sm.spmv(x, y, p);
                ASSERT_EQ(y.size(), expect.size());
                ASSERT_EQ(std::memcmp(y.data(), expect.data(),
                                      y.size() * sizeof(Value)),
                          0)
                    << "K=" << k << " threads=" << threads
                    << " pooled=" << (p != nullptr);
            }
        }
    }
}

TEST(Shard, CsrSpmvBitIdenticalToSerialCsrOnWideMatrix)
{
    // Random values on a 2^22-column matrix (x = 32 MiB, past any
    // L2; 32 non-zeros per row spread over the whole width), every
    // shard pinned to CSR: K=1 pooled runs ParallelExec, the rest
    // run serial kernels, and all must give serial CSR's bits.
    const fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(
        wl::genUniform(256, Index(1) << 22, 8192, 5));
    const std::vector<Value> x = randomOperand(master.cols(), 3);

    std::vector<Value> expect(256, Value(0));
    sim::NativeExec ne;
    eng::spmv(master, x, expect, ne);

    for (int threads : threadCounts()) {
        exec::ThreadPool pool(threads);
        for (const Index k : {Index(1), Index(2), Index(5)}) {
            shard::ShardedMatrix sm("wide", master, k, {},
                                    eng::Format::kCsr);
            for (exec::ThreadPool* p :
                 {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
                std::vector<Value> y(256, Value(0));
                sm.spmv(x, y, p);
                ASSERT_EQ(std::memcmp(y.data(), expect.data(),
                                      y.size() * sizeof(Value)),
                          0)
                    << "K=" << k << " threads=" << threads
                    << " pooled=" << (p != nullptr);
            }
        }
    }
}

TEST(Shard, SpmvBatchBitIdenticalToUnsharded)
{
    const fmt::CooMatrix coo = scatteredMatrix(180, 180);
    const fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    const Index nrhs = 5;
    fmt::DenseMatrix x(180, nrhs);
    for (Index j = 0; j < 180; ++j)
        for (Index c = 0; c < nrhs; ++c)
            x.at(j, c) = Value(1) +
                Value((j * 3 + c * 11) % 16) * Value(0.0625);

    fmt::DenseMatrix expect(180, nrhs);
    sim::NativeExec ne;
    eng::spmvBatch(master, x, expect, ne);

    for (int threads : threadCounts()) {
        exec::ThreadPool pool(threads);
        for (const Index k : {Index(1), Index(3), Index(7)}) {
            shard::ShardedMatrix sm("batch", master, k);
            fmt::DenseMatrix y(180, nrhs);
            sm.spmvBatch(x, y, &pool);
            ASSERT_EQ(std::memcmp(y.data().data(),
                                  expect.data().data(),
                                  y.data().size() * sizeof(Value)),
                      0)
                << "K=" << k << " threads=" << threads;
        }
    }
}

TEST(Shard, DeltasRouteToOwningShardOnly)
{
    const fmt::CsrMatrix master =
        fmt::CsrMatrix::fromCoo(scatteredMatrix(160, 160));
    shard::ShardedMatrix sm("route", master, 4);
    ASSERT_EQ(sm.shardCount(), 4);
    const shard::ShardInfo band = sm.shardInfo(2);
    sm.ensureEncoded();

    // Deltas land entirely inside shard 2's row band.
    fmt::CooMatrix deltas(160, 160);
    for (Index r = band.rowBegin; r < band.rowEnd; ++r)
        deltas.add(r, (r * 13) % 160, Value(0.5));
    deltas.canonicalize();

    eng::ReselectPolicy off;
    off.enabled = false;
    const shard::ShardMutationOutcome out =
        sm.applyUpdates(deltas, off);
    EXPECT_GT(out.stats.inserted + out.stats.updated, 0u);
    EXPECT_FALSE(out.reencodeScheduled);
    for (Index s = 0; s < 4; ++s) {
        const shard::ShardInfo info = sm.shardInfo(s);
        EXPECT_EQ(info.epoch, s == 2 ? 1u : 0u) << "shard " << s;
        // Only the touched shard rebuilds its encoding on next use.
        EXPECT_EQ(info.conversions, 1u);
    }
    sm.ensureEncoded();
    EXPECT_EQ(sm.shardInfo(2).conversions, 2u);
    EXPECT_EQ(sm.shardInfo(0).conversions, 1u);

    // The mutated content is served bit-identically to a rebuilt
    // unsharded oracle.
    fmt::CsrMatrix oracle = master;
    eng::applyUpdates(oracle, deltas);
    const std::vector<Value> x = dyadicOperand(160, 2);
    std::vector<Value> expect(160, Value(0));
    sim::NativeExec ne;
    eng::spmv(oracle, x, expect, ne);
    std::vector<Value> y(160, Value(0));
    sm.spmv(x, y, nullptr);
    EXPECT_EQ(std::memcmp(y.data(), expect.data(),
                          y.size() * sizeof(Value)),
              0);

    // A replacement of another shape is refused before any band
    // changes: its extra row lies past the last band.
    fmt::CooMatrix tall(161, 160);
    tall.add(160, 0, Value(1));
    tall.canonicalize();
    EXPECT_THROW(sm.replaceRows({159}, tall, off), FatalError);
    EXPECT_EQ(sm.epoch(), 1u);
}

TEST(Shard, RegistryShardedServesBitIdenticalToUnsharded)
{
    // Dyadic operands on both sides, so shard format choices and
    // the whole-matrix oracle all sum exactly.
    const fmt::CooMatrix coo = scatteredMatrix(220, 220, 59);
    const fmt::CooMatrix other = scatteredMatrix(220, 220, 83);
    for (int threads : threadCounts()) {
        serve::MatrixRegistry plain_reg;
        plain_reg.put("m", coo);
        plain_reg.put("b", other);
        serve::MatrixRegistry shard_reg;
        shard_reg.registerSharded("m", coo, 3);
        shard_reg.put("b", other);
        ASSERT_EQ(shard_reg.info("m").shards, 3);
        ASSERT_EQ(shard_reg.rows("m"), 220);

        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session plain(plain_reg, opts);
        serve::Session shrd(shard_reg, opts);

        // SpMV (several operands).
        for (Index seed = 0; seed < 3; ++seed) {
            const std::vector<Value> x = dyadicOperand(220, seed);
            const std::vector<Value> want =
                plain.submit(serve::SpmvRequest{"m", x}).get().value();
            const std::vector<Value> got =
                shrd.submit(serve::SpmvRequest{"m", x}).get().value();
            ASSERT_EQ(got.size(), want.size());
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(Value)),
                      0)
                << "seed " << seed << " threads " << threads;
        }

        // SpMM.
        fmt::DenseMatrix blk(220, 4);
        for (Index j = 0; j < 220; ++j)
            for (Index c = 0; c < 4; ++c)
                blk.at(j, c) = Value(1) +
                    Value((j + c * 5) % 12) * Value(0.0625);
        const fmt::DenseMatrix want_mm =
            plain.submit(serve::SpmmRequest{"m", blk}).get().value();
        const fmt::DenseMatrix got_mm =
            shrd.submit(serve::SpmmRequest{"m", blk}).get().value();
        ASSERT_EQ(std::memcmp(got_mm.data().data(),
                              want_mm.data().data(),
                              got_mm.data().size() * sizeof(Value)),
                  0)
            << "threads " << threads;

        // SpAdd ("m" + "b"), sharded primary operand.
        const fmt::CooMatrix want_add =
            plain.submit(serve::SpaddRequest{"m", "b"}).get().value();
        const fmt::CooMatrix got_add =
            shrd.submit(serve::SpaddRequest{"m", "b"}).get().value();
        ASSERT_EQ(got_add.nnz(), want_add.nnz());
        for (Index i = 0; i < got_add.nnz(); ++i) {
            const fmt::CooEntry& ge =
                got_add.entries()[static_cast<std::size_t>(i)];
            const fmt::CooEntry& ee =
                want_add.entries()[static_cast<std::size_t>(i)];
            ASSERT_EQ(ge.row, ee.row);
            ASSERT_EQ(ge.col, ee.col);
            ASSERT_EQ(ge.value, ee.value);
        }
        plain.drain();
        shrd.drain();
    }
}

TEST(Shard, RegisterShardedK1MatchesPut)
{
    const fmt::CooMatrix coo = scatteredMatrix(128, 128);
    serve::MatrixRegistry plain_reg;
    const eng::Format pf = plain_reg.put("m", coo);
    serve::MatrixRegistry shard_reg;
    const eng::Format sf = shard_reg.registerSharded("m", coo, 1);
    EXPECT_EQ(sf, pf); // one band sees the whole-matrix profile
    EXPECT_EQ(shard_reg.info("m").shards, 1);

    // put() registers the same 1-shard stack.
    const std::shared_ptr<shard::ShardedMatrix> stack =
        plain_reg.sharded("m");
    ASSERT_TRUE(stack);
    EXPECT_EQ(stack->shardCount(), 1);
    EXPECT_EQ(plain_reg.info("m").shards, 1);

    const std::vector<Value> x = dyadicOperand(128, 7);
    serve::Session plain(plain_reg);
    serve::Session shrd(shard_reg);
    const std::vector<Value> want =
        plain.submit(serve::SpmvRequest{"m", x}).get().value();
    const std::vector<Value> got =
        shrd.submit(serve::SpmvRequest{"m", x}).get().value();
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(Value)),
              0);

    // encoded() is the stack's own encoding, not a second copy, and
    // a served SpMV and SpMM convert exactly once between them.
    fmt::DenseMatrix blk(128, 3);
    for (Index j = 0; j < 128; ++j)
        for (Index c = 0; c < 3; ++c)
            blk.at(j, c) = Value(1) + Value((j + c) % 8) * Value(0.125);
    ASSERT_TRUE(plain.submit(serve::SpmmRequest{"m", blk}).get().ok());
    const serve::MatrixRegistry::EncodingPtr enc = plain_reg.encoded("m");
    EXPECT_EQ(enc.get(), stack->shardEncoding(0).get());
    EXPECT_EQ(plain_reg.conversions("m"), 1u);

    // Served answers equal a direct engine call on that encoding.
    std::vector<Value> direct(128, Value(0));
    sim::NativeExec ne;
    eng::spmv(enc->ref(), x, direct, ne);
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(plain_reg, opts);
        const std::vector<Value> served =
            session.submit(serve::SpmvRequest{"m", x}).get().value();
        ASSERT_EQ(served.size(), direct.size());
        EXPECT_EQ(std::memcmp(served.data(), direct.data(),
                              served.size() * sizeof(Value)),
                  0)
            << "threads " << threads;
    }
    EXPECT_EQ(plain_reg.conversions("m"), 1u);
}

TEST(Shard, FailedShardBuildFailsTheRequestNotTheProcess)
{
    // A SMASH hierarchy ratio below 2 makes every kSmash build
    // throw. Below the probe floor the rules decide alone, so the
    // K=2 registration builds nothing; the first request's prepare
    // hop hits the throw on the shards' pinned build threads. The
    // request fails kInternal and the session keeps serving.
    eng::SparseMatrixAny::BuildOptions broken;
    broken.smashHierarchy = {1};
    serve::MatrixRegistry registry;
    ASSERT_EQ(registry.registerSharded("broken", clusteredMatrix(64, 256),
                                       2, broken),
              eng::Format::kSmash);
    registry.put("fine", scatteredMatrix(64, 64));
    serve::Session session(registry);
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_EQ(session
                      .submit(serve::SpmvRequest{"broken",
                                                 dyadicOperand(256, 1)})
                      .get()
                      .status()
                      .code(),
                  serve::StatusCode::kInternal)
            << "attempt " << attempt;
    // No shard encoding was built.
    EXPECT_EQ(registry.sharded("broken")->conversions(), 0u);
    EXPECT_TRUE(
        session.submit(serve::SpmvRequest{"fine", dyadicOperand(64, 1)})
            .get()
            .ok());

    // Above the probe floor each shard's probe builds a kSmash band
    // on its pinned slicing thread: the registration throws instead.
    const fmt::CooMatrix large = clusteredMatrix(4800, 256);
    ASSERT_GT(large.nnz() / 2, eng::kProbeSampleNnz);
    EXPECT_THROW(registry.registerSharded("broken_probe", large, 2,
                                          broken),
                 FatalError);
    EXPECT_FALSE(registry.contains("broken_probe"));
}

TEST(Shard, ReencodeCountersAreLabelledPerMatrix)
{
    // Drift shard 0 of two matrices to DIA (hook-less registry, so
    // the re-encodes run inline): each lands in its own
    // smash_shard_reencodes_total{matrix,shard} series.
    const Index n = 192;
    const char* names[] = {"reencode_a", "reencode_b"};
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    auto series = [&](const char* name) -> obs::Counter& {
        return metrics.counter(
            std::string("smash_shard_reencodes_total{matrix=\"") +
            name + "\",shard=\"0\"}");
    };
    serve::MatrixRegistry registry;
    for (const char* name : names) {
        registry.registerSharded(name, scatteredMatrix(n, n), 2);
        ASSERT_NE(registry.format(name), eng::Format::kDia);
    }
    std::uint64_t before[2];
    for (int i = 0; i < 2; ++i)
        before[i] = series(names[i]).value();
    for (const char* name : names) {
        const shard::ShardInfo band = registry.sharded(name)->shardInfo(0);
        std::vector<Index> rows;
        fmt::CooMatrix repl(n, n);
        for (Index r = band.rowBegin; r < band.rowEnd; ++r) {
            rows.push_back(r);
            repl.add(r, r, Value(2));
        }
        repl.canonicalize();
        ASSERT_TRUE(registry.replaceRows(name, rows, repl)
                        .reencodeScheduled)
            << name;
        EXPECT_EQ(registry.format(name), eng::Format::kDia) << name;
    }
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(series(names[i]).value(), before[i] + 1) << names[i];
    std::ostringstream text;
    metrics.exportText(text);
    for (const char* name : names)
        EXPECT_NE(text.str().find(std::string("smash_shard_reencodes_total{"
                                        "matrix=\"") +
                            name + "\",shard=\"0\"}"),
                  std::string::npos)
            << name;
}

TEST(Shard, DivergentPerShardReselection)
{
    // Two bands start on the same (non-DIA) format; replacing every
    // shard-0 row with a constant-offset diagonal entry drives that
    // band decisively to DIA while shard 1 never runs its detector.
    // The re-encode must be per-shard: shard 1's encoding survives
    // untouched (conversions stay at 1) and its reselect count at 0.
    const Index n = 192;
    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        registry.registerSharded("split", scatteredMatrix(n, n), 2);
        const std::shared_ptr<shard::ShardedMatrix> sm =
            registry.sharded("split");
        ASSERT_TRUE(sm);
        ASSERT_EQ(sm->shardCount(), 2);
        const shard::ShardInfo before0 = sm->shardInfo(0);
        const shard::ShardInfo before1 = sm->shardInfo(1);
        ASSERT_EQ(before0.chosen, before1.chosen);
        ASSERT_NE(before0.chosen, eng::Format::kDia);

        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);
        // Warm every shard encoding through a served request.
        ASSERT_TRUE(session
                        .submit(serve::SpmvRequest{
                            "split", dyadicOperand(n, 0)})
                        .get()
                        .ok());

        // One diagonal entry per shard-0 row: the band's local
        // profile collapses to a single fully-filled diagonal.
        std::vector<Index> rows;
        fmt::CooMatrix repl(n, n);
        for (Index r = before0.rowBegin; r < before0.rowEnd; ++r) {
            rows.push_back(r);
            repl.add(r, r, Value(2) + Value(r % 4) * Value(0.25));
        }
        repl.canonicalize();
        const serve::UpdateOutcome out =
            session.replaceRows("split", rows, repl);
        ASSERT_TRUE(out.reencodeScheduled)
            << "threads " << threads;
        EXPECT_EQ(out.target, eng::Format::kDia);

        ASSERT_TRUE(waitReencodeSettled(registry, "split"));
        session.drain();

        const shard::ShardInfo after0 = sm->shardInfo(0);
        const shard::ShardInfo after1 = sm->shardInfo(1);
        EXPECT_EQ(after0.chosen, eng::Format::kDia);
        EXPECT_EQ(after1.chosen, before1.chosen);
        EXPECT_NE(after0.chosen, after1.chosen)
            << "bands did not diverge (threads " << threads << ")";
        EXPECT_EQ(after0.reselects, 1u);
        EXPECT_EQ(after1.reselects, 0u);
        // Per-shard re-encode: shard 1's encoding was never rebuilt.
        EXPECT_EQ(after0.conversions, 2u);
        EXPECT_EQ(after1.conversions, 1u);
        // The async hook (not the inline fallback) ran it.
        EXPECT_EQ(session.stats().reencodes.load(), 1u);
        // info() surfaces the divergence: two distinct formats.
        const serve::MatrixInfo info = registry.info("split");
        EXPECT_EQ(info.cached.size(), 2u);
        EXPECT_EQ(info.shards, 2);

        // Served content reflects the mutation, bit-identically to
        // an unsharded oracle of the same master.
        serve::MatrixRegistry oracle_reg;
        oracle_reg.put("o", sm->toCsr().toCoo());
        serve::Session oracle(oracle_reg, opts);
        const std::vector<Value> x = dyadicOperand(n, 3);
        const std::vector<Value> want =
            oracle.submit(serve::SpmvRequest{"o", x}).get().value();
        const std::vector<Value> got =
            session.submit(serve::SpmvRequest{"split", x})
                .get()
                .value();
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(Value)),
                  0)
            << "threads " << threads;
    }
}

TEST(Shard, ConcurrentSubmitsAndMutationsStayCoherent)
{
    // TSan fodder: hammer a sharded entry with SpMV submits from
    // several clients while another thread streams value-only
    // mutations (scaleValues never changes structure, so every
    // result is *some* consistent epoch's content — the invariant
    // here is no data race and no failed request, not a fixed
    // oracle).
    const Index n = 160;
    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        registry.registerSharded("hot", scatteredMatrix(n, n), 3);
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        std::atomic<bool> stop{false};
        std::thread mutator([&] {
            while (!stop.load()) {
                registry.scaleValues("hot", Value(2));
                registry.scaleValues("hot", Value(0.5));
            }
        });
        constexpr int kClients = 3;
        constexpr int kPerClient = 16;
        std::vector<std::thread> clients;
        std::atomic<int> failures{0};
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                for (int i = 0; i < kPerClient; ++i) {
                    const serve::Result<std::vector<Value>> r =
                        session
                            .submit(serve::SpmvRequest{
                                "hot", dyadicOperand(n, c + i)})
                            .get();
                    if (!r.ok())
                        failures.fetch_add(1);
                }
            });
        for (std::thread& c : clients)
            c.join();
        stop.store(true);
        mutator.join();
        session.drain();
        EXPECT_EQ(failures.load(), 0) << "threads " << threads;
    }
}

} // namespace
} // namespace smash
