/**
 * @file
 * Observability layer tests: MetricsRegistry under concurrent
 * get-or-create + increment hammering, the documented
 * Histogram::percentile edge semantics, per-request span stage
 * accounting through a live serve::Session, trace ring-buffer
 * wraparound, JSON validity of a dumped trace, and the
 * zero-allocation property of the warmed *instrumented* SpMV path
 * (the same global operator new override idiom as test_perf_paths —
 * instrumentation must not cost the steady state its no-heap
 * contract).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/dispatch.hh"
#include "formats/convert.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/session.hh"
#include "workloads/matrix_gen.hh"

namespace smash
{
namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

/** Allocations observed (on any thread) while fn() ran. */
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
} // namespace smash

// Counting overrides (outside any namespace, whole-binary scope).
void*
operator new(std::size_t size)
{
    if (smash::g_counting.load(std::memory_order_acquire))
        smash::g_allocs.fetch_add(1, std::memory_order_relaxed);
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

TEST(MetricsRegistry, ConcurrentGetOrCreateAndIncrement)
{
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    constexpr int kThreads = 8;
    constexpr int kIncsPerThread = 10000;
    // Every thread resolves the same names (racing get-or-create)
    // and also a name of its own, then hammers both.
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, t] {
            obs::Counter& shared =
                reg.counter("test_obs_shared_total");
            obs::Counter& own = reg.counter(
                "test_obs_own_total{t=\"" + std::to_string(t) +
                "\"}");
            obs::Histogram& h =
                reg.histogram("test_obs_shared_hist");
            for (int i = 0; i < kIncsPerThread; ++i) {
                shared.inc();
                own.inc();
                h.record(static_cast<std::uint64_t>(i % 1024));
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    EXPECT_EQ(reg.counterValue("test_obs_shared_total"),
              static_cast<std::uint64_t>(kThreads * kIncsPerThread));
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(reg.counterValue("test_obs_own_total{t=\"" +
                                   std::to_string(t) + "\"}"),
                  static_cast<std::uint64_t>(kIncsPerThread));
    EXPECT_EQ(reg.histogram("test_obs_shared_hist").count(),
              static_cast<std::uint64_t>(kThreads * kIncsPerThread));

    // The exposition renders without tearing and groups the labeled
    // family under a single # TYPE line.
    std::ostringstream os;
    reg.exportText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE test_obs_shared_total counter"),
              std::string::npos);
    const std::size_t first =
        text.find("# TYPE test_obs_own_total counter");
    EXPECT_NE(first, std::string::npos);
    EXPECT_EQ(first, text.rfind("# TYPE test_obs_own_total counter"));
    EXPECT_NE(text.find("test_obs_shared_hist_bucket{le=\"+Inf\"}"),
              std::string::npos);
}

TEST(Histogram, PercentileEdgeSemantics)
{
    // Empty histogram: exactly 0 at any quantile.
    obs::Histogram empty;
    EXPECT_EQ(empty.percentile(0.0), 0.0);
    EXPECT_EQ(empty.percentile(0.5), 0.0);
    EXPECT_EQ(empty.percentile(1.0), 0.0);

    // Bucket 0 (value 0) reports the sub-unit placeholder 0.5.
    obs::Histogram zeros;
    zeros.record(0);
    zeros.record(0);
    EXPECT_EQ(zeros.percentile(0.5), 0.5);

    // Middle buckets report the geometric midpoint 1.5 * 2^(i-1):
    // value 6 lands in bucket 3 = [4, 8) -> 6.0.
    obs::Histogram mid;
    mid.record(6);
    EXPECT_EQ(mid.percentile(0.5), 6.0);

    // The open-ended top bucket reports its lower bound, never a
    // midpoint of an unbounded range.
    obs::Histogram top;
    top.record(~std::uint64_t(0)); // clamps into the last bucket
    const double expect_lower =
        static_cast<double>(std::uint64_t(1)
                            << (obs::Histogram::kBuckets - 2));
    EXPECT_EQ(top.percentile(0.99), expect_lower);

    // Quantiles are nearest-rank at index floor(q * (n - 1)): with
    // 3 small and 1 large value the median stays small and only the
    // max (q = 1) reaches the large bucket's midpoint.
    obs::Histogram mix;
    mix.record(3);
    mix.record(3);
    mix.record(3);
    mix.record(1000);
    EXPECT_EQ(mix.percentile(0.5), 3.0);
    EXPECT_EQ(mix.percentile(1.0), 768.0); // [512,1024) midpoint
}

TEST(Spans, StageAccountingThroughSession)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genUniform(256, 256, 2048, 7));
    serve::SessionOptions opts;
    opts.threads = 2;
    serve::Session session(registry, opts);

    constexpr Index kRequests = 24;
    std::vector<Value> x(256, Value(1));
    std::vector<std::future<serve::Result<std::vector<Value>>>> fs;
    for (Index r = 0; r < kRequests; ++r)
        fs.push_back(session.submit(serve::SpmvRequest{"m", x}));
    for (auto& f : fs)
        EXPECT_TRUE(f.get().ok());
    session.drain();

    // Every delivered request contributes one span per stage, and
    // the stamps are monotonic, so no stage can record a negative
    // (wrapped) latency — percentiles stay finite and ordered.
    const serve::PipelineStats& stats = session.stats();
    for (std::size_t s = 0; s < serve::kNumPipelineStages; ++s) {
        const auto stage = static_cast<serve::PipelineStage>(s);
        const obs::Histogram& h = stats.stage(stage);
        EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kRequests))
            << serve::toString(stage);
        EXPECT_GE(h.percentile(0.99), h.percentile(0.5))
            << serve::toString(stage);
    }
    // The queue/compute split exactly partitions the per-stage
    // sums, and 24 request lifetimes cannot be all-zero.
    const std::uint64_t stage_total =
        stats.queueUs() + stats.computeUs();
    std::uint64_t by_stage = 0;
    for (std::size_t s = 0; s < serve::kNumPipelineStages; ++s)
        by_stage +=
            stats.stage(static_cast<serve::PipelineStage>(s)).sum();
    EXPECT_EQ(stage_total, by_stage);
    EXPECT_GT(stage_total, 0u);
}

TEST(TraceRing, WraparoundKeepsNewestEvents)
{
    obs::TraceCollector& tc = obs::TraceCollector::global();
    const bool was_on = obs::traceEnabled();
    obs::setTraceEnabled(true);
    tc.clear();

    const std::size_t total = obs::TraceCollector::kRingCapacity + 512;
    const std::uint64_t before_retained = tc.retained();
    // kPlanCacheMiss args carry a0 verbatim ({"kind": i}), so the
    // dump reveals which window of the sequence survived the wrap.
    for (std::size_t i = 0; i < total; ++i)
        obs::record(obs::EventKind::kPlanCacheMiss,
                    static_cast<std::uint32_t>(i));
    obs::setTraceEnabled(was_on);

    // This thread's ring wrapped: it retains exactly kRingCapacity
    // events and reports the overwritten prefix as dropped.
    EXPECT_EQ(tc.retained() - before_retained,
              obs::TraceCollector::kRingCapacity);
    EXPECT_GE(tc.dropped(), static_cast<std::uint64_t>(512));

    // The retained window is the *newest* events: the dump carries
    // the last argument value but not the first.
    std::ostringstream os;
    tc.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("{\"kind\": " + std::to_string(total - 1)),
              std::string::npos);
    EXPECT_EQ(json.find("{\"kind\": 0}"), std::string::npos);
    tc.clear();
    EXPECT_EQ(tc.retained(), 0u);
}

TEST(TraceDump, ProducesValidJson)
{
    obs::TraceCollector& tc = obs::TraceCollector::global();
    const bool was_on = obs::traceEnabled();
    obs::setTraceEnabled(true);
    tc.clear();

    // One event of every kind, spans included, so the dump
    // exercises every writeArgs branch.
    obs::record(obs::EventKind::kPoolChunk, 3, 1);
    obs::record(obs::EventKind::kPipelineDeliver, 1);
    obs::record(obs::EventKind::kDispatch, 1, 2, 2);
    obs::record(obs::EventKind::kPlanCacheHit, 0);
    obs::record(obs::EventKind::kPlanCacheMiss, 3);
    obs::record(obs::EventKind::kShardReencode, 7);
    const std::uint64_t t0 = obs::traceNowNs();
    obs::recordSpan(obs::EventKind::kPoolBatch, t0, 16, 4096);
    obs::recordSpan(obs::EventKind::kPoolTask, t0);
    obs::recordSpan(obs::EventKind::kPipelinePrepare, t0, 0);
    obs::recordSpan(obs::EventKind::kPipelineCompute, t0, 0);
    obs::setTraceEnabled(was_on);

    std::ostringstream os;
    tc.dumpJson(os);
    const std::string json = os.str();
    std::string error;
    EXPECT_TRUE(obs::validateJson(json, error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"pool\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"plan_cache\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    tc.clear();

    // The validator itself rejects what it should.
    EXPECT_FALSE(obs::validateJson("{\"a\": }", error));
    EXPECT_FALSE(obs::validateJson("[1, 2", error));
    EXPECT_FALSE(obs::validateJson("{} trailing", error));
    EXPECT_FALSE(obs::validateJson("\"unterminated", error));
    EXPECT_TRUE(obs::validateJson(
        "{\"a\": [1, 2.5, -3e2, \"s\\u00e9\", true, null]}", error));
}

TEST(TraceDump, WireEventsCarryNamedArgs)
{
    obs::TraceCollector& tc = obs::TraceCollector::global();
    const bool was_on = obs::traceEnabled();
    obs::setTraceEnabled(true);
    tc.clear();
    obs::record(obs::EventKind::kNetFrameRx, 1, 4321);
    obs::record(obs::EventKind::kNetFrameTx, 2, 8765);
    obs::record(obs::EventKind::kNetConn, 1, 3);
    obs::setTraceEnabled(was_on);

    std::ostringstream os;
    tc.dumpJson(os);
    const std::string json = os.str();
    std::string error;
    EXPECT_TRUE(obs::validateJson(json, error)) << error;
    EXPECT_NE(json.find("{\"op\": 1, \"bytes\": 4321}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"op\": 2, \"bytes\": 8765}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"open\": 1, \"transport\": 3}"),
              std::string::npos)
        << json;
    tc.clear();
}

TEST(ZeroAlloc, WarmedInstrumentedSpmvPathsStayHeapFree)
{
    eng::SparseMatrixAny m(
        fmt::CsrMatrix::fromCoo(wl::genUniform(512, 512, 4096, 11)));
    std::vector<Value> x(512, Value(1));
    std::vector<Value> y(512, Value(0));

    // Tracing ON: the ring registration and metric statics resolve
    // during the warm call; after that, recording an event is a
    // 32-byte store into the pre-allocated ring — no heap.
    const bool was_on = obs::traceEnabled();
    obs::setTraceEnabled(true);
    sim::NativeExec ne;
    eng::spmv(m.ref(), x, y, ne); // warm: statics + this ring
    const std::uint64_t with_trace = allocationsDuring([&] {
        for (int i = 0; i < 16; ++i)
            eng::spmv(m.ref(), x, y, ne);
    });
    EXPECT_EQ(with_trace, 0u)
        << "warmed instrumented serial SpMV must not allocate "
           "with tracing on";

    obs::setTraceEnabled(false);
    const std::uint64_t without_trace = allocationsDuring([&] {
        for (int i = 0; i < 16; ++i)
            eng::spmv(m.ref(), x, y, ne);
    });
    EXPECT_EQ(without_trace, 0u)
        << "warmed instrumented serial SpMV must not allocate "
           "with tracing off";
    obs::setTraceEnabled(was_on);
    obs::TraceCollector::global().clear();
}

} // namespace
} // namespace smash
