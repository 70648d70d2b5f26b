#include "serve/pipeline.hh"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "engine/dispatch.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/shed.hh"

namespace smash::serve
{

namespace
{

/** The registry's per-stage latency series (one histogram per
 *  PipelineStage, resolved once). */
obs::Histogram&
globalStageHistogram(PipelineStage s)
{
    static obs::Histogram* by_stage[kNumPipelineStages] = {
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"admit\"}"),
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"queue\"}"),
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"prepare\"}"),
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"compute\"}"),
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"deliver\"}"),
    };
    return *by_stage[static_cast<std::size_t>(s)];
}

/** Stage stamps can be unset (default time_point) on requests that
 *  fail mid-pipeline; clamp the interval to zero then. */
std::uint64_t
stageUs(Request::Clock::time_point from, Request::Clock::time_point to)
{
    if (from == Request::Clock::time_point{} || to < from)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to -
                                                              from)
            .count());
}

} // namespace

Pipeline::Pipeline(MatrixRegistry& registry, exec::ThreadPool& pool,
                   OverloadShedder* shedder)
    : registry_(registry), pool_(pool), shedder_(shedder)
{}

Pipeline::~Pipeline()
{
    drain();
}

void
Pipeline::post(Request request)
{
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queues_[static_cast<std::size_t>(request.options.priority)]
            .push_back(std::move(request));
        ++inflight_;
    }
    // One task per push: whichever task starts first takes the most
    // urgent request queued by then.
    if (!pool_.tryPost([this] { runNext(); }))
        runNext();
}

void
Pipeline::postReencode(const std::string& matrix)
{
    stats_.reencodes.fetch_add(1, std::memory_order_relaxed);
    // Capture the registry, not `this`: the task is not counted as
    // in-flight, so it may still sit in the pool's queue while the
    // owning Session destroys this pipeline — the registry is the
    // one party guaranteed to outlive the pool's drain-before-join.
    MatrixRegistry& registry = registry_;
    const bool posted = pool_.tryPost(
        [&registry, matrix] { registry.runReencode(matrix); });
    if (!posted)
        registry.runReencode(matrix);
}

void
Pipeline::runNext()
{
    Request request = [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        auto* queue = std::find_if(
            std::begin(queues_), std::end(queues_),
            [](const std::deque<Request>& q) { return !q.empty(); });
        SMASH_CHECK(queue != std::end(queues_),
                    "pipeline task found no queued request");
        Request front = std::move(queue->front());
        queue->pop_front();
        return front;
    }();
    request.started = Request::Clock::now();
    // Deadline gate: a request whose budget ran out while it was
    // queued resolves to kDeadlineExceeded instead of computing —
    // at overload, work the client has given up on is shed here.
    if (request.expiry <= request.started) {
        stats_.expired.fetch_add(1, std::memory_order_relaxed);
        failOne(request, Status(StatusCode::kDeadlineExceeded,
                                "deadline passed before compute"));
        return;
    }
    try {
        run(request);
    } catch (const std::exception& ex) {
        if (!request.resolved)
            failOne(request, Status(StatusCode::kInternal, ex.what()));
    } catch (...) {
        // A non-std exception must still resolve the request and
        // the accounting, or drain() hangs forever.
        if (!request.resolved)
            failOne(request, Status(StatusCode::kInternal,
                                    "unknown serving failure"));
    }
}

void
Pipeline::run(Request& request)
{
    const auto op = static_cast<std::uint32_t>(request.op());
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    // Prepare: SpMV and SpMM compute on the matrix stack, which
    // pins each shard's encoding epoch for the whole compute (a
    // concurrent mutation or drift re-encode swaps the shard
    // without pulling the matrix out from under us); SpAdd merges
    // the CSR views of both operands.
    std::shared_ptr<shard::ShardedMatrix> stack;
    MatrixRegistry::EncodingPtr a, b;
    if (const auto* w = std::get_if<SpaddWork>(&request.work)) {
        a = registry_.encodedAs(request.matrix, eng::Format::kCsr);
        b = registry_.encodedAs(w->other, eng::Format::kCsr);
    } else {
        stack = registry_.sharded(request.matrix);
        stack->ensureEncoded();
    }
    request.prepared = Request::Clock::now();
    SMASH_TRACE_SPAN(obs::EventKind::kPipelinePrepare, t0, op);

    const std::uint64_t t1 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    const auto computed = [&](auto& work, auto value) {
        request.computed = Request::Clock::now();
        stats_.batches.fetch_add(1, std::memory_order_relaxed);
        SMASH_TRACE_SPAN(obs::EventKind::kPipelineCompute, t1, op);
        deliver(request, work, std::move(value));
    };
    if (auto* w = std::get_if<SpmvWork>(&request.work)) {
        std::vector<Value> y(static_cast<std::size_t>(stack->rows()),
                             Value(0));
        stack->spmv(w->x, y, nullptr);
        computed(*w, std::move(y));
    } else if (auto* w = std::get_if<SpmmWork>(&request.work)) {
        fmt::DenseMatrix c(stack->rows(), w->b.cols());
        stack->spmvBatch(w->b, c, nullptr);
        computed(*w, std::move(c));
    } else {
        sim::NativeExec ne;
        computed(std::get<SpaddWork>(request.work),
                 eng::spadd(a->ref(), b->ref(), ne).as<fmt::CooMatrix>());
    }
}

void
Pipeline::failOne(Request& request, const Status& status)
{
    request.resolved = true;
    SMASH_TRACE_EVENT(obs::EventKind::kPipelineDeliver, 0);
    request.fail(status);
    finish(false);
}

void
Pipeline::recordStages(const Request& request,
                       Request::Clock::time_point delivered)
{
    const struct
    {
        PipelineStage stage;
        Request::Clock::time_point from;
        Request::Clock::time_point to;
    } spans[] = {
        {PipelineStage::kAdmit, request.submitted, request.admitted},
        {PipelineStage::kQueue, request.admitted, request.started},
        {PipelineStage::kPrepare, request.started, request.prepared},
        {PipelineStage::kCompute, request.prepared, request.computed},
        {PipelineStage::kDeliver, request.computed, delivered},
    };
    for (const auto& s : spans) {
        const std::uint64_t us = stageUs(s.from, s.to);
        stats_.stageLatency[static_cast<std::size_t>(s.stage)].record(
            us);
        globalStageHistogram(s.stage).record(us);
    }
}

template <typename T, typename Work>
void
Pipeline::deliver(Request& request, Work& work, T value)
{
    request.resolved = true;
    const Request::Clock::time_point now = Request::Clock::now();
    stats_
        .latencyByPriority[static_cast<std::size_t>(
            request.options.priority)]
        .record(stageUs(request.submitted, now));
    recordStages(request, now);
    // The queue-side span (submit → task start) is the degradation
    // ladder's latency signal: it grows under pressure well before
    // compute time does.
    if (shedder_)
        shedder_->noteQueueLatency(
            stageUs(request.submitted, request.started));
    SMASH_TRACE_EVENT(obs::EventKind::kPipelineDeliver, 1);
    work.done.resolve(Result<T>(std::move(value)));
    // Release the admission slot only after the completion resolved
    // (promise satisfied or callback returned), and before finish():
    // the session may tear its gate down the instant the in-flight
    // count reaches zero, so the ticket must not outlive that
    // accounting — and a completion callback must never still be
    // running once Session::close() observes an empty gate.
    request.ticket.reset();
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    finish(true);
}

void
Pipeline::finish(bool ok)
{
    static obs::Counter& completed =
        obs::MetricsRegistry::global().counter(
            "smash_pipeline_requests_total{result=\"completed\"}");
    static obs::Counter& failed =
        obs::MetricsRegistry::global().counter(
            "smash_pipeline_requests_total{result=\"failed\"}");
    (ok ? completed : failed).inc();
    if (!ok)
        stats_.failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    SMASH_CHECK(inflight_ > 0, "pipeline accounting underflow");
    // Notify under the lock: a drain that sees zero may destroy the
    // pipeline the moment it reacquires mutex_, so nothing of it
    // may be touched after this critical section.
    if (--inflight_ == 0)
        idle_.notify_all();
}

void
Pipeline::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return inflight_ == 0; });
}

} // namespace smash::serve
