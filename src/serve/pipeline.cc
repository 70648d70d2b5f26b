#include "serve/pipeline.hh"

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

/** Relaxed atomic max (for the widest-batch stat). */
void
storeMax(std::atomic<std::uint64_t>& stat, std::uint64_t v)
{
    std::uint64_t prev = stat.load(std::memory_order_relaxed);
    while (prev < v && !stat.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
}

/** The registry's per-stage latency series (one histogram per
 *  PipelineStage, resolved once). */
obs::Histogram&
globalStageHistogram(PipelineStage s)
{
    static obs::Histogram* by_stage[kNumPipelineStages] = {
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"admit\"}"),
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"prepare\"}"),
        &obs::MetricsRegistry::global().histogram(
            "smash_pipeline_stage_latency_us{stage=\"batch_wait\"}"),
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
Pipeline::postPrepare(const QueueKey& key, Request request,
                      Batcher& batcher)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++inflight_;
    }
    stats_.submitted.fetch_add(1, std::memory_order_relaxed);

    // Steady-state fast path: when every encoding the op needs is
    // already cached there is nothing for a prepare task to do —
    // hand the request to the batcher inline. Besides saving one
    // pool hop per request, this keeps same-queue requests in
    // submission order (async prepare tasks race on the workers, so
    // a later kHigh arrival could otherwise flush ahead of an
    // earlier kBatch request still in stage 1).
    if (resolveEncodings(key, request, /*cached_only=*/true)) {
        request.prepared = Request::Clock::now();
        SMASH_TRACE_EVENT(obs::EventKind::kPipelinePrepare,
                          static_cast<std::uint32_t>(key.op),
                          /*cached=*/1);
        // On a throw the promise may already have moved on (enqueue
        // takes the request by value, so e.g. a flush that failed
        // mid-hand-off leaves it stateless); failOne tolerates that.
        try {
            batcher.enqueue(key, std::move(request));
            noteProgress();
        } catch (const std::exception& ex) {
            failOne(request, Status(StatusCode::kInternal, ex.what()));
        } catch (...) {
            failOne(request, Status(StatusCode::kInternal,
                                    "unknown prepare failure"));
        }
        return;
    }

    // shared_ptr: promises are move-only but the pool's task type
    // (std::function) requires copyable callables.
    auto req = std::make_shared<Request>(std::move(request));
    {
        // The task counts as in flight until its noteProgress()
        // returns: the hand-off lets the request complete, and
        // drain() must not let the pipeline die under the task.
        std::lock_guard<std::mutex> lock(mutex_);
        ++inflight_;
    }
    pool_.post([this, key, req, &batcher] {
        try {
            // Encode/convert stage: first touch converts, later
            // touches return the cached encoding immediately. SpAdd
            // computes on the CSR masters of both operands.
            const std::uint64_t t0 =
                obs::traceEnabled() ? obs::traceNowNs() : 0;
            resolveEncodings(key, *req, /*cached_only=*/false);
            req->prepared = Request::Clock::now();
            SMASH_TRACE_SPAN(obs::EventKind::kPipelinePrepare, t0,
                             static_cast<std::uint32_t>(key.op),
                             /*cached=*/0);
            batcher.enqueue(key, std::move(*req));
            // After the hand-off: a drain waiting for the batcher
            // to hold everything in flight can flush it now.
            noteProgress();
        } catch (const std::exception& ex) {
            failOne(*req, Status(StatusCode::kInternal, ex.what()));
        } catch (...) {
            // A non-std exception must still resolve the promise
            // and the accounting, or drain() hangs forever.
            failOne(*req, Status(StatusCode::kInternal,
                                 "unknown prepare failure"));
        }
        leave(1);
    });
}

bool
Pipeline::resolveEncodings(const QueueKey& key,
                           const Request& request, bool cached_only)
{
    switch (key.op) {
      case OpClass::kSpmv:
      case OpClass::kSpmm: {
        // Ready when every shard's encoding is built.
        const auto stack = registry_.sharded(key.matrix);
        if (cached_only)
            return stack->allEncoded();
        stack->ensureEncoded();
        return true;
      }
      case OpClass::kSpadd: {
        // SpAdd merges the CSR views of both operands.
        const std::string& other =
            std::get<SpaddWork>(request.work).other;
        if (cached_only)
            return registry_.encodedAsIfCached(key.matrix,
                                               eng::Format::kCsr) &&
                registry_.encodedAsIfCached(other, eng::Format::kCsr);
        registry_.encodedAs(key.matrix, eng::Format::kCsr);
        registry_.encodedAs(other, eng::Format::kCsr);
        return true;
      }
    }
    SMASH_PANIC("unknown op class");
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
Pipeline::postCompute(const QueueKey& key, std::vector<Request> batch,
                      Batcher& batcher)
{
    // The batch-wait stage ends here, when the flush hands the
    // batch to the compute stage (not when the task gets a worker —
    // queueing for a worker is part of the compute stage's cost).
    const Request::Clock::time_point now = Request::Clock::now();
    for (Request& r : batch)
        r.flushed = now;
    auto shared =
        std::make_shared<std::vector<Request>>(std::move(batch));
    {
        // The task counts as in flight until its computeEnded()
        // returns: drain() must not let the batcher die under it.
        std::lock_guard<std::mutex> lock(mutex_);
        ++inflight_;
    }
    pool_.post([this, key, shared, &batcher] {
        try {
            computeBatch(key, *shared);
        } catch (const std::exception& ex) {
            failRemaining(*shared,
                          Status(StatusCode::kInternal, ex.what()));
        } catch (...) {
            failRemaining(*shared, Status(StatusCode::kInternal,
                                          "unknown compute failure"));
        }
        // The compute slot frees as the task ends; held kNormal
        // work flushes into it now instead of waiting out its cap.
        try {
            batcher.computeEnded();
        } catch (...) {
            leave(1);
            throw;
        }
        leave(1);
    });
}

void
Pipeline::failOne(Request& request, const Status& status)
{
    request.resolved = true;
    SMASH_TRACE_EVENT(obs::EventKind::kPipelineDeliver, 0);
    try {
        request.fail(status);
    } catch (...) {
        // A moved-from promise has no state; nothing to resolve.
    }
    finish(1, false);
}

void
Pipeline::failRemaining(std::vector<Request>& batch,
                        const Status& status)
{
    std::uint64_t n = 0;
    for (Request& r : batch) {
        if (r.resolved)
            continue;
        r.resolved = true;
        try {
            r.fail(status);
        } catch (...) {
            // A moved-from promise has no state; nothing to resolve.
        }
        ++n;
    }
    if (n > 0)
        finish(n, false);
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
        {PipelineStage::kPrepare, request.admitted, request.prepared},
        {PipelineStage::kBatchWait, request.prepared,
         request.flushed},
        {PipelineStage::kCompute, request.flushed, request.computed},
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
    // The queue-side span (submit → batch flush) is the degradation
    // ladder's latency signal: it grows under pressure well before
    // compute time does.
    if (shedder_)
        shedder_->noteQueueLatency(
            stageUs(request.submitted, request.flushed));
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
    finish(1, true);
}

void
Pipeline::computeBatch(const QueueKey& key,
                       std::vector<Request>& batch)
{
    // Deadline gate: a request whose budget ran out while it was
    // queued resolves to kDeadlineExceeded instead of computing —
    // at overload, work the client has given up on is shed here.
    const Request::Clock::time_point now = Request::Clock::now();
    std::uint64_t n_expired = 0;
    std::vector<Request> live;
    live.reserve(batch.size());
    for (Request& r : batch) {
        if (r.expiry <= now) {
            r.resolved = true;
            r.fail(Status(StatusCode::kDeadlineExceeded,
                          "deadline passed before compute"));
            ++n_expired;
        } else {
            live.push_back(std::move(r));
        }
    }
    if (n_expired > 0) {
        stats_.expired.fetch_add(n_expired, std::memory_order_relaxed);
        finish(n_expired, false);
    }
    if (live.empty())
        return;
    batch.swap(live);

    static obs::Counter& batches_total =
        obs::MetricsRegistry::global().counter(
            "smash_pipeline_batches_total");
    batches_total.inc();
    const auto width = static_cast<std::uint32_t>(batch.size());
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    switch (key.op) {
      case OpClass::kSpmv:
      case OpClass::kSpmm:
        computeBlock(key.matrix, batch);
        break;
      case OpClass::kSpadd:
        computeSpadd(key.matrix, batch);
        break;
      default:
        SMASH_PANIC("unknown op class");
    }
    SMASH_TRACE_SPAN(obs::EventKind::kPipelineCompute, t0,
                     static_cast<std::uint32_t>(key.op), width);
}

void
Pipeline::computeBlock(const std::string& matrix,
                       std::vector<Request>& batch)
{
    // The stack pins each shard's encoding epoch for the whole
    // compute: a concurrent mutation or drift re-encode swaps the
    // shard without pulling the matrix out from under us.
    const std::shared_ptr<shard::ShardedMatrix> stack =
        registry_.sharded(matrix);
    const Index rows = stack->rows();
    // Every request computes alone into its own result — spmv for
    // an SpMV, one spmv per column of B for an SpMM — so an answer
    // is bit-identical whatever company its request kept in the
    // batch.
    auto outs = std::make_shared<std::vector<fmt::DenseMatrix>>();
    outs->reserve(batch.size());
    for (const Request& r : batch) {
        if (const auto* w = std::get_if<SpmvWork>(&r.work)) {
            outs->emplace_back(rows, 1);
            stack->spmv(w->x, outs->back().data(), nullptr);
        } else {
            const fmt::DenseMatrix& b = std::get<SpmmWork>(r.work).b;
            outs->emplace_back(rows, b.cols());
            stack->spmvBatch(b, outs->back(), nullptr);
        }
    }
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    storeMax(stats_.widestBatch,
             static_cast<std::uint64_t>(batch.size()));
    const Request::Clock::time_point done = Request::Clock::now();
    for (Request& r : batch)
        r.computed = done;

    // Deliver stage: its own task, so this worker can pick up the
    // next batch while another thread fulfils the promises.
    auto shared =
        std::make_shared<std::vector<Request>>(std::move(batch));
    pool_.post([this, shared, outs] {
        for (std::size_t r = 0; r < outs->size(); ++r) {
            Request& req = (*shared)[r];
            fmt::DenseMatrix& out = (*outs)[r];
            if (auto* w = std::get_if<SpmvWork>(&req.work))
                deliver(req, *w, std::move(out.data()));
            else
                deliver(req, std::get<SpmmWork>(req.work),
                        std::move(out));
        }
    });
}

void
Pipeline::computeSpadd(const std::string& matrix,
                       std::vector<Request>& batch)
{
    // SpAdd requests do not coalesce into one kernel call; the
    // queue still gives them batching's scheduling benefits (one
    // task per flush, priority ordering). Each merge runs on the
    // CSR views of both operands and delivers inline — the result
    // is the payload, there is no block to scatter.
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    storeMax(stats_.widestBatch,
             static_cast<std::uint64_t>(batch.size()));
    for (Request& req : batch) {
        auto& w = std::get<SpaddWork>(req.work);
        try {
            const MatrixRegistry::EncodingPtr a =
                registry_.encodedAs(matrix, eng::Format::kCsr);
            const MatrixRegistry::EncodingPtr b =
                registry_.encodedAs(w.other, eng::Format::kCsr);
            sim::NativeExec ne;
            const eng::SparseMatrixAny sum =
                eng::spadd(a->ref(), b->ref(), ne);
            req.computed = Request::Clock::now();
            deliver(req, w, sum.as<fmt::CooMatrix>());
        } catch (const std::exception& ex) {
            failOne(req, Status(StatusCode::kInternal, ex.what()));
        }
    }
}

void
Pipeline::finish(std::uint64_t n, bool ok)
{
    static obs::Counter& completed =
        obs::MetricsRegistry::global().counter(
            "smash_pipeline_requests_total{result=\"completed\"}");
    static obs::Counter& failed =
        obs::MetricsRegistry::global().counter(
            "smash_pipeline_requests_total{result=\"failed\"}");
    (ok ? completed : failed).add(n);
    if (!ok)
        stats_.failed.fetch_add(n, std::memory_order_relaxed);
    leave(n);
}

void
Pipeline::leave(std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    SMASH_CHECK(inflight_ >= n, "pipeline accounting underflow");
    inflight_ -= n;
    if (inflight_ == 0)
        idle_.notify_all();
}

void
Pipeline::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return inflight_ == 0; });
}

bool
Pipeline::drainFor(std::chrono::microseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return idle_.wait_for(lock, timeout,
                          [this] { return inflight_ == 0; });
}

void
Pipeline::noteProgress()
{
    // seq_cst on the bump and the waiter check (and on their
    // counterparts in drainWait): with weaker orders this is the
    // classic store-buffering shape, where this thread could miss
    // the waiter AND the waiter miss the bump — a lost wakeup.
    progress_.fetch_add(1);
    if (drain_waiters_.load() == 0)
        return; // nobody draining: skip the lock entirely
    // Serialize with the waiter: it re-reads progress_ under
    // mutex_ before every sleep, so either it sees this bump there
    // or it is already waiting and this notify lands.
    {
        std::lock_guard<std::mutex> lock(mutex_);
    }
    idle_.notify_all();
}

bool
Pipeline::drainWait(std::uint64_t& seen)
{
    std::unique_lock<std::mutex> lock(mutex_);
    drain_waiters_.fetch_add(1);
    idle_.wait(lock, [this, &seen] {
        return inflight_ == 0 || progress_.load() != seen;
    });
    drain_waiters_.fetch_sub(1);
    if (inflight_ == 0)
        return true;
    seen = progress_.load();
    return false;
}

} // namespace smash::serve
