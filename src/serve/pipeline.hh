/**
 * @file
 * The serving layer's async pipeline. Each request flows through
 * three stages, every one a task posted to the shared ThreadPool:
 *
 *   encode/convert — resolve the encodings the request's op class
 *       needs through the registry (first touch converts, later
 *       touches hit the cache) and hand the request to the batcher;
 *   compute        — run a flushed (matrix, op) batch serially on
 *       the matrix stack, one request at a time: an SpMV takes
 *       spmv into its own result, an SpMM takes spmvBatch on its
 *       own B (one canonical SpMV per column), and SpAdd merges run
 *       through eng::spadd. A request's answer is therefore the
 *       same bits whether or not it shared a batch;
 *   deliver        — fulfil the promises with serve::Result values.
 *
 * Every compute runs on one worker, so batches overlap across the
 * pool (throughput mode); the batcher counts one compute slot per
 * worker.
 *
 * Because the stages are independent tasks, the expensive CSR→SMASH
 * conversion of one request overlaps the compute of another — the
 * fig20 conversion cost hides behind in-flight work instead of
 * serializing in front of it. Failures travel through the promises
 * as non-kOk Results (no exception crosses the serving boundary):
 * a stage failure resolves exactly the requests it was carrying
 * with kInternal, and a request whose deadline passed before its
 * batch computed resolves to kDeadlineExceeded.
 *
 * Delivery also records each request's submit→delivery latency, in
 * microseconds, into a per-priority obs::Histogram — the source of
 * the observability example's per-priority p50/p99 report.
 *
 * The pipeline is also the registry's re-encode scheduler: when a
 * mutated matrix drifts across a format boundary, postReencode()
 * runs the rebuild as one more pool task, so requests keep flowing
 * on the old encoding (their compute stages hold its shared_ptr)
 * until the matrix stack swaps the new one in.
 *
 * Ownership/threading contract: the pipeline borrows the registry
 * and the pool — both must outlive it. All entry points are
 * thread-safe; drain() may be called from any thread and blocks
 * until the in-flight request count reaches zero.
 */

#ifndef SMASH_SERVE_PIPELINE_HH
#define SMASH_SERVE_PIPELINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/batcher.hh"
#include "serve/registry.hh"
#include "serve/request.hh"

namespace smash::serve
{

class OverloadShedder;

/** Stage boundaries of one delivered request's lifetime (the index
 *  into PipelineStats::stageLatency). */
enum class PipelineStage
{
    kAdmit = 0,     //!< submit → admission ticket granted
    kPrepare = 1,   //!< admitted → encodings ready, in the batcher
    kBatchWait = 2, //!< enqueued → batch flushed
    kCompute = 3,   //!< flushed → kernel finished
    kDeliver = 4,   //!< computed → promise fulfilled
};

inline constexpr std::size_t kNumPipelineStages = 5;

inline const char*
toString(PipelineStage s)
{
    switch (s) {
      case PipelineStage::kAdmit: return "admit";
      case PipelineStage::kPrepare: return "prepare";
      case PipelineStage::kBatchWait: return "batch_wait";
      case PipelineStage::kCompute: return "compute";
      case PipelineStage::kDeliver: return "deliver";
    }
    return "unknown";
}

/** Monotonic counters published by the pipeline stages. */
struct PipelineStats
{
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};   //!< includes expired
    std::atomic<std::uint64_t> expired{0};  //!< kDeadlineExceeded
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> widestBatch{0};
    std::atomic<std::uint64_t> reencodes{0}; //!< drift re-encodes run

    /** Submit→delivery latency (microseconds) per priority class. */
    obs::Histogram latencyByPriority[kNumPriorities];

    /** Per-stage latency (microseconds) of every delivered request
     *  (trace spans aggregated; the same samples feed the registry's
     *  smash_pipeline_stage_latency_us{stage=...} series). */
    obs::Histogram stageLatency[kNumPipelineStages];

    const obs::Histogram&
    latency(Priority p) const
    {
        return latencyByPriority[static_cast<std::size_t>(p)];
    }

    const obs::Histogram&
    stage(PipelineStage s) const
    {
        return stageLatency[static_cast<std::size_t>(s)];
    }

    /** Queue-side time (admit + prepare + batch wait) of every
     *  delivered request, in microseconds. */
    std::uint64_t
    queueUs() const
    {
        return stageLatency[0].sum() + stageLatency[1].sum() +
            stageLatency[2].sum();
    }

    /** Compute-side time (compute + deliver) of every delivered
     *  request, in microseconds. */
    std::uint64_t
    computeUs() const
    {
        return stageLatency[3].sum() + stageLatency[4].sum();
    }
};

/** Stage bodies + in-flight accounting of the serving pipeline. */
class Pipeline
{
  public:
    /** @p shedder (optional) receives each delivered request's
     *  queue-side latency — the degradation ladder's EWMA signal. */
    Pipeline(MatrixRegistry& registry, exec::ThreadPool& pool,
             OverloadShedder* shedder = nullptr);

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /** Waits for every in-flight request (see drain()). */
    ~Pipeline();

    /**
     * Stage 1 entry: post the encode/convert task for @p request,
     * which hands it to @p batcher on completion. @p batcher must
     * stay alive until drain() returns.
     */
    void postPrepare(const QueueKey& key, Request request,
                     Batcher& batcher);

    /**
     * Stage 2 entry: post the compute task for a flushed batch. The
     * task ends by reporting batcher.computeEnded() — whether the
     * kernel returned, every request expired, or it threw — and
     * drain() waits for that report too, so @p batcher must stay
     * alive until drain() returns.
     */
    void postCompute(const QueueKey& key, std::vector<Request> batch,
                     Batcher& batcher);

    /**
     * Maintenance entry: run the registry's pending re-encode for
     * @p matrix as a pool task (the ReencodeHook target). Falls
     * back to running inline when the pool is already shutting
     * down — the swap is perf-only, so correctness never depends
     * on where it executes.
     */
    void postReencode(const std::string& matrix);

    /**
     * Block until every submitted request has been delivered or
     * failed and every compute task has reported its end to its
     * batcher. Requests still parked in a batcher count as in-flight;
     * its deadline timer (or flushAll()) releases them. Callers that
     * own the batcher (Session::drain) use drainWait() and flush on
     * every progress event, so draining neither sits out a long
     * flush cap nor burns a core polling.
     */
    void drain();

    /** drain() bounded by @p timeout; true when idle was reached. */
    bool drainFor(std::chrono::microseconds timeout);

    /**
     * Event-driven drain step: block until the pipeline is idle
     * (returns true) or until progress — a request handed to its
     * batcher by the prepare stage — has advanced past @p seen
     * (returns false with @p seen updated). The caller flushes its
     * batcher between steps; waking only on progress events
     * replaces the old fixed-interval drainFor() polling loop.
     */
    bool drainWait(std::uint64_t& seen);

    const PipelineStats& stats() const { return stats_; }

  private:
    void computeBatch(const QueueKey& key,
                      std::vector<Request>& batch);
    /** SpMV and SpMM: one stack call per request into its own
     *  result, then one deliver task for the batch. */
    void computeBlock(const std::string& matrix,
                      std::vector<Request>& batch);
    void computeSpadd(const std::string& matrix,
                      std::vector<Request>& batch);
    /** Resolve one delivered request: value, latency, accounting. */
    template <typename T, typename Work>
    void deliver(Request& request, Work& work, T value);
    /** Record the request's per-stage latencies from its stamps. */
    void recordStages(const Request& request,
                      Request::Clock::time_point delivered);
    /** Fail every not-yet-resolved request in @p batch. */
    void failRemaining(std::vector<Request>& batch,
                       const Status& status);
    /** Resolve one request as failed (tolerating a moved-from
     *  promise) and account for it. */
    void failOne(Request& request, const Status& status);
    /** Mark @p n requests left the pipeline (delivered or failed). */
    void finish(std::uint64_t n, bool ok);
    /** Drop @p n from the in-flight count; wake drains at zero. */
    void leave(std::uint64_t n);

    MatrixRegistry& registry_;
    exec::ThreadPool& pool_;
    OverloadShedder* const shedder_;
    PipelineStats stats_;

    /** A request reached its batcher (drainWait wake signal). */
    void noteProgress();
    /** Resolve the encodings @p key's op class needs through the
     *  registry — or, with @p cached_only, just probe for them
     *  (building nothing). False when one is missing (probe mode
     *  only; resolution always succeeds or throws). */
    bool resolveEncodings(const QueueKey& key, const Request& request,
                          bool cached_only);

    std::mutex mutex_;
    std::condition_variable idle_;
    /** Requests not yet delivered or failed, plus compute tasks not
     *  yet past their computeEnded() report. */
    std::uint64_t inflight_ = 0;
    /** Monotonic count of requests handed to a batcher. Atomic
     *  (seq_cst) so the hot path bumps it without mutex_; drainWait
     *  registers as a waiter before re-reading it, and the total
     *  order over the two atomics rules out the store-buffering
     *  lost-wakeup (see noteProgress()). */
    std::atomic<std::uint64_t> progress_{0};
    /** Drains currently blocked in drainWait(); noteProgress only
     *  takes the lock to notify when this is non-zero. */
    std::atomic<int> drain_waiters_{0};
};

} // namespace smash::serve

#endif // SMASH_SERVE_PIPELINE_HH
