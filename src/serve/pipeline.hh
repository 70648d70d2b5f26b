/**
 * @file
 * The serving layer's pipeline: one pool task per admitted request.
 *
 * post() pushes the request onto its priority's FIFO and posts one
 * task to the shared ThreadPool — one push per post, so every task
 * finds a request. A task takes the front of the most urgent
 * non-empty FIFO (kHigh, then kNormal, then kBatch) and runs the
 * request to the end on its worker:
 *
 *   expiry  — a request whose deadline passed while it queued
 *       resolves to kDeadlineExceeded instead of computing;
 *   prepare — resolve the encodings its op class needs through the
 *       registry (first touch converts, later touches hit the
 *       cache); SpAdd takes the CSR views of both operands;
 *   compute — serially on the matrix stack: an SpMV takes spmv
 *       into its own result, an SpMM takes spmvBatch on its own B
 *       (one canonical SpMV per column), an SpAdd one eng::spadd;
 *   deliver — inline: the completion resolves, then the admission
 *       ticket is released, then the in-flight count drops.
 *
 * Priority therefore sets start order, never membership: requests
 * share no work, so each one's answer is the same bits whatever
 * ran beside it. Failures travel through the completions as non-kOk
 * Results (no exception crosses the serving boundary): a failed
 * prepare or compute resolves its request with kInternal.
 *
 * Delivery records each request's submit→delivery latency, in
 * microseconds, into a per-priority obs::Histogram, and its stage
 * spans into per-stage histograms (PipelineStage).
 *
 * The pipeline is also the registry's re-encode scheduler: when a
 * mutated matrix drifts across a format boundary, postReencode()
 * runs the rebuild as one more pool task, so requests keep flowing
 * on the old encoding (their tasks hold its shared_ptr) until the
 * matrix stack swaps the new one in.
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
#include <deque>
#include <mutex>
#include <string>

#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/registry.hh"
#include "serve/request.hh"

namespace smash::serve
{

class OverloadShedder;

/** Stage boundaries of one delivered request's lifetime (the index
 *  into PipelineStats::stageLatency). */
enum class PipelineStage
{
    kAdmit = 0,   //!< submit → admission ticket granted
    kQueue = 1,   //!< admitted → its task started
    kPrepare = 2, //!< task start → encodings ready
    kCompute = 3, //!< encodings ready → kernel finished
    kDeliver = 4, //!< computed → completion resolved
};

inline constexpr std::size_t kNumPipelineStages = 5;

inline const char*
toString(PipelineStage s)
{
    switch (s) {
      case PipelineStage::kAdmit: return "admit";
      case PipelineStage::kQueue: return "queue";
      case PipelineStage::kPrepare: return "prepare";
      case PipelineStage::kCompute: return "compute";
      case PipelineStage::kDeliver: return "deliver";
    }
    return "unknown";
}

/** Monotonic counters published by the pipeline. */
struct PipelineStats
{
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};   //!< includes expired
    std::atomic<std::uint64_t> expired{0};  //!< kDeadlineExceeded
    /** One per computed request (perfbench's serve.batch_mean reads
     *  completed ÷ batches). */
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> reencodes{0}; //!< drift re-encodes run

    /** Submit→delivery latency (microseconds) per priority class. */
    obs::Histogram latencyByPriority[kNumPriorities];

    /** Per-stage latency (microseconds) of every delivered request
     *  (the same samples feed the registry's
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

    /** Queue-side time (admit + queue + prepare) of every delivered
     *  request, in microseconds. */
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

/** Per-priority FIFOs + one task per request + in-flight accounting. */
class Pipeline
{
  public:
    /** @p shedder (optional) receives each delivered request's
     *  submit → task start latency — the degradation ladder's EWMA
     *  signal. */
    Pipeline(MatrixRegistry& registry, exec::ThreadPool& pool,
             OverloadShedder* shedder = nullptr);

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /** Waits for every in-flight request (see drain()). */
    ~Pipeline();

    /** Queue @p request on its priority's FIFO and post one task. */
    void post(Request request);

    /**
     * Maintenance entry: run the registry's pending re-encode for
     * @p matrix as a pool task (the ReencodeHook target). Falls
     * back to running inline when the pool is already shutting
     * down — the swap is perf-only, so correctness never depends
     * on where it executes.
     */
    void postReencode(const std::string& matrix);

    /** Block until every posted request has been delivered or
     *  failed. */
    void drain();

    const PipelineStats& stats() const { return stats_; }

  private:
    /** One posted task: pop the most urgent request and run it. */
    void runNext();
    /** Prepare, compute and deliver @p request (throws on failure;
     *  runNext resolves it then). */
    void run(Request& request);
    /** Resolve one delivered request: value, latency, accounting. */
    template <typename T, typename Work>
    void deliver(Request& request, Work& work, T value);
    /** Record the request's per-stage latencies from its stamps. */
    void recordStages(const Request& request,
                      Request::Clock::time_point delivered);
    /** Resolve one request as failed and account for it. */
    void failOne(Request& request, const Status& status);
    /** Mark one request left the pipeline (delivered or failed);
     *  wakes drains when none is left. */
    void finish(bool ok);

    MatrixRegistry& registry_;
    exec::ThreadPool& pool_;
    OverloadShedder* const shedder_;
    PipelineStats stats_;

    std::mutex mutex_;
    std::condition_variable idle_;
    /** Queued requests, one FIFO per Priority (kHigh first). */
    std::deque<Request> queues_[kNumPriorities];
    /** Requests posted and not yet delivered or failed. */
    std::uint64_t inflight_ = 0;
};

} // namespace smash::serve

#endif // SMASH_SERVE_PIPELINE_HH
