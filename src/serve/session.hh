/**
 * @file
 * serve::Session — the serving subsystem's front door.
 *
 * A Session wires a shared MatrixRegistry to its own ThreadPool
 * and Pipeline. submit() accepts a typed request (SpMV, SpMM, or
 * SpAdd — request.hh) and returns a future<Result<T>>; each
 * admitted request becomes one pool task that resolves its
 * encodings (conversions cached in the registry), computes it
 * alone, and delivers it on the same worker.
 * No exception crosses the API boundary — validation failures come
 * back as ready Results (kNotFound / kInvalidOperand), admission
 * failures as kOverloaded / kDeadlineExceeded / kShuttingDown, and
 * stage failures through the future as kInternal. Minimal use:
 *
 *   serve::MatrixRegistry registry;
 *   registry.put("ranker", std::move(coo)); // auto-selects format
 *   serve::Session session(registry, {.threads = 8});
 *   auto f = session.submit(serve::SpmvRequest{"ranker", x});
 *   serve::Result<std::vector<Value>> r = f.get();
 *   if (r.ok()) use(r.value());             // y = A x
 *
 * Admission control: SessionOptions::maxInflight bounds the
 * requests between submit() and delivery. At capacity, a request's
 * RequestOptions decide — kFailFast resolves to kOverloaded
 * immediately; kBlock waits for a slot (bounded by the request's
 * deadline). Priorities set start order: a free worker takes the
 * oldest queued kHigh request first, then kNormal, then kBatch.
 *
 * Sessions are thread-safe: any number of client threads may
 * submit() concurrently, and several Sessions may share one
 * registry (conversions are still performed once).
 *
 * A Session also installs itself as the registry's re-encode
 * scheduler: when a mutation (applyUpdates/replaceRows/scaleValues,
 * callable on the session or the registry) drifts a matrix across
 * a §7.2.3 format boundary, the rebuild runs asynchronously on this
 * session's pool while requests keep being served from the old
 * encoding. With several sessions on one registry the most recently
 * constructed session schedules re-encodes; destroying it falls
 * back to synchronous (inline) reselection.
 *
 * Ownership/threading contract: the Session borrows the registry,
 * which must outlive it, and owns its pool and pipeline.
 * Mutating matrices concurrently with destroying the session
 * serving them is safe: the registry invokes the hook under its
 * hook lock, and the destructor's detach blocks on that lock — a
 * mutation either schedules onto the still-alive pool or, once the
 * destructor holds the lock, falls back to inline re-encoding.
 */

#ifndef SMASH_SERVE_SESSION_HH
#define SMASH_SERVE_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "serve/pipeline.hh"
#include "serve/registry.hh"
#include "serve/request.hh"
#include "serve/result.hh"
#include "serve/shed.hh"

namespace smash::serve
{

/** Tuning knobs of one Session. */
struct SessionOptions
{
    int threads = 4; //!< pool workers, each serving one request at a time
    /** In-flight request cap (submit → delivery); 0 = unbounded. */
    Index maxInflight = 0;
    /** Graceful-degradation ladder (shed.hh): under sustained
     *  overload the session sheds kBatch first, then kNormal, kHigh
     *  last. Default-disabled (queueTarget == 0). */
    ShedOptions shed{};
};

/** One serving endpoint over a (possibly shared) registry. */
class Session
{
  public:
    /** Completion callbacks of the remote-delivery submit overloads
     *  (the network layer's socket writers). */
    using SpmvCallback =
        std::function<void(Result<std::vector<Value>>)>;
    using SpmmCallback = std::function<void(Result<fmt::DenseMatrix>)>;
    using SpaddCallback = std::function<void(Result<fmt::CooMatrix>)>;

    explicit Session(MatrixRegistry& registry,
                     const SessionOptions& options = {});

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /** close()s, drains in-flight requests, tears the pool down. */
    ~Session();

    /**
     * Submit y = A x. Validation failures (kNotFound for an unknown
     * matrix, kInvalidOperand for a wrong-length x) and admission
     * failures return as already-resolved futures; admitted
     * requests resolve when their task computes them.
     */
    std::future<Result<std::vector<Value>>> submit(SpmvRequest req);

    /**
     * Submit C = A B for a dense multi-RHS block (b.rows() must be
     * A's column count; at least one column), computed as one SpMV
     * per column of B.
     */
    std::future<Result<fmt::DenseMatrix>> submit(SpmmRequest req);

    /** Submit A + B over two registered matrices (same shape). */
    std::future<Result<fmt::CooMatrix>> submit(SpaddRequest req);

    /**
     * Remote-completion submits: instead of a future, the result is
     * pushed through @p done — the channel the network front door
     * uses to write responses back to a socket. Semantics match the
     * future overloads exactly (same validation, admission, and
     * status model); validation/admission failures invoke @p done
     * inline on the calling thread, successes and pipeline failures
     * invoke it on a pipeline worker. @p done must not throw.
     *
     * Teardown contract (load-bearing for connection teardown): a
     * request's completion is always resolved *before* its admission
     * ticket is released, and close() returns only once the
     * admission gate is empty — so after close() returns, no
     * callback is still running and none will run. Callers may then
     * free whatever state their callbacks capture.
     */
    void submit(SpmvRequest req, SpmvCallback done);
    void submit(SpmmRequest req, SpmmCallback done);
    void submit(SpaddRequest req, SpaddCallback done);

    /**
     * Stop admitting: every later (and every blocked) submit
     * resolves to kShuttingDown, then in-flight work drains.
     * Idempotent; the destructor calls it.
     */
    void close();

    /**
     * Mutation passthroughs: apply to the shared registry, with any
     * drift-triggered re-encode scheduled on this session's pool.
     * Safe to call while requests are in flight — they finish on
     * the encoding epoch they already hold.
     */
    UpdateOutcome applyUpdates(const std::string& matrix,
                               fmt::CooMatrix deltas);
    UpdateOutcome replaceRows(const std::string& matrix,
                              const std::vector<Index>& rows,
                              fmt::CooMatrix replacement);
    UpdateOutcome scaleValues(const std::string& matrix, Value factor);

    /** Wait for every in-flight request. */
    void drain();

    const PipelineStats& stats() const { return pipeline_.stats(); }
    /** Admission rejections (kOverloaded) so far. */
    std::uint64_t overloadRejects() const { return overloaded_.load(); }
    int threads() const { return pool_.size(); }
    /** The degradation ladder (tests/operators force levels and
     *  read the current one through this). */
    OverloadShedder& shedder() { return shedder_; }
    const OverloadShedder& shedder() const { return shedder_; }

  private:
    /** Admission gate state (in-flight slot accounting). */
    struct Gate
    {
        std::mutex mutex;
        std::condition_variable freed;
        Index total = 0;
        bool closing = false;
    };

    /** Outcome of admission: a ticket, or the status denying it. */
    struct Admitted
    {
        std::shared_ptr<void> ticket; //!< null when denied
        Status status;
    };

    /** kNotFound/kInvalidOperand checks shared by the submits. */
    Status validateMatrix(const std::string& name) const;
    /** Degradation-ladder gate (between precheck and admission):
     *  kOverloaded when the current shed level drops @p options'
     *  priority class. */
    Status shedCheck(const RequestOptions& options);
    /** Full pre-admission validation per op class (shared by the
     *  future- and callback-returning submit overloads). */
    Status precheck(const SpmvRequest& req) const;
    Status precheck(const SpmmRequest& req) const;
    Status precheck(const SpaddRequest& req) const;
    /** Take one in-flight slot (or block/deny per @p options). */
    Admitted admit(const RequestOptions& options,
                   Request::Clock::time_point expiry);
    /** Return one slot and wake blocked admitters. */
    void release();
    /** Build the envelope and post it to the pipeline. */
    template <typename Work>
    void launch(std::string matrix, const RequestOptions& options,
                Request::Clock::time_point now,
                Request::Clock::time_point expiry,
                std::shared_ptr<void> ticket, Work work);
    /**
     * The one body behind every submit overload: precheck, shed,
     * admit, then launch a Work built from @p payload and @p done.
     * A refusal resolves @p done inline. @p matrix is the matrix
     * the request runs on (req.matrix, or req.a for SpAdd).
     */
    template <typename Work, typename Req, typename Payload>
    void submitWork(Req& req, std::string& matrix, Payload& payload,
                    decltype(Work::done) done);

    MatrixRegistry& registry_;
    const SessionOptions options_;
    exec::ThreadPool pool_;
    OverloadShedder shedder_; //!< before the pipeline feeding it
    Pipeline pipeline_;
    Gate gate_;
    std::atomic<std::uint64_t> overloaded_{0};
    /** Mirror of gate_.total for the shedder's lock-free signal. */
    std::atomic<Index> inflight_now_{0};
};

} // namespace smash::serve

#endif // SMASH_SERVE_SESSION_HH
