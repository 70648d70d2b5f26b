/**
 * @file
 * Typed requests of the serving API.
 *
 * Public surface: SpmvRequest / SpmmRequest / SpaddRequest, each
 * carrying RequestOptions {priority, deadline, admission}. A request
 * names registered matrices; Session::submit() validates it, runs
 * admission control, and returns a future<Result<T>> (result.hh).
 *
 *   priority  — start order: a free worker takes the oldest kHigh
 *               request, then kNormal, then kBatch; also the class
 *               the degradation ladder sheds first (kBatch);
 *   deadline  — relative budget covering admission blocking and
 *               queue wait; expired requests resolve to
 *               kDeadlineExceeded instead of computing (0 = none);
 *   admission — at capacity, kFailFast resolves to kOverloaded
 *               immediately, kBlock waits for a slot.
 *
 * Internal surface: Request is the envelope the pipeline queues and
 * computes — the op payload (a variant, one alternative per op
 * class) plus the completion, timing, and the admission ticket
 * whose destruction releases the in-flight slot.
 */

#ifndef SMASH_SERVE_REQUEST_HH
#define SMASH_SERVE_REQUEST_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hh"
#include "formats/coo_matrix.hh"
#include "formats/dense_matrix.hh"
#include "serve/result.hh"

namespace smash::serve
{

/** Scheduling class of one request (array index: kHigh first). */
enum class Priority
{
    kHigh = 0,   //!< starts first; shed last
    kNormal = 1, //!< the default
    kBatch = 2,  //!< starts last; shed first
};

inline constexpr std::size_t kNumPriorities = 3;

inline const char*
toString(Priority p)
{
    switch (p) {
      case Priority::kHigh: return "high";
      case Priority::kNormal: return "normal";
      case Priority::kBatch: return "batch";
    }
    return "unknown";
}

/** What happens when the session is at its in-flight limit. */
enum class Admission
{
    kFailFast, //!< resolve to kOverloaded immediately
    kBlock,    //!< wait for capacity (bounded by the deadline)
};

/** Per-request knobs, defaulting to the pre-redesign behaviour. */
struct RequestOptions
{
    Priority priority = Priority::kNormal;
    /** Admission-block + queue-wait budget; zero means none. */
    std::chrono::microseconds deadline{0};
    Admission admission = Admission::kFailFast;
};

/** y = A x against the registered matrix @p matrix. */
struct SpmvRequest
{
    std::string matrix;
    std::vector<Value> x;
    RequestOptions options{};
};

/**
 * C = A B for a dense multi-RHS block @p b (one column per RHS,
 * b.rows() == A.cols()), computed as one canonical SpMV per column.
 */
struct SpmmRequest
{
    std::string matrix;
    fmt::DenseMatrix b;
    RequestOptions options{};
};

/** A + B over two registered matrices (canonical COO out). */
struct SpaddRequest
{
    std::string a;
    std::string b;
    RequestOptions options{};
};

/** Operation class of a request (variant index of Request). */
enum class OpClass
{
    kSpmv = 0,
    kSpmm = 1,
    kSpadd = 2,
};

inline const char*
toString(OpClass op)
{
    switch (op) {
      case OpClass::kSpmv: return "spmv";
      case OpClass::kSpmm: return "spmm";
      case OpClass::kSpadd: return "spadd";
    }
    return "unknown";
}

/**
 * Completion channel of one in-flight request: the future's promise
 * by default, or — for remote completion, where the consumer is a
 * socket writer rather than an in-process future holder — a
 * callback. resolve() routes to whichever is set; the pipeline
 * always resolves *before* releasing the admission ticket, so
 * Session::close() returning guarantees every callback has returned
 * (the wire layer's teardown safety rests on that ordering).
 * Callbacks run on the pipeline worker that computed the request
 * (holding that worker until they return), or inline on the
 * submitting thread for validation/admission failures, and must
 * not throw —
 * an escaping exception is swallowed so it cannot take down the
 * worker.
 */
template <typename T>
struct Completion
{
    std::promise<Result<T>> result;
    std::function<void(Result<T>)> onComplete;

    void
    resolve(Result<T> r)
    {
        if (onComplete) {
            try {
                onComplete(std::move(r));
            } catch (...) {
                // Callbacks must not throw; see above.
            }
            return;
        }
        result.set_value(std::move(r));
    }
};

/** Payload + completion of one in-flight SpMV request. */
struct SpmvWork
{
    std::vector<Value> x;
    Completion<std::vector<Value>> done;
};

/** Payload + completion of one in-flight SpMM request. */
struct SpmmWork
{
    fmt::DenseMatrix b;
    Completion<fmt::DenseMatrix> done;
};

/** Payload + completion of one in-flight SpAdd request. */
struct SpaddWork
{
    std::string other; //!< the B operand's registry name
    Completion<fmt::CooMatrix> done;
};

/**
 * The internal envelope: one admitted request flowing through the
 * pipeline. Move-only (it owns the result promise). The
 * admission ticket is released when the envelope dies — wherever
 * that happens (delivery, expiry, or a failed stage).
 */
struct Request
{
    using Clock = std::chrono::steady_clock;

    std::string matrix; //!< registry name (SpAdd: the A operand)
    RequestOptions options{};
    Clock::time_point submitted{};                      //!< latency base
    Clock::time_point expiry = Clock::time_point::max(); //!< absolute
    /** Trace stamps, set as the request crosses each pipeline
     *  stage boundary (obs: per-stage latency histograms and the
     *  queue-vs-compute breakdown in PipelineStats). */
    Clock::time_point admitted{};  //!< passed the admission gate
    Clock::time_point started{};   //!< its pool task took it
    Clock::time_point prepared{};  //!< encodings ready
    Clock::time_point computed{};  //!< kernel finished
    std::shared_ptr<void> ticket;                       //!< admission slot
    /** Completion already resolved (pipeline-internal bookkeeping,
     *  so a late failure never double-resolves a delivered
     *  request). */
    bool resolved = false;
    std::variant<SpmvWork, SpmmWork, SpaddWork> work;

    OpClass
    op() const
    {
        return static_cast<OpClass>(work.index());
    }

    /** Resolve the completion (whichever op) with a failure status. */
    void
    fail(const Status& status)
    {
        std::visit([&](auto& w) { w.done.resolve(status); }, work);
        // Release the admission slot before the pipeline's finish()
        // accounting runs: teardown may proceed the instant the
        // in-flight count hits zero, so the gate must not be
        // touched by a ticket outliving that moment.
        ticket.reset();
    }
};

} // namespace smash::serve

#endif // SMASH_SERVE_REQUEST_HH
