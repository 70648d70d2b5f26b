#include "serve/session.hh"

#include <utility>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace smash::serve
{

namespace
{

Request::Clock::time_point
expiryOf(Request::Clock::time_point now, const RequestOptions& options)
{
    if (options.deadline.count() <= 0)
        return Request::Clock::time_point::max();
    return now + options.deadline;
}

} // namespace

Session::Session(MatrixRegistry& registry, const SessionOptions& options)
    : registry_(registry), options_(options),
      pool_(options.threads),
      shedder_(options.shed, options.maxInflight),
      pipeline_(registry, pool_, &shedder_)
{
    SMASH_CHECK(options_.maxInflight >= 0,
                "in-flight limit must be non-negative");
    // Drift re-encodes of served matrices run as tasks on this
    // session's pool (latest-constructed session wins the hook
    // when several share the registry).
    registry_.setReencodeHook(
        [this](const std::string& matrix, eng::Format) {
            pipeline_.postReencode(matrix);
        },
        this);
}

Session::~Session()
{
    // Detach from the registry first: the registry invokes the hook
    // under its hook lock, and clearReencodeHook() blocks on that
    // same lock — once it returns, no mutation can reach the dying
    // pipeline (later drifts fall back to inline re-encoding), and
    // anything already posted runs before the pool joins.
    registry_.clearReencodeHook(this);
    close();
}

Status
Session::validateMatrix(const std::string& name) const
{
    if (!registry_.contains(name))
        return Status(StatusCode::kNotFound,
                      "no matrix registered as '" + name + "'");
    return Status();
}

Status
Session::shedCheck(const RequestOptions& options)
{
    if (!shedder_.enabled())
        return Status();
    shedder_.noteInflight(
        inflight_now_.load(std::memory_order_relaxed));
    if (shedder_.admit(options.priority))
        return Status();
    overloaded_.fetch_add(1, std::memory_order_relaxed);
    // kOverloaded (not a new code): retrying clients already back
    // off on it, and to a caller "shed by the ladder" and "gate
    // full" are the same instruction — come back later.
    return Status(StatusCode::kOverloaded,
                  "shed at degradation level " +
                      std::to_string(shedder_.level()));
}

Session::Admitted
Session::admit(const RequestOptions& options,
               Request::Clock::time_point expiry)
{
    std::unique_lock<std::mutex> lock(gate_.mutex);
    const auto full = [&] {
        return options_.maxInflight > 0 &&
            gate_.total >= options_.maxInflight;
    };
    for (;;) {
        if (gate_.closing)
            return {nullptr, Status(StatusCode::kShuttingDown,
                                    "session is closing")};
        if (!full())
            break;
        if (options.admission == Admission::kFailFast) {
            overloaded_.fetch_add(1, std::memory_order_relaxed);
            static obs::Counter& rejects =
                obs::MetricsRegistry::global().counter(
                    "smash_admission_rejects_total{reason="
                    "\"overloaded\"}");
            rejects.inc();
            return {nullptr, Status(StatusCode::kOverloaded,
                                    "in-flight limit reached")};
        }
        if (expiry == Request::Clock::time_point::max()) {
            gate_.freed.wait(lock); // woken by release() or close()
            continue;
        }
        if (gate_.freed.wait_until(lock, expiry) ==
            std::cv_status::timeout) {
            if (gate_.closing)
                return {nullptr, Status(StatusCode::kShuttingDown,
                                        "session is closing")};
            if (full())
                return {nullptr,
                        Status(StatusCode::kDeadlineExceeded,
                               "deadline passed while blocked on "
                               "admission")};
            break;
        }
    }
    ++gate_.total;
    inflight_now_.store(gate_.total, std::memory_order_relaxed);
    static obs::Gauge& inflight =
        obs::MetricsRegistry::global().gauge(
            "smash_admission_inflight");
    inflight.add(1);
    // The ticket returns the slot when the envelope dies — at
    // delivery, expiry, or any failure path, without the pipeline
    // having to know about admission at all.
    // The pointer only has to be non-null (a null ticket means
    // "denied"); the deleter is what matters.
    std::shared_ptr<void> ticket(static_cast<void*>(this),
                                 [this](void*) { release(); });
    return {std::move(ticket), Status()};
}

void
Session::release()
{
    {
        std::lock_guard<std::mutex> lock(gate_.mutex);
        if (gate_.total > 0)
            --gate_.total;
        inflight_now_.store(gate_.total, std::memory_order_relaxed);
        // Notify while still holding the lock (teardown audit): the
        // close() loop can only observe total == 0 after acquiring
        // gate_.mutex, i.e. after this releaser has finished
        // notifying and unlocked — so a dying Session can never
        // destroy the condition variable out from under a
        // notify_all() still in flight on a pool worker.
        gate_.freed.notify_all();
    }
    static obs::Gauge& inflight =
        obs::MetricsRegistry::global().gauge(
            "smash_admission_inflight");
    inflight.add(-1);
}

template <typename Work>
void
Session::launch(std::string matrix, const RequestOptions& options,
                Request::Clock::time_point now,
                Request::Clock::time_point expiry,
                std::shared_ptr<void> ticket, Work work)
{
    Request envelope;
    envelope.matrix = std::move(matrix);
    envelope.options = options;
    envelope.submitted = now;
    envelope.expiry = expiry;
    // The admit stage ends here: the gate granted a ticket (after
    // blocking, for kBlock at capacity) and the envelope is built.
    envelope.admitted = Request::Clock::now();
    envelope.ticket = std::move(ticket);
    envelope.work = std::move(work);
    pipeline_.post(std::move(envelope));
}

Status
Session::precheck(const SpmvRequest& req) const
{
    if (Status s = validateMatrix(req.matrix); !s.ok())
        return s;
    const Index cols = registry_.cols(req.matrix);
    if (static_cast<Index>(req.x.size()) != cols)
        return Status(
            StatusCode::kInvalidOperand,
            "operand for '" + req.matrix + "' has length " +
                std::to_string(req.x.size()) + ", matrix has " +
                std::to_string(cols) + " columns");
    return Status();
}

Status
Session::precheck(const SpmmRequest& req) const
{
    if (Status s = validateMatrix(req.matrix); !s.ok())
        return s;
    const Index cols = registry_.cols(req.matrix);
    if (req.b.rows() != cols)
        return Status(
            StatusCode::kInvalidOperand,
            "B block for '" + req.matrix + "' has " +
                std::to_string(req.b.rows()) + " rows, matrix has " +
                std::to_string(cols) + " columns");
    if (req.b.cols() < 1)
        return Status(StatusCode::kInvalidOperand,
                      "B block carries no right-hand sides");
    return Status();
}

Status
Session::precheck(const SpaddRequest& req) const
{
    if (Status s = validateMatrix(req.a); !s.ok())
        return s;
    if (Status s = validateMatrix(req.b); !s.ok())
        return s;
    if (registry_.rows(req.a) != registry_.rows(req.b) ||
        registry_.cols(req.a) != registry_.cols(req.b))
        return Status(StatusCode::kInvalidOperand,
                      "spadd operands '" + req.a + "' and '" + req.b +
                          "' have different shapes");
    return Status();
}

template <typename Work, typename Req, typename Payload>
void
Session::submitWork(Req& req, std::string& matrix, Payload& payload,
                    decltype(Work::done) done)
{
    const auto now = Request::Clock::now();
    const auto expiry = expiryOf(now, req.options);
    if (Status s = precheck(req); !s.ok()) {
        done.resolve(std::move(s));
        return;
    }
    if (Status s = shedCheck(req.options); !s.ok()) {
        done.resolve(std::move(s));
        return;
    }
    Admitted admitted = admit(req.options, expiry);
    if (!admitted.ticket) {
        done.resolve(std::move(admitted.status));
        return;
    }
    launch(std::move(matrix), req.options, now, expiry,
           std::move(admitted.ticket),
           Work{std::move(payload), std::move(done)});
}

std::future<Result<std::vector<Value>>>
Session::submit(SpmvRequest req)
{
    Completion<std::vector<Value>> done;
    auto future = done.result.get_future();
    submitWork<SpmvWork>(req, req.matrix, req.x, std::move(done));
    return future;
}

void
Session::submit(SpmvRequest req, SpmvCallback done)
{
    submitWork<SpmvWork>(req, req.matrix, req.x, {{}, std::move(done)});
}

std::future<Result<fmt::DenseMatrix>>
Session::submit(SpmmRequest req)
{
    Completion<fmt::DenseMatrix> done;
    auto future = done.result.get_future();
    submitWork<SpmmWork>(req, req.matrix, req.b, std::move(done));
    return future;
}

void
Session::submit(SpmmRequest req, SpmmCallback done)
{
    submitWork<SpmmWork>(req, req.matrix, req.b, {{}, std::move(done)});
}

std::future<Result<fmt::CooMatrix>>
Session::submit(SpaddRequest req)
{
    Completion<fmt::CooMatrix> done;
    auto future = done.result.get_future();
    submitWork<SpaddWork>(req, req.a, req.b, std::move(done));
    return future;
}

void
Session::submit(SpaddRequest req, SpaddCallback done)
{
    submitWork<SpaddWork>(req, req.a, req.b, {{}, std::move(done)});
}

void
Session::close()
{
    {
        std::lock_guard<std::mutex> lock(gate_.mutex);
        gate_.closing = true;
    }
    gate_.freed.notify_all(); // blocked admitters see kShuttingDown
    // Drain until the admission gate is empty too, not just the
    // pipeline: a submit that passed admit() holds a ticket
    // (gate_.total > 0, under the gate lock) until its envelope
    // resolves, but may not have reached the pipeline yet — the
    // pipeline cannot see it. Waiting the gate out guarantees no
    // such straggler can touch the members being torn down.
    for (;;) {
        drain();
        std::unique_lock<std::mutex> lock(gate_.mutex);
        if (gate_.total == 0)
            return;
        gate_.freed.wait_for(lock, std::chrono::milliseconds(1));
    }
}

UpdateOutcome
Session::applyUpdates(const std::string& matrix, fmt::CooMatrix deltas)
{
    return registry_.applyUpdates(matrix, std::move(deltas));
}

UpdateOutcome
Session::replaceRows(const std::string& matrix,
                     const std::vector<Index>& rows,
                     fmt::CooMatrix replacement)
{
    return registry_.replaceRows(matrix, rows, std::move(replacement));
}

UpdateOutcome
Session::scaleValues(const std::string& matrix, Value factor)
{
    return registry_.scaleValues(matrix, factor);
}

void
Session::drain()
{
    pipeline_.drain();
}

} // namespace smash::serve
