#include "serve/batcher.hh"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace smash::serve
{

namespace
{

/** Registry series of one FlushReason, labelled by its name. */
obs::Counter&
globalFlushCounter(obs::FlushReason reason)
{
    static const auto by_reason = [] {
        std::array<obs::Counter*, obs::kNumFlushReasons> table{};
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = &obs::MetricsRegistry::global().counter(
                std::string("smash_batcher_flushes_total{reason=\"") +
                obs::flushReasonName(static_cast<std::uint32_t>(i)) +
                "\"}");
        return table;
    }();
    const auto i = static_cast<std::size_t>(reason);
    SMASH_CHECK(i < by_reason.size(), "unknown flush reason ", i);
    return *by_reason[i];
}

/** Best (numerically lowest) priority present in a batch. */
Priority
topPriority(const std::vector<Request>& batch)
{
    Priority best = Priority::kBatch;
    for (const Request& r : batch)
        best = std::min(best, r.options.priority);
    return best;
}

} // namespace

Batcher::Batcher(Index max_batch, std::chrono::microseconds max_delay,
                 std::chrono::microseconds batch_delay, FlushFn flush,
                 int compute_slots)
    : max_batch_(max_batch), max_delay_(max_delay),
      batch_delay_(batch_delay), flush_(std::move(flush)),
      slots_(static_cast<std::uint64_t>(compute_slots))
{
    // Validate before the timer thread exists: a throw with a
    // joinable thread member would std::terminate during unwinding.
    SMASH_CHECK(max_batch_ >= 1, "batch size must be positive");
    SMASH_CHECK(flush_ != nullptr, "batcher needs a flush callback");
    SMASH_CHECK(compute_slots >= 0, "compute slots must be non-negative");
    timer_ = std::thread([this] { timerLoop(); });
}

Batcher::~Batcher()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    timer_.join();
    flushAll(); // the timer is gone; drain whatever is left
}

Batcher::Clock::time_point
Batcher::flushBy(const Request& request) const
{
    // The priority caps the wait; the request's own deadline can
    // only tighten it (an expiring request must surface in time to
    // be failed with kDeadlineExceeded, not rot in the queue).
    Clock::time_point cap;
    switch (request.options.priority) {
      case Priority::kHigh:
        cap = Clock::now();
        break;
      case Priority::kNormal:
        cap = Clock::now() + max_delay_;
        break;
      case Priority::kBatch:
        cap = Clock::now() + batch_delay_;
        break;
    }
    return std::min(cap, request.expiry);
}

void
Batcher::handOff(const QueueKey& key, std::vector<Request> batch,
                 obs::FlushReason reason)
{
    flushes_[static_cast<std::size_t>(reason)].inc();
    globalFlushCounter(reason).inc();
    static obs::Histogram& width =
        obs::MetricsRegistry::global().histogram(
            "smash_batcher_flush_width");
    width.record(batch.size());
    SMASH_TRACE_EVENT(obs::EventKind::kBatchFlush,
                      static_cast<std::uint32_t>(reason),
                      static_cast<std::uint32_t>(batch.size()));
    try {
        flush_(key, std::move(batch));
    } catch (...) {
        // The batch never reached compute: no computeEnded() comes.
        std::lock_guard<std::mutex> lock(mutex_);
        --busy_;
        throw;
    }
}

void
Batcher::enqueue(const QueueKey& key, Request request)
{
    const Priority priority = request.options.priority;
    static obs::Counter& enqueues =
        obs::MetricsRegistry::global().counter(
            "smash_batcher_enqueues_total");
    enqueues.inc();
    SMASH_TRACE_EVENT(obs::EventKind::kBatchEnqueue,
                      static_cast<std::uint32_t>(key.op),
                      static_cast<std::uint32_t>(priority));
    std::vector<Request> batch;
    obs::FlushReason reason = obs::FlushReason::kSize;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Queue& q = queues_[key];
        if (q.pending.empty()) {
            q.due = Clock::time_point::max();
            q.normal = false;
        }
        const Clock::time_point cap = flushBy(request);
        const bool tightened = cap < q.due;
        q.due = std::min(q.due, cap);
        q.normal = q.normal || priority == Priority::kNormal;
        q.pending.push_back(std::move(request));
        if (static_cast<Index>(q.pending.size()) < max_batch_) {
            if (priority == Priority::kHigh) {
                reason = obs::FlushReason::kPriority;
            } else if (priority == Priority::kNormal && busy_ < slots_) {
                reason = obs::FlushReason::kIdle;
            } else {
                if (tightened)
                    cv_.notify_all(); // timer re-evaluates its target
                return;
            }
        }
        batch.swap(q.pending);
        ++busy_;
    }
    // Flush inline on the enqueuing thread, outside the lock (the
    // callback may enqueue pool work or run compute).
    handOff(key, std::move(batch), reason);
}

void
Batcher::computeEnded()
{
    std::vector<std::pair<QueueKey, std::vector<Request>>> due;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SMASH_CHECK(busy_ > 0, "computeEnded() without a flushed batch");
        --busy_;
        // Hand each free slot to the held kNormal queue whose cap
        // is nearest, so held work waits for a worker, not a clock.
        while (busy_ < slots_) {
            auto pick = queues_.end();
            for (auto it = queues_.begin(); it != queues_.end(); ++it) {
                const Queue& q = it->second;
                if (!q.pending.empty() && q.normal &&
                    (pick == queues_.end() || q.due < pick->second.due))
                    pick = it;
            }
            if (pick == queues_.end())
                break;
            due.emplace_back(pick->first, std::move(pick->second.pending));
            pick->second.pending.clear();
            ++busy_;
        }
    }
    for (auto& [key, batch] : due)
        handOff(key, std::move(batch), obs::FlushReason::kIdle);
}

void
Batcher::flushAll()
{
    std::vector<std::pair<QueueKey, std::vector<Request>>> due;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [key, q] : queues_) {
            if (q.pending.empty())
                continue;
            due.emplace_back(key, std::move(q.pending));
            q.pending.clear();
        }
        busy_ += due.size();
    }
    // Priority-aware ordering: queues holding high-priority work
    // reach the pipeline first.
    std::stable_sort(due.begin(), due.end(),
                     [](const auto& a, const auto& b) {
                         return topPriority(a.second) <
                             topPriority(b.second);
                     });
    for (auto& [key, batch] : due)
        handOff(key, std::move(batch), obs::FlushReason::kManual);
}

void
Batcher::timerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stop_)
            return;
        // Earliest flush time among the non-empty queues.
        bool any = false;
        Clock::time_point earliest = Clock::time_point::max();
        for (const auto& [key, q] : queues_) {
            if (!q.pending.empty() && q.due < earliest) {
                earliest = q.due;
                any = true;
            }
        }
        if (!any) {
            cv_.wait(lock); // woken by enqueue() or the destructor
            continue;
        }
        if (cv_.wait_until(lock, earliest) ==
            std::cv_status::no_timeout)
            continue; // new request or stop: recompute the target

        // Flush every queue that is due, best priority first.
        const Clock::time_point now = Clock::now();
        std::vector<std::pair<QueueKey, std::vector<Request>>> due;
        for (auto& [key, q] : queues_) {
            if (!q.pending.empty() && q.due <= now) {
                due.emplace_back(key, std::move(q.pending));
                q.pending.clear();
            }
        }
        busy_ += due.size();
        std::stable_sort(due.begin(), due.end(),
                         [](const auto& a, const auto& b) {
                             return topPriority(a.second) <
                                 topPriority(b.second);
                         });
        lock.unlock();
        for (auto& [key, batch] : due)
            handOff(key, std::move(batch), obs::FlushReason::kDeadline);
        lock.lock();
    }
}

} // namespace smash::serve
