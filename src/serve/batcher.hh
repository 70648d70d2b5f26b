/**
 * @file
 * Request batching for the serving layer.
 *
 * A Batcher coalesces concurrent requests into per-(matrix, op
 * class) queues (QueueKey); a flushed queue becomes one compute
 * task, which runs its requests one after another (the pipeline
 * computes each alone, so batching buys scheduling, not a shared
 * traversal). A queue flushes when it reaches the maximum batch
 * size (inline, on the enqueuing thread — zero added latency at
 * full load), when a kNormal request finds a compute slot free
 * (inline — no wait at low load), when a compute slot frees while
 * kNormal work is held (on the thread that ended the compute), when
 * its deadline passes (from the timer thread — the cap while every
 * slot is busy), or immediately when a kHigh-priority request
 * arrives (inline; the high request drags any already-queued work
 * along with it).
 *
 * Work conservation (Nagle's rule, Clipper's adaptive batching):
 * the batcher counts the batches it handed to compute whose
 * compute has not ended yet. While that count is below the compute
 * slot count, a kNormal request is dispatched at once instead of
 * waiting for company; coalescing happens only while every slot is
 * busy, and the end of a compute hands its slot straight to held
 * kNormal work (flush reason "idle" for both). The owner reports
 * each flushed batch's end through computeEnded(). A Batcher built
 * with zero slots never flushes for idleness.
 *
 * Priority-aware flush ordering: each request's priority caps its
 * queue's wait — kHigh flushes now, kNormal within max_delay (a
 * cap that only binds while every slot is busy), kBatch within
 * batch_delay (kBatch always waits for company) — and a request's
 * own deadline tightens the cap further so expiring work is
 * surfaced, not hoarded. When several queues are due at once
 * (timer or flushAll), queues holding higher-priority requests
 * flush first.
 *
 * Ownership/threading contract: the Batcher owns its queues and
 * timer thread; requests own their promises until a flush hands
 * them to the callback. enqueue()/flushAll()/computeEnded() are
 * thread-safe, and the flush callback always runs with no Batcher
 * lock held (it may re-enter the pool, run compute inline, or call
 * computeEnded()). The callback must outlive the Batcher, and no
 * computeEnded() may run once destruction begins; destruction
 * stops the timer, then flushes every remaining queue (counted as
 * manual flushes).
 */

#ifndef SMASH_SERVE_BATCHER_HH
#define SMASH_SERVE_BATCHER_HH

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/request.hh"

namespace smash::serve
{

/** Coalesces per-(matrix, op) requests; flushes on size, a free
 *  compute slot, deadline, or a high-priority arrival. */
class Batcher
{
  public:
    using Clock = Request::Clock;
    /** Receives a full batch; called with no Batcher lock held. */
    using FlushFn =
        std::function<void(const QueueKey&, std::vector<Request>)>;

    /**
     * @param max_batch   flush threshold (1 disables coalescing:
     *        every request flushes immediately)
     * @param max_delay   wait cap of a queued kNormal request
     * @param batch_delay wait cap of a queued kBatch request
     *        (kHigh requests flush their queue immediately)
     * @param compute_slots batches that may compute at once before
     *        kNormal work is held (0: kNormal always waits out its
     *        cap). With slots, @p flush must lead to exactly one
     *        computeEnded() per batch unless it throws.
     */
    Batcher(Index max_batch, std::chrono::microseconds max_delay,
            std::chrono::microseconds batch_delay, FlushFn flush,
            int compute_slots = 0);

    Batcher(const Batcher&) = delete;
    Batcher& operator=(const Batcher&) = delete;

    /** Stops the timer and flushes everything still queued. */
    ~Batcher();

    /**
     * Add one request to the (matrix, op) queue of @p key. Flushes
     * inline when the queue reaches max_batch, the request is kHigh
     * priority, or it is kNormal and a compute slot is free;
     * otherwise the queue is held until a slot frees (kNormal) or
     * the timer flushes it at its (priority/deadline-capped) time.
     */
    void enqueue(const QueueKey& key, Request request);

    /** Flush every queue now, highest-priority queues first. */
    void flushAll();

    /**
     * One flushed batch's compute ended (kernel returned, every
     * request expired, or it threw): release its slot and flush
     * held kNormal queues, most urgent first, into the free slots.
     */
    void computeEnded();

    Index maxBatch() const { return max_batch_; }
    /** Batches that may compute at once before kNormal is held. */
    int computeSlots() const { return static_cast<int>(slots_); }
    /** Batches flushed by reaching max_batch. Per-instance read-
     *  throughs over the obs counters (which also feed the global
     *  smash_batcher_flushes_total{reason=...} series). */
    std::uint64_t
    sizeFlushes() const
    {
        return flushes(obs::FlushReason::kSize);
    }
    /** Batches flushed by the timer at a deadline. */
    std::uint64_t
    deadlineFlushes() const
    {
        return flushes(obs::FlushReason::kDeadline);
    }
    /** Batches flushed inline by a kHigh-priority arrival. */
    std::uint64_t
    priorityFlushes() const
    {
        return flushes(obs::FlushReason::kPriority);
    }
    /** Batches flushed by explicit flushAll() calls (including the
     *  destructor's final sweep). */
    std::uint64_t
    manualFlushes() const
    {
        return flushes(obs::FlushReason::kManual);
    }
    /** Batches flushed because a compute slot was free. */
    std::uint64_t
    idleFlushes() const
    {
        return flushes(obs::FlushReason::kIdle);
    }

  private:
    struct Queue
    {
        std::vector<Request> pending;
        /** Earliest wait cap among the pending requests. */
        Clock::time_point due = Clock::time_point::max();
        /** A pending request is kNormal (flushes into a free slot). */
        bool normal = false;
    };

    /** Wait cap of one request, from its priority and deadline. */
    Clock::time_point flushBy(const Request& request) const;
    void timerLoop();
    /** Count one flush, then hand @p batch to the flush callback
     *  (no lock held); a throwing callback gives its slot back. */
    void handOff(const QueueKey& key, std::vector<Request> batch,
                 obs::FlushReason reason);
    std::uint64_t
    flushes(obs::FlushReason reason) const
    {
        return flushes_[static_cast<std::size_t>(reason)].value();
    }

    const Index max_batch_;
    const std::chrono::microseconds max_delay_;
    const std::chrono::microseconds batch_delay_;
    const FlushFn flush_;
    const std::uint64_t slots_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<QueueKey, Queue, QueueKeyHash> queues_;
    /** Per-instance flush counters by FlushReason (the accessor API
     *  above); the same events also bump the registry's global
     *  smash_batcher_flushes_total{reason=...} series. */
    std::array<obs::Counter, obs::kNumFlushReasons> flushes_;
    /** Flushed batches whose computeEnded() has not arrived. */
    std::uint64_t busy_ = 0;
    bool stop_ = false;
    std::thread timer_; //!< started in the ctor body, after validation
};

} // namespace smash::serve

#endif // SMASH_SERVE_BATCHER_HH
