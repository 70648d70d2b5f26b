#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>

#include "common/logging.hh"
#include "common/numa_topology.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace smash::exec
{

namespace
{

/** Sticky claiming uses one claim-bit per chunk in a single word;
 *  wider batches fall back to a sequential cursor. */
constexpr Index kMaxStickyChunks = 64;

} // namespace

/**
 * Shared state of one parallelFor call. Lives on the owner's stack:
 * linked into the pool's batch list while chunks remain, unlinked
 * (under sleep_mutex_) before runBatch returns. Chunk claiming
 * happens under sleep_mutex_; completion accounting under the
 * batch's own mutex, exactly the rendezvous discipline the old
 * per-chunk-task design used.
 */
struct ThreadPool::ForBatch
{
    RawBody body = nullptr;
    void* ctx = nullptr;
    Index begin = 0;
    Index end = 0;
    Index grain = 1;
    Index chunks = 0;
    /** Chunks not yet handed to a runner; under sleep_mutex_. */
    Index unclaimed = 0;
    /** Per-chunk claim bits (sticky path); under sleep_mutex_. */
    std::uint64_t claimed = 0;
    /** Sequential claim cursor (chunks > 64); under sleep_mutex_. */
    Index next = 0;
    std::atomic<Index> remaining{0};
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;
    ForBatch* prev = nullptr;
    ForBatch* next_batch = nullptr;

    void
    finishOne()
    {
        // The decrement happens inside the critical section: the
        // waiting owner may observe remaining == 0 through the
        // lock-free fast path and destroy this ForBatch, so it must
        // first be able to acquire the mutex — which it cannot
        // until this (the last) finisher has fully left.
        std::lock_guard<std::mutex> lock(mutex);
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            done.notify_all();
    }

    void
    fail(std::exception_ptr e)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error)
            error = std::move(e);
    }
};

ThreadPool::ThreadPool(int threads)
    : ThreadPool(Options{threads, false})
{}

ThreadPool::ThreadPool(const Options& options)
{
    const int threads = options.threads;
    SMASH_CHECK(threads >= 1, "thread pool needs at least one worker");
    arenas_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        arenas_.push_back(std::make_unique<ScratchArena>());
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers_.emplace_back(
            [this, t] { workerLoop(static_cast<std::size_t>(t)); });
    if (options.pinWorkers) {
        pinned_ = true;
        pinWorkers();
    }
}

void
ThreadPool::pinWorkers()
{
#if defined(__linux__)
    // Node-major CPU order from the NUMA probe: a pool smaller than
    // the machine fills node 0 before spilling onto node 1, so its
    // workers (and the arrays they first-touch) stay on few nodes.
    // On a 1-node host the order is the identity, i.e. the classic
    // "worker t -> CPU t mod ncpu" layout.
    const std::vector<int> order =
        sys::NumaTopology::probe().nodeMajorCpuOrder();
    for (std::size_t t = 0; t < workers_.size(); ++t) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(order[t % order.size()], &set);
        // Best-effort: a restricted cpuset (containers) may reject
        // the mask; the worker then keeps the inherited affinity.
        pthread_setaffinity_np(workers_[t].native_handle(),
                               sizeof(set), &set);
    }
#endif
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_ = true;
    }
    sleep_cv_.notify_all();
    // Workers drain every published task and every claimable chunk
    // before exiting (see workerLoop); joining here therefore
    // realizes the "safely drain" half of the contract, and the
    // stop_ flag set above realizes the "reject" half for later
    // submissions.
    std::call_once(join_once_, [this] {
        for (std::thread& w : workers_)
            w.join();
    });
}

bool
ThreadPool::enqueueTask(std::function<void()> fn)
{
    Task task = [fn = std::move(fn)] {
        const std::uint64_t t0 =
            obs::traceEnabled() ? obs::traceNowNs() : 0;
        try {
            fn();
        } catch (const std::exception& ex) {
            std::cerr << "smash::ThreadPool: posted task threw: "
                      << ex.what() << "\n";
        } catch (...) {
            std::cerr << "smash::ThreadPool: posted task threw\n";
        }
        SMASH_TRACE_SPAN(obs::EventKind::kPoolTask, t0);
    };
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        if (stop_)
            return false;
        tasks_.push_back(std::move(task));
    }
    static obs::Counter& tasks_total =
        obs::MetricsRegistry::global().counter(
            "smash_pool_tasks_total");
    tasks_total.inc();
    // notify_all, deliberately: notify_one would be correct (every
    // publication sends its own wakeup and workers re-check the
    // predicate), but A/B runs of the serving bench measured it
    // slightly *slower* on an oversubscribed single-core host —
    // the first-scheduled of several woken workers picks the task
    // up sooner than one designated waiter.
    sleep_cv_.notify_all();
    return true;
}

void
ThreadPool::post(std::function<void()> fn)
{
    SMASH_CHECK(enqueueTask(std::move(fn)),
                "post() on a shut-down thread pool");
}

bool
ThreadPool::tryPost(std::function<void()> fn)
{
    return enqueueTask(std::move(fn));
}

Index
ThreadPool::claimChunkLocked(ForBatch& b, std::size_t worker,
                             bool& stolen)
{
    stolen = false;
    if (b.unclaimed == 0)
        return -1;
    if (b.chunks > kMaxStickyChunks) {
        const Index c = b.next++;
        --b.unclaimed;
        return c;
    }
    const auto nworkers = static_cast<Index>(workers_.size());
    if (worker != kNoWorker) {
        // Sticky preference: worker w owns chunks w, w + W, w + 2W,
        // ... — stable across calls, so a cached partition plan's
        // chunk c lands on the same (possibly pinned) worker every
        // request.
        for (Index c = static_cast<Index>(worker); c < b.chunks;
             c += nworkers) {
            if ((b.claimed >> c & 1) == 0) {
                b.claimed |= std::uint64_t(1) << c;
                --b.unclaimed;
                return c;
            }
        }
    }
    // Steal the lowest unclaimed chunk (skew rebalancing, and the
    // owner's help path).
    for (Index c = 0; c < b.chunks; ++c) {
        if ((b.claimed >> c & 1) == 0) {
            b.claimed |= std::uint64_t(1) << c;
            --b.unclaimed;
            stolen = worker != kNoWorker;
            return c;
        }
    }
    return -1;
}

bool
ThreadPool::claimableLocked() const
{
    for (const ForBatch* b = batches_; b != nullptr;
         b = b->next_batch)
        if (b->unclaimed > 0)
            return true;
    return false;
}

bool
ThreadPool::runOneChunk(std::size_t worker, ForBatch* only)
{
    ForBatch* target = nullptr;
    Index chunk = -1;
    bool stolen = false;
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        for (ForBatch* b = only != nullptr ? only : batches_;
             b != nullptr;
             b = only != nullptr ? nullptr : b->next_batch) {
            const Index c = claimChunkLocked(*b, worker, stolen);
            if (c >= 0) {
                target = b;
                chunk = c;
                break;
            }
        }
    }
    if (target == nullptr)
        return false;
    {
        static obs::Counter& sticky =
            obs::MetricsRegistry::global().counter(
                "smash_pool_chunks_total{kind=\"sticky\"}");
        static obs::Counter& steals =
            obs::MetricsRegistry::global().counter(
                "smash_pool_chunks_total{kind=\"stolen\"}");
        (stolen ? steals : sticky).inc();
    }
    const Index cb = target->begin + chunk * target->grain;
    const Index ce = std::min(target->end, cb + target->grain);
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    try {
        target->body(target->ctx, cb, ce);
    } catch (...) {
        target->fail(std::current_exception());
    }
    SMASH_TRACE_SPAN(obs::EventKind::kPoolChunk, t0,
                     static_cast<std::uint32_t>(chunk),
                     stolen ? 1 : 0);
    target->finishOne();
    return true;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    ScratchArena::bind(arenas_[self].get());
    for (;;) {
        // parallelFor chunks first — their owners are blocked on
        // them — then posted tasks. The atomic gate keeps the
        // pure-posted-task steady state (the serving pipeline) off
        // the chunk scan.
        if (active_batches_.load(std::memory_order_acquire) > 0 &&
            runOneChunk(self, nullptr))
            continue;
        // The task queue, the batch list, and the wait share
        // sleep_mutex_, so work published after the chunk scan above
        // cannot slip by unnoticed: either the predicate is already
        // true here, or the publisher's notify arrives while we hold
        // the lock. Posting fails once stop_ is set, so teardown
        // runs every task accepted before shutdown() began and every
        // claimable chunk before the worker exits.
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleep_cv_.wait(lock, [this] {
            return !tasks_.empty() || claimableLocked() || stop_;
        });
        if (claimableLocked())
            continue;
        if (tasks_.empty())
            return;
        Task task = std::move(tasks_.front());
        tasks_.pop_front();
        lock.unlock();
        task();
    }
}

void
ThreadPool::runBatch(Index begin, Index end, Index min_grain,
                     RawBody body, void* ctx)
{
    if (begin >= end)
        return;
    SMASH_CHECK(min_grain >= 1, "grain must be positive");

    const Index span = end - begin;
    const Index target_chunks =
        std::min<Index>(span, static_cast<Index>(size()) * 4);
    const Index grain =
        std::max(min_grain, (span + target_chunks - 1) / target_chunks);
    const Index chunks = (span + grain - 1) / grain;

    static obs::Counter& batches_total =
        obs::MetricsRegistry::global().counter(
            "smash_pool_parallel_for_total");
    batches_total.inc();
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;

    ForBatch batch;
    batch.body = body;
    batch.ctx = ctx;
    batch.begin = begin;
    batch.end = end;
    batch.grain = grain;
    batch.chunks = chunks;
    batch.unclaimed = chunks;
    batch.remaining.store(chunks, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        SMASH_CHECK(!stop_, "parallelFor() on a shut-down thread pool");
        batch.next_batch = batches_;
        if (batches_ != nullptr)
            batches_->prev = &batch;
        batches_ = &batch;
        active_batches_.fetch_add(1, std::memory_order_release);
    }
    sleep_cv_.notify_all();

    // Help with this batch's own chunks — and only those: running
    // unrelated posted tasks here could re-enter an arena-using
    // dispatch driver on this thread mid-call. A nested caller (a
    // worker task invoking parallelFor) thereby drains its own
    // chunks, so progress holds on any pool size.
    while (runOneChunk(kNoWorker, &batch)) {
    }
    if (batch.remaining.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> lock(batch.mutex);
        batch.done.wait(lock, [&batch] {
            return batch.remaining.load(std::memory_order_acquire) ==
                   0;
        });
    }
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        if (batch.prev != nullptr)
            batch.prev->next_batch = batch.next_batch;
        else
            batches_ = batch.next_batch;
        if (batch.next_batch != nullptr)
            batch.next_batch->prev = batch.prev;
        active_batches_.fetch_sub(1, std::memory_order_release);
    }
    {
        // Rendezvous with the last finishOne(): its decrement and
        // notify run under batch.mutex, so acquiring it here
        // guarantees that critical section has exited before the
        // ForBatch (and its error slot, read below) is torn down.
        std::lock_guard<std::mutex> lock(batch.mutex);
    }
    SMASH_TRACE_SPAN(obs::EventKind::kPoolBatch, t0,
                     static_cast<std::uint32_t>(chunks),
                     static_cast<std::uint32_t>(span));
    if (batch.error)
        std::rethrow_exception(batch.error);
}

} // namespace smash::exec
