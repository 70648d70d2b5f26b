/**
 * @file
 * Work-sharing thread pool backing the parallel execution model.
 *
 * Two kinds of work flow through the pool:
 *
 *  - parallelFor() batches: an index range split into chunks that
 *    workers claim straight off the batch descriptor (an atomic-ish
 *    cursor under the pool lock, no per-chunk queue entries), so
 *    the steady-state compute path enqueues nothing on the heap.
 *    When the chunk count fits the sticky window, each worker
 *    prefers the chunks whose index maps to it — repeated calls
 *    over a cached partition plan therefore hand the same row
 *    ranges to the same workers ("sticky" partitions), which keeps
 *    per-worker cache state hot and, with pinned workers, resident
 *    on the same core. Unclaimed chunks are still stolen by whoever
 *    runs dry, so skew cannot strand work.
 *
 *  - post()ed tasks (the serving pipeline's stage submissions):
 *    one FIFO queue under the pool lock, so tasks start in the
 *    order they were posted.
 *
 * Workers may opt into CPU affinity pinning (Options::pinWorkers,
 * Linux pthread_setaffinity_np; a no-op elsewhere): worker t is
 * pinned to the t-th CPU in the NUMA probe's node-major order
 * (common/numa_topology.hh) — node 0's CPUs first, then node 1's —
 * which on a 1-node host reduces to the classic
 * "CPU t mod hardware_concurrency" layout. Combined with sticky
 * chunk claiming this realizes the software half of the ROADMAP's
 * NUMA item — a matrix's partitions stay on the same cores across
 * requests. Each worker also owns a ScratchArena, bound to its
 * thread for its lifetime (see common/scratch_arena.hh).
 */

#ifndef SMASH_COMMON_THREAD_POOL_HH
#define SMASH_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/scratch_arena.hh"
#include "common/types.hh"

namespace smash::exec
{

/** Work-sharing pool of a fixed number of worker threads. */
class ThreadPool
{
  public:
    /** Construction-time knobs. */
    struct Options
    {
        /** Number of workers (>= 1). The calling thread is not a
         *  worker; it helps run its own parallelFor chunks. */
        int threads = 1;
        /** Pin worker t to CPU t mod hardware_concurrency
         *  (best-effort, Linux only). */
        bool pinWorkers = false;
    };

    explicit ThreadPool(int threads);
    explicit ThreadPool(const Options& options);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /** Whether worker pinning was requested and attempted. */
    bool pinned() const { return pinned_; }

    /**
     * Run body(chunk_begin, chunk_end) over a partition of
     * [begin, end) and return when every chunk has finished. The
     * range is split into ~4 chunks per worker (at least
     * @p min_grain indices each); idle workers claim chunks they
     * don't own, so uneven chunk costs rebalance. @p body must be
     * safe to invoke concurrently from different workers on
     * disjoint chunks.
     *
     * The calling thread claims and runs its own batch's remaining
     * chunks while it waits (and only those — it never picks up
     * unrelated work mid-call), so parallelFor() may be nested: a
     * worker task that calls it drains its own chunks instead of
     * deadlocking, even on a single-worker pool. Performs no heap
     * allocation beyond what @p body does. Fails after shutdown().
     */
    template <typename F>
    void
    parallelFor(Index begin, Index end, Index min_grain, const F& body)
    {
        runBatch(
            begin, end, min_grain,
            [](void* ctx, Index cb, Index ce) {
                (*static_cast<const F*>(ctx))(cb, ce);
            },
            const_cast<void*>(static_cast<const void*>(&body)));
    }

    /**
     * Enqueue one fire-and-forget task (the serving pipeline's
     * stage submission). Tasks start in the order they were
     * posted. Tasks accepted before shutdown() begins are
     * guaranteed to run; posting afterwards fails with
     * FatalError instead of racing the worker teardown. A task
     * that throws is caught and logged — fire-and-forget tasks
     * have no caller to rethrow into.
     */
    void post(std::function<void()> fn);

    /**
     * post() for callers that can tolerate rejection: returns false
     * (queuing nothing) once shutdown() has begun, instead of
     * throwing. The serving layer's background maintenance — e.g. a
     * drift-triggered re-encode racing a session teardown — uses
     * this to degrade to inline execution rather than crash.
     */
    [[nodiscard]] bool tryPost(std::function<void()> fn);

    /**
     * Stop accepting work, run every task already enqueued to
     * completion, and join the workers. Idempotent (the destructor
     * calls it); concurrent callers block until the teardown
     * finishes. Submissions that raced the beginning of shutdown
     * still run; submissions arriving after it begins are
     * rejected.
     */
    void shutdown();

  private:
    /** Chunk body as a plain function pointer + context — the
     *  template wrapper above erases the callable without touching
     *  the heap. */
    using RawBody = void (*)(void* ctx, Index begin, Index end);

    /** One in-flight parallelFor call; lives on the owner's stack
     *  and is linked into batches_ while chunks remain. */
    struct ForBatch;

    using Task = std::function<void()>;

    /** Non-worker claimants (parallelFor owners) have no sticky
     *  chunk preference. */
    static constexpr std::size_t kNoWorker =
        static_cast<std::size_t>(-1);

    void runBatch(Index begin, Index end, Index min_grain,
                  RawBody body, void* ctx);
    /** Claim one chunk (from @p only, or any linked batch) and run
     *  it; @p worker picks the sticky preference. */
    bool runOneChunk(std::size_t worker, ForBatch* only);
    /** Claim one chunk of @p b under sleep_mutex_; -1 when none.
     *  @p stolen reports a claim outside the worker's sticky set
     *  (skew rebalancing) — observability only. */
    Index claimChunkLocked(ForBatch& b, std::size_t worker,
                           bool& stolen);
    /** Any batch with unclaimed chunks? (sleep_mutex_ held.) */
    bool claimableLocked() const;
    void workerLoop(std::size_t self);
    /** Queue @p fn at the back of tasks_; false (queuing nothing)
     *  once shutdown has begun. */
    bool enqueueTask(std::function<void()> fn);
    /** Best-effort worker CPU pinning (Options::pinWorkers). */
    void pinWorkers();

    std::vector<std::unique_ptr<ScratchArena>> arenas_;
    std::vector<std::thread> workers_;
    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    std::once_flag join_once_;
    /** In-flight parallelFor calls with chunks left to claim or
     *  finish; guarded by sleep_mutex_. */
    ForBatch* batches_ = nullptr;
    /** Lock-free mirror of "batches_ is non-empty": lets workers on
     *  the posted-task path (the serving pipeline) skip the global
     *  claim lock entirely when no parallelFor is in flight. */
    std::atomic<int> active_batches_{0};
    /** Posted-but-not-started tasks, oldest first; guarded by
     *  sleep_mutex_ so the empty-check and the sleep are atomic (no
     *  lost wakeup). */
    std::deque<Task> tasks_;
    bool stop_ = false;
    bool pinned_ = false;
};

} // namespace smash::exec

#endif // SMASH_COMMON_THREAD_POOL_HH
