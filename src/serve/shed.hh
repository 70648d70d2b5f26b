/**
 * @file
 * serve::OverloadShedder — the graceful-degradation ladder.
 *
 * Under sustained overload a session stops serving its cheapest
 * traffic first instead of letting every class time out together.
 * The ladder has four levels, each shedding one more priority
 * class (shed requests resolve to kOverloaded inline, so retrying
 * clients back off):
 *
 *   level 0  admit everything (normal operation)
 *   level 1  shed kBatch
 *   level 2  shed kBatch + kNormal
 *   level 3  shed everything, kHigh included (blackout)
 *
 * Two signals feed the level decision, combined as a pressure
 * score (the worse one wins):
 *
 *   in-flight fraction — current admitted requests over the
 *       session's maxInflight cap, against ShedOptions::inflightHigh;
 *   queue-latency EWMA — an exponentially weighted average of each
 *       delivered request's queue-side time (submit → its task
 *       starting), fed by the pipeline's deliver stage, against
 *       ShedOptions::queueTarget.
 *
 * "Sustained" is enforced by stepping: the ladder moves at most
 * one level per ShedOptions::hold interval, up when the score is
 * >= 1, down when it falls under ShedOptions::stepDownRatio
 * (hysteresis, so the level doesn't flap around the threshold).
 * While nothing is delivered (e.g. at level 3, when everything is
 * shed), the EWMA decays geometrically per hold interval — a
 * blackout always steps back down once pressure is gone rather
 * than latching on its own stale signal.
 *
 * The current level is exported as the gauge `smash_shed_level`
 * (brownout visible before blackout), sheds as
 * `smash_shed_total{priority=...}`. Disabled (queueTarget == 0 and
 * no force) the shedder admits everything at zero cost beyond one
 * branch.
 */

#ifndef SMASH_SERVE_SHED_HH
#define SMASH_SERVE_SHED_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "common/types.hh"
#include "serve/request.hh"

namespace smash::serve
{

/** Tuning of the degradation ladder (SessionOptions::shed). */
struct ShedOptions
{
    /** Queue-latency EWMA target; 0 disables the ladder (it then
     *  only reacts to forceLevel()). */
    std::chrono::microseconds queueTarget{0};
    /** In-flight fraction (of the session's maxInflight) treated
     *  as full pressure. Ignored when the session is unbounded. */
    double inflightHigh = 0.9;
    /** Score below which the ladder steps down (hysteresis gap
     *  between this and the step-up threshold of 1.0). */
    double stepDownRatio = 0.7;
    /** Minimum dwell per level: the ladder moves at most one level
     *  per hold interval in either direction. */
    std::chrono::microseconds hold{2000};
    /** EWMA smoothing factor per delivered sample. */
    double alpha = 0.2;
};

/** Priority-ordered load shedding for one Session. */
class OverloadShedder
{
  public:
    OverloadShedder(const ShedOptions& options, Index max_inflight);

    OverloadShedder(const OverloadShedder&) = delete;
    OverloadShedder& operator=(const OverloadShedder&) = delete;

    /** The ladder can change levels (config or operator force). */
    bool
    enabled() const
    {
        return options_.queueTarget.count() > 0 ||
            forced_.load(std::memory_order_relaxed) >= 0;
    }

    /** Feed one delivered request's queue-side latency (pipeline
     *  deliver stage). */
    void noteQueueLatency(std::uint64_t us);

    /** Feed the session's current in-flight count (submit path). */
    void
    noteInflight(Index inflight)
    {
        inflight_.store(inflight, std::memory_order_relaxed);
    }

    /** Re-evaluate the ladder and decide @p priority's fate: true
     *  admits, false sheds (caller answers kOverloaded). */
    bool admit(Priority priority);

    /** Current ladder level, 0..3. */
    int
    level() const
    {
        return level_.load(std::memory_order_relaxed);
    }

    /** Operator/test override: pin the ladder to @p level (0..3);
     *  -1 returns to automatic. */
    void forceLevel(int level);

    /** Requests shed so far (all priorities). */
    std::uint64_t
    shedTotal() const
    {
        return shed_.load(std::memory_order_relaxed);
    }

    /** Current queue-latency EWMA in microseconds (probe). */
    double queueEwmaUs() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** Step the ladder toward the current score (mutex_ held). */
    void reevaluate(Clock::time_point now);
    void publishLevel(int level);

    const ShedOptions options_;
    const Index max_inflight_;
    std::atomic<Index> inflight_{0};
    std::atomic<int> level_{0};
    std::atomic<int> forced_{-1};
    std::atomic<std::uint64_t> shed_{0};

    mutable std::mutex mutex_;
    double ewma_us_ = 0;           //!< guarded by mutex_
    Clock::time_point last_step_{}; //!< guarded by mutex_
    Clock::time_point last_sample_{}; //!< guarded by mutex_
};

} // namespace smash::serve

#endif // SMASH_SERVE_SHED_HH
