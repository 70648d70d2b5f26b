/**
 * @file
 * Process-global metrics layer: named counters, gauges, and
 * power-of-two histograms behind one MetricsRegistry, exported in
 * Prometheus text exposition format. `smash_serverd`'s `/metrics`
 * endpoint serves this exposition, and the observability example
 * prints it.
 *
 * Hot-path design: a Counter is sharded — each thread increments a
 * cache-line-private atomic slot picked by a stable per-thread id,
 * so concurrent workers never contend on one cache line; value()
 * sums the shards. A Gauge is a single atomic (set/add are rare
 * control-plane events). A Histogram is 48 power-of-two buckets of
 * relaxed atomic counts plus a running sum — record() is two
 * relaxed adds, percentile() scans the snapshot only when asked.
 *
 * Naming convention: metric names may carry Prometheus-style
 * labels inline — `smash_pipeline_requests_total{result="failed"}` —
 * and exportText() groups label variants under one # TYPE line.
 *
 * Ownership/threading contract: the registry owns its instruments;
 * counter()/gauge()/histogram() return stable references that live
 * as long as the process (instruments are never removed), so call
 * sites resolve a name once (static local) and then touch only the
 * instrument. All methods are thread-safe.
 */

#ifndef SMASH_OBS_METRICS_HH
#define SMASH_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace smash::obs
{

/** Small dense id of the calling thread (first use assigns the
 *  next id): shard picking for counters, tid stamping for trace
 *  events. Stable for the thread's lifetime. */
std::uint32_t threadId();

/** Monotonic counter with per-thread sharded storage: add() touches
 *  one cache-line-private slot, value() sums the shards. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    void
    add(std::uint64_t n = 1)
    {
        shards_[threadId() % kShards].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Shard& s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

  private:
    /** Enough shards that an 8–16-worker pool rarely collides; the
     *  alignas keeps two shards off one cache line. */
    static constexpr std::size_t kShards = 16;
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };
    std::array<Shard, kShards> shards_{};
};

/** Point-in-time value (in-flight requests, ring occupancy). */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Power-of-two histogram: bucket i holds values in [2^(i-1), 2^i)
 * (bucket 0: value 0, i.e. below 1), the top bucket is open-ended.
 * Unit-agnostic — the serving layer records microseconds.
 *
 * percentile() semantics (exact, tested):
 *  - empty histogram        → 0
 *  - rank lands in bucket 0 → 0.5 (sub-unit)
 *  - middle buckets         → geometric midpoint 1.5 * 2^(i-1)
 *  - top (overflow) bucket  → the bucket's lower bound 2^(i-1),
 *    never a midpoint of an unbounded range
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 48;

    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void
    record(std::uint64_t value)
    {
        int bucket = std::bit_width(value); // 0 for value == 0
        if (bucket >= kBuckets)
            bucket = kBuckets - 1;
        counts_[static_cast<std::size_t>(bucket)].fetch_add(
            1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        std::uint64_t total = 0;
        for (const auto& c : counts_)
            total += c.load(std::memory_order_relaxed);
        return total;
    }

    /** Sum of every recorded value (the Prometheus _sum series). */
    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Value at quantile @p q in [0, 1] under the semantics above. */
    double percentile(double q) const;

    /** Count in bucket @p i (snapshot). */
    std::uint64_t
    bucketCount(int i) const
    {
        return counts_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
    }

    /** Exclusive upper bound of bucket @p i (the Prometheus `le`
     *  boundary); the top bucket has none (+Inf). */
    static std::uint64_t
    bucketBound(int i)
    {
        return std::uint64_t(1) << i;
    }

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
    std::atomic<std::uint64_t> sum_{0};
};

/** Process-global named-instrument registry. */
class MetricsRegistry
{
  public:
    /** The process's registry (every subsystem records here). */
    static MetricsRegistry& global();

    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** Get-or-create; the reference stays valid forever. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Prometheus text exposition of every instrument. */
    void exportText(std::ostream& os) const;

    /** Value of the named counter, 0 when it does not exist (test
     *  and tooling convenience — call sites keep references). */
    std::uint64_t counterValue(const std::string& name) const;

  private:
    struct Impl;
    Impl* impl_;
};

} // namespace smash::obs

#endif // SMASH_OBS_METRICS_HH
