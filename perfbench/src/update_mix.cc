/**
 * @file
 * update-mix: readers beside a writer on one in-process Session.
 *
 * Two reader threads run a closed SpMV loop while one writer applies
 * a seeded script of mutations at a fixed pace. Every mutation bumps
 * the matrix epoch and drops its cached encodings; every Nth swaps
 * the whole matrix between rows of one length and rows of ragged
 * lengths, which crosses a §7.2.3 boundary (ELL <-> CSR) and makes
 * the session run a drift re-encode on its pool beside the reads.
 * Both patterns stay compact in either format, so a read that
 * re-encodes the new content in the old format before the drift
 * re-encode lands costs time, not gigabytes (DIA, by contrast,
 * would store every diagonal a scattered pattern touches).
 *
 * Correctness: the writer keeps a shadow copy of the content and,
 * before each mutation, publishes the oracle answers of the epoch it
 * is about to create. A read must equal the oracle of some epoch
 * that was live while it ran: at least the last one completed when
 * it was submitted, at most the last one started when it returned.
 */

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>

#include "common/rng.hh"
#include "serve/session.hh"
#include "served.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace smash;

namespace
{

constexpr Index kDim = 8192;
constexpr Index kPerRow = 16;
constexpr int kReaders = 2;
constexpr int kVariants = 2;
constexpr int kSetupReps = 45;
/** Every kCrossEvery-th mutation crosses a format boundary (about
 *  once a second at the pace below). */
constexpr std::uint64_t kCrossEvery = 25;
/** Writer pace: one mutation per period. Every mutation makes the
 *  next read re-encode the whole matrix (~3 ms on the one pool
 *  thread, both readers waiting); at this pace that is ~10% of the
 *  readers' time, so the reads still set the throughput. */
constexpr auto kWritePeriod = std::chrono::milliseconds(40);
/** Oracle epochs kept for readers still in flight. */
constexpr std::size_t kEpochRing = 64;

/** Row-wise shadow of the matrix content (ascending columns). */
using Row = std::vector<std::pair<Index, Value>>;

struct Epoch
{
    std::uint64_t index = 0;
    std::vector<std::vector<Value>> y; //!< one per x variant
};

/** Spin-wait hint for a polling loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

Value
rowDot(const Row& row, const std::vector<Value>& x)
{
    Value acc = 0;
    for (const auto& [c, v] : row)
        acc += v * x[static_cast<std::size_t>(c)];
    return acc;
}

std::vector<Row>
toRows(const fmt::CooMatrix& coo)
{
    std::vector<Row> rows(static_cast<std::size_t>(coo.rows()));
    for (const fmt::CooEntry& e : coo.entries())
        rows[static_cast<std::size_t>(e.row)].emplace_back(e.col,
                                                           e.value);
    return rows;
}

fmt::CooMatrix
toCoo(const std::vector<Row>& rows, Index cols)
{
    fmt::CooMatrix coo(static_cast<Index>(rows.size()), cols);
    for (std::size_t r = 0; r < rows.size(); ++r)
        for (const auto& [c, v] : rows[r])
            coo.add(static_cast<Index>(r), c, v);
    coo.canonicalize();
    return coo;
}

/** Oracle answers of the epochs readers may still observe. */
class EpochLog
{
  public:
    void
    publish(std::shared_ptr<const Epoch> epoch)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ring_.push_back(std::move(epoch));
        if (ring_.size() > kEpochRing)
            ring_.pop_front();
    }

    /** True when @p y equals variant @p v of an epoch in
     *  [@p lo, @p hi]; "unverifiable" when @p lo fell out of the
     *  ring. */
    const char*
    check(const std::vector<Value>& y, int v, std::uint64_t lo,
          std::uint64_t hi) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ring_.empty() || ring_.front()->index > lo)
            return "unverifiable";
        for (const auto& e : ring_)
            if (e->index >= lo && e->index <= hi &&
                sameBits(y, e->y[static_cast<std::size_t>(v)]))
                return nullptr;
        return "mismatch";
    }

  private:
    mutable std::mutex mutex_;
    std::deque<std::shared_ptr<const Epoch>> ring_;
};

/** The seeded mutation script and the shadow it keeps in step. */
class Writer
{
  public:
    Writer(const fmt::CooMatrix& initial, const OracleSet& oracle,
           std::uint64_t seed)
        : shadow_(toRows(initial)), cols_(initial.cols()),
          x_(oracle.x), rng_(seed, 0x3717),
          uniform_(initial),
          ragged_(raggedMatrix(kDim, kPerRow / 4, kPerRow * 7 / 4, seed))
    {
        auto first = std::make_shared<Epoch>();
        first->y = oracle.y; // eng::spmv answers of epoch 0
        log_.publish(first);
        y_ = oracle.y;
    }

    const EpochLog& log() const { return log_; }
    std::uint64_t started() const
    {
        return started_.load(std::memory_order_acquire);
    }
    std::uint64_t done() const
    {
        return done_.load(std::memory_order_acquire);
    }
    const MutationTimings& timings() const { return timings_; }

    /** Current content (call once the writer has stopped). */
    fmt::CooMatrix content() const { return toCoo(shadow_, cols_); }

    /** Apply mutation number started()+1 through @p session. */
    void step(serve::Session& session, serve::MatrixRegistry& registry,
              std::vector<Span>* spans);

  private:
    /** Recompute rows @p touched of every oracle answer (or all rows
     *  when empty) and publish the next epoch. */
    void publish(const std::vector<Index>& touched, bool all,
                 Value scale);

    std::vector<Row> shadow_;
    Index cols_;
    std::vector<std::vector<Value>> x_;
    std::vector<std::vector<Value>> y_;
    Rng rng_;
    const fmt::CooMatrix uniform_;
    const fmt::CooMatrix ragged_;
    bool is_uniform_ = true;
    bool scaled_up_ = false;
    EpochLog log_;
    std::atomic<std::uint64_t> started_{0};
    std::atomic<std::uint64_t> done_{0};
    MutationTimings timings_;
};

void
Writer::publish(const std::vector<Index>& touched, bool all, Value scale)
{
    for (std::size_t v = 0; v < y_.size(); ++v) {
        if (all) {
            for (std::size_t r = 0; r < shadow_.size(); ++r)
                y_[v][r] = rowDot(shadow_[r], x_[v]);
        } else if (scale != Value(1)) {
            // Scaling by a power of two is exact, row by row.
            for (Value& yr : y_[v])
                yr *= scale;
        } else {
            for (Index r : touched)
                y_[v][static_cast<std::size_t>(r)] =
                    rowDot(shadow_[static_cast<std::size_t>(r)], x_[v]);
        }
    }
    auto epoch = std::make_shared<Epoch>();
    epoch->index = started_.load(std::memory_order_relaxed) + 1;
    epoch->y = y_;
    log_.publish(std::move(epoch));
}

void
Writer::step(serve::Session& session, serve::MatrixRegistry& registry,
             std::vector<Span>* spans)
{
    const std::uint64_t m = started_.load(std::memory_order_relaxed) + 1;
    std::function<void()> call;
    const char* name = "";
    bool crossing = false;

    if (m % kCrossEvery == 0) {
        // Swap every row between the uniform and ragged patterns.
        const fmt::CooMatrix& next = is_uniform_ ? ragged_ : uniform_;
        is_uniform_ = !is_uniform_;
        scaled_up_ = false;
        shadow_ = toRows(next);
        publish({}, true, 1);
        std::vector<Index> rows(static_cast<std::size_t>(kDim));
        for (Index r = 0; r < kDim; ++r)
            rows[static_cast<std::size_t>(r)] = r;
        call = [&session, rows, &next] {
            session.replaceRows(kMatrixName, rows, next);
        };
        name = "registry.replace_rows";
        crossing = true;
    } else if (m % 3 == 0) {
        // Value-only: 64 stored entries gain 1/16.
        fmt::CooMatrix deltas(kDim, cols_);
        std::vector<Index> touched;
        for (int k = 0; k < 64; ++k) {
            const auto r = static_cast<Index>(
                rng_.below(static_cast<std::uint64_t>(kDim)));
            Row& row = shadow_[static_cast<std::size_t>(r)];
            if (row.empty())
                continue;
            auto& entry = row[rng_.below(row.size())];
            if (!deltas.add(r, entry.first, Value(0.0625)))
                continue;
            touched.push_back(r);
        }
        deltas.canonicalize();
        // Apply the canonical (duplicate-summed) deltas to the shadow.
        for (const fmt::CooEntry& e : deltas.entries())
            for (auto& [c, v] : shadow_[static_cast<std::size_t>(e.row)])
                if (c == e.col)
                    v += e.value;
        publish(touched, false, 1);
        call = [&session, d = std::move(deltas)] {
            session.applyUpdates(kMatrixName, d);
        };
        name = "registry.apply_updates";
    } else if (m % 3 == 1) {
        // Republish 8 rows in the current pattern with fresh values.
        std::vector<Index> rows;
        for (int k = 0; k < 8; ++k)
            rows.push_back(static_cast<Index>(
                rng_.below(static_cast<std::uint64_t>(kDim))));
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        fmt::CooMatrix replacement(kDim, cols_);
        for (Index r : rows) {
            Row& row = shadow_[static_cast<std::size_t>(r)];
            for (auto& [c, v] : row) {
                v = dyadic(rng_.nextU64());
                replacement.add(r, c, v);
            }
        }
        replacement.canonicalize();
        publish(rows, false, 1);
        call = [&session, rows, rep = std::move(replacement)] {
            session.replaceRows(kMatrixName, rows, rep);
        };
        name = "registry.replace_rows";
    } else {
        // Scale by 2, then back by 1/2: exact and bounded.
        const Value factor = scaled_up_ ? Value(0.5) : Value(2);
        scaled_up_ = !scaled_up_;
        for (Row& row : shadow_)
            for (auto& entry : row)
                entry.second *= factor;
        publish({}, false, factor);
        call = [&session, factor] {
            session.scaleValues(kMatrixName, factor);
        };
        name = "registry.scale_values";
    }

    const std::size_t reselects = registry.reselects(kMatrixName);
    started_.store(m, std::memory_order_release);
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(spans, name, m);
        call();
    }
    const double us = usBetween(t0, Clock::now());
    done_.store(m, std::memory_order_release);
    timings_.allUs.push_back(us);
    if (name == std::string("registry.apply_updates"))
        timings_.applyUpdatesUs.push_back(us);
    if (crossing) {
        // Re-encode time: from the crossing call until the new
        // format serves (the async rebuild has swapped in).
        const Clock::time_point give_up = t0 + std::chrono::seconds(5);
        while (registry.reselects(kMatrixName) == reselects ||
               registry.info(kMatrixName).reencodePending) {
            if (Clock::now() > give_up)
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        timings_.reencodeMs.push_back(usBetween(t0, Clock::now()) / 1e3);
    }
}

struct MixResult
{
    std::vector<Sample> samples;
    std::vector<double> lagUs;
    std::uint64_t rejected = 0; //!< overloaded answers
    double seconds = 0;
};

/** Readers + writer for @p seconds; reads use kHigh priority so a
 *  lone request flushes at once instead of waiting out the batch
 *  timer (a closed loop below maxBatch would otherwise measure that
 *  timer). A reader polls its answer rather than sleeping on it: on
 *  a VM, waking a halted vCPU waits for the host to schedule it, and
 *  with one read in flight per reader that wait idled the pool and
 *  made throughput follow the host's load. */
MixResult
runMix(serve::Session& session, serve::MatrixRegistry& registry,
       Writer& writer, const OracleSet& oracle, double seconds,
       SpanLog* log, Tally& tally)
{
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    std::vector<MixResult> per(kReaders);
    std::vector<Tally> tallies(kReaders);
    std::vector<std::vector<Span>> spans(kReaders + 1);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders; ++t)
        threads.emplace_back([&, t] {
            MixResult& r = per[static_cast<std::size_t>(t)];
            Tally& tl = tallies[static_cast<std::size_t>(t)];
            std::vector<Span>* sink =
                log ? &spans[static_cast<std::size_t>(t)] : nullptr;
            serve::RequestOptions options;
            options.priority = serve::Priority::kHigh;
            Clock::time_point last = Clock::now();
            for (std::uint64_t i = 0; Clock::now() < end && !stop; ++i) {
                const int v = static_cast<int>((t + i) % kVariants);
                const Clock::time_point t0 = Clock::now();
                r.lagUs.push_back(usBetween(last, t0));
                const std::uint64_t lo = writer.done();
                serve::Result<std::vector<Value>> result = serve::Status(
                    serve::StatusCode::kInternal, "not submitted");
                {
                    ScopedSpan span(sink, "serve.session_spmv", i);
                    auto answer = session.submit(serve::SpmvRequest{
                        kMatrixName,
                        oracle.x[static_cast<std::size_t>(v)], options});
                    while (answer.wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready)
                        cpuRelax();
                    result = answer.get();
                }
                last = Clock::now();
                const std::uint64_t hi = writer.started();
                const char* bad = !result.ok()
                    ? nullptr
                    : writer.log().check(result.value(), v, lo, hi);
                const double at = usBetween(start, last) / 1e6;
                if (!result.ok()) {
                    if (result.status().code() ==
                        serve::StatusCode::kOverloaded)
                        ++r.rejected;
                    tl.fail(statusName(result.status()));
                    r.samples.push_back({at, kFailedLatencyUs, false});
                } else if (bad) {
                    tl.fail(bad);
                    r.samples.push_back({at, kFailedLatencyUs, false});
                } else {
                    tl.ok();
                    r.samples.push_back({at, usBetween(t0, last), true});
                }
            }
        });
    std::exception_ptr writer_error;
    try {
        std::vector<Span>* sink = log ? &spans[kReaders] : nullptr;
        Clock::time_point next = start;
        while (Clock::now() < end) {
            writer.step(session, registry, sink);
            // A step that overran its period delays the script
            // rather than bunching the next mutations together.
            next = std::max(next + kWritePeriod, Clock::now());
            std::this_thread::sleep_until(next);
        }
    } catch (...) {
        writer_error = std::current_exception();
        stop = true;
    }
    for (std::thread& t : threads)
        t.join();
    if (writer_error)
        std::rethrow_exception(writer_error);
    MixResult out;
    out.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    for (int t = 0; t < kReaders; ++t) {
        const auto i = static_cast<std::size_t>(t);
        tally.merge(tallies[i]);
        out.rejected += per[i].rejected;
        out.samples.insert(out.samples.end(), per[i].samples.begin(),
                           per[i].samples.end());
        out.lagUs.insert(out.lagUs.end(), per[i].lagUs.begin(),
                         per[i].lagUs.end());
    }
    if (log)
        for (auto& s : spans)
            log->absorb(s);
    return out;
}

} // namespace

void
runUpdateMix(const Options& o, WorkloadOutput& out)
{
    const fmt::CooMatrix initial =
        patternMatrix(kDim, kDim, kPerRow, o.seed);
    const OracleSet oracle = makeOracleSet(
        fmt::CsrMatrix::fromCoo(initial), kVariants, o.seed,
        o.breakOracle);

    serve::SessionOptions session_options;
    session_options.threads = 1;
    std::unique_ptr<serve::MatrixRegistry> registry;
    std::unique_ptr<serve::Session> session;
    std::vector<double> setup_s, put_ms, encode_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        session.reset();
        registry.reset();
        fmt::CooMatrix copy = initial;
        const Clock::time_point t0 = Clock::now();
        registry = std::make_unique<serve::MatrixRegistry>();
        registry->put(kMatrixName, std::move(copy));
        const Clock::time_point t1 = Clock::now();
        registry->encoded(kMatrixName);
        const Clock::time_point t2 = Clock::now();
        session =
            std::make_unique<serve::Session>(*registry, session_options);
        serve::RequestOptions high;
        high.priority = serve::Priority::kHigh;
        const auto first =
            session
                ->submit(serve::SpmvRequest{kMatrixName, oracle.x[0],
                                            high})
                .get();
        if (first.ok() && sameBits(first.value(), oracle.y[0]))
            out.tally.ok();
        else
            out.tally.fail(first.ok() ? "mismatch"
                                      : statusName(first.status()));
        const Clock::time_point t3 = Clock::now();
        setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());
        put_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        encode_ms.push_back(
            std::chrono::duration<double, std::milli>(t2 - t1).count());
    }

    Writer writer(initial, oracle, o.seed);
    runMix(*session, *registry, writer, oracle, 0.5, nullptr,
           out.tally); // warm-up: checked, not timed

    const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
    const ServeWindow window(session->stats());
    const MixResult r = runMix(*session, *registry, writer, oracle,
                               phase_s, nullptr, out.tally);
    const WindowStats w = windowed(r.samples, r.seconds);
    if (!o.trace) {
        out.endToEnd = {
            {"setup_s", median(setup_s), "s"},
            {"throughput_rps", w.okPerS, "1/s"},
            {"latency_p50_us", w.p50Us, "us"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
        return;
    }

    std::vector<Metric>& m = out.perLayer;
    m = window.close();
    const double batch_mean = window.batchMean();
    m.push_back({"serve.reject_frac",
                 static_cast<double>(r.rejected) /
                     static_cast<double>(std::max<std::size_t>(
                         r.samples.size(), 1)),
                 "frac"});
    m.push_back({"client.send_lag_p90_us", quantile(r.lagUs, 0.9), "us"});
    m.push_back({"client.latency_p90_us", w.p90Us, "us"});
    const MixResult traced = runMix(*session, *registry, writer, oracle,
                                    phase_s, &out.spans, out.tally);
    m.push_back({"obs.trace_overhead_pct",
                 100.0 *
                     (windowed(traced.samples, traced.seconds).p50Us -
                      w.p50Us) /
                     w.p50Us,
                 "%"});

    const MutationTimings& t = writer.timings();
    m.push_back({"registry.apply_updates_us", median(t.applyUpdatesUs),
                 "us"});
    m.push_back({"registry.update_p50_us", median(t.allUs), "us"});
    m.push_back({"registry.reencode_ms", median(t.reencodeMs), "ms"});
    m.push_back({"registry.conversions",
                 static_cast<double>(registry->conversions(kMatrixName)),
                 "count"});
    m.push_back({"registry.reselects",
                 static_cast<double>(registry->reselects(kMatrixName)),
                 "count"});
    m.push_back({"engine.put_ms", median(put_ms), "ms"});
    m.push_back({"engine.encode_ms", median(encode_ms), "ms"});

    session.reset();
    const fmt::CooMatrix content = writer.content();
    LadderInput in{*registry, content, false, batch_mean, 0, o.workDir,
                   o.breakOracle};
    for (Metric& metric : runLadder(in, out.tally))
        m.push_back(metric);
}

} // namespace perfbench
