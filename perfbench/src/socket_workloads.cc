/**
 * @file
 * rpc-small and bulk-sharded: the two workloads that reach the
 * served stack over a Unix socket.
 */

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include "common/rng.hh"
#include "served.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace smash;

namespace
{

/** Shape of one socket workload. */
struct SocketSpec
{
    bool sharded = false;
    int connections = 2;
    int setupReps = 5;
    int variants = 4;
    /** Offered rate of the open loop; 0 runs the closed loop. */
    double openRps = 0;
};

/** Timings of one set-up, in seconds. */
struct SetupTimes
{
    double total = 0;  //!< registration → first correct answer
    double put = 0;    //!< put() / registerSharded()
    double encode = 0; //!< cold encoded() (unsharded entries)
};

/** One measurement phase's raw samples. */
struct LoadResult
{
    std::vector<Sample> samples; //!< one per attempted request
    std::vector<double> lagUs;   //!< generator lateness / turnaround
    std::uint64_t rejected = 0;  //!< overloaded + quota answers
    double seconds = 0;
};

/** Check one answer against the oracle and count it. */
bool
account(const serve::Result<std::vector<Value>>& result,
        const std::vector<Value>& expect, Tally& tally,
        std::uint64_t& rejected)
{
    if (!result.ok()) {
        const serve::StatusCode code = result.status().code();
        if (code == serve::StatusCode::kOverloaded ||
            code == serve::StatusCode::kQuotaExceeded)
            ++rejected;
        tally.fail(statusName(result.status()));
        return false;
    }
    if (!sameBits(result.value(), expect)) {
        tally.fail("mismatch");
        return false;
    }
    tally.ok();
    return true;
}

std::string
socketPath(const Options& o, int rep)
{
    return o.workDir + "/s" + std::to_string(::getpid()) + "-" +
        std::to_string(rep) + ".sock";
}

/** Registration → server start → connect + hello → first correct
 *  answer, on a fresh registry. Input generation (the COO copy) is
 *  outside the timed span. */
SetupTimes
setupOnce(Served& s, const fmt::CooMatrix& coo, const SocketSpec& spec,
          const std::string& path, const OracleSet& oracle,
          Tally& tally)
{
    fmt::CooMatrix copy = coo;
    s.socket.path = path;
    SetupTimes t;
    const Clock::time_point t0 = Clock::now();
    s.registry = std::make_unique<serve::MatrixRegistry>();
    if (spec.sharded)
        s.registry->registerSharded(kMatrixName, std::move(copy),
                                    kShards);
    else
        s.registry->put(kMatrixName, std::move(copy));
    const Clock::time_point t1 = Clock::now();
    if (!spec.sharded)
        s.registry->encoded(kMatrixName);
    const Clock::time_point t2 = Clock::now();
    s.server = std::make_unique<net::Server>(
        *s.registry, armedServerOptions(path, spec.openRps));
    std::string error;
    if (!s.server->start(error))
        throw std::runtime_error("server start: " + error);
    for (int c = 0; c < spec.connections; ++c) {
        auto conn = std::make_unique<WireConn>();
        if (!conn->connect(path, error) || !conn->hello(kTenant, error))
            throw std::runtime_error("connect: " + error);
        s.conns.push_back(std::move(conn));
    }
    std::uint64_t rejected = 0;
    if (!s.conns[0]->send(1, oracle.x[0], {}, nullptr))
        throw std::runtime_error("first request: write failed");
    const auto response = s.conns[0]->receive(nullptr);
    if (!response)
        throw std::runtime_error("first request: no answer");
    account(response->result, oracle.y[0], tally, rejected);
    const Clock::time_point t3 = Clock::now();
    t.put = std::chrono::duration<double>(t1 - t0).count();
    t.encode = std::chrono::duration<double>(t2 - t1).count();
    t.total = std::chrono::duration<double>(t3 - t0).count();
    return t;
}

/**
 * Open loop: requests are due on a seeded Poisson schedule at
 * @p rps, spread round-robin over the connections, and each one is
 * timed from when it was due — a stalled server delays every later
 * answer instead of slowing the sender down. One generator thread
 * sends; one receiver thread polls every connection.
 */
LoadResult
openLoop(Served& s, const OracleSet& oracle, double rps, double seconds,
         std::uint64_t seed, SpanLog* log, Tally& tally)
{
    std::vector<double> due_s;
    {
        Rng rng(seed, 0x0be7);
        double t = 0;
        for (;;) {
            t += -std::log(1.0 - rng.uniform()) / rps;
            if (t >= seconds)
                break;
            due_s.push_back(t);
        }
    }
    const std::size_t n = due_s.size();
    const auto conns = static_cast<std::size_t>(s.conns.size());
    const auto variants = oracle.x.size();

    LoadResult out;
    out.seconds = seconds;
    std::vector<double> latency(n, kFailedLatencyUs);
    std::vector<char> send_failed(n, 0);
    std::vector<double> lag;
    lag.reserve(n);
    std::atomic<std::size_t> sent{0};
    std::atomic<bool> generator_done{false};
    std::vector<Span> gen_spans, recv_spans;
    std::vector<Span>* gen_sink = log ? &gen_spans : nullptr;
    std::vector<Span>* recv_sink = log ? &recv_spans : nullptr;
    Tally recv_tally;
    std::uint64_t rejected = 0;

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    const std::int64_t start_ns =
        nowNs() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start - Clock::now())
                      .count();
    const auto dueAt = [&](std::size_t i) {
        return start +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(due_s[i]));
    };

    std::thread generator([&] {
        // Sleep with 1 ns timer slack so wake-ups land on the
        // schedule instead of up to 50 us late.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (std::size_t i = 0; i < n; ++i) {
            const Clock::time_point due = dueAt(i);
            if (Clock::now() < due)
                std::this_thread::sleep_until(due);
            lag.push_back(usBetween(due, Clock::now()));
            if (!s.conns[i % conns]->send(i + 1, oracle.x[i % variants],
                                          {}, gen_sink))
                send_failed[i] = 1;
            sent.store(i + 1, std::memory_order_release);
        }
        generator_done.store(true, std::memory_order_release);
    });

    std::thread receiver([&] {
        std::vector<pollfd> fds(conns);
        for (std::size_t c = 0; c < conns; ++c)
            fds[c] = pollfd{s.conns[c]->fd(), POLLIN, 0};
        std::size_t received = 0;
        Clock::time_point give_up = Clock::time_point::max();
        bool broken = false;
        while (!broken && received < n) {
            if (generator_done.load(std::memory_order_acquire)) {
                if (give_up == Clock::time_point::max())
                    give_up = Clock::now() + std::chrono::seconds(5);
                if (Clock::now() > give_up)
                    break;
            }
            if (::poll(fds.data(), fds.size(), 20) <= 0)
                continue;
            for (std::size_t c = 0; c < conns && !broken; ++c) {
                if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                auto response = s.conns[c]->receive(recv_sink);
                if (!response || response->id == 0 ||
                    response->id > n) {
                    broken = true;
                    break;
                }
                const std::size_t i = response->id - 1;
                ++received;
                if (account(response->result, oracle.y[i % variants],
                            recv_tally, rejected)) {
                    latency[i] = usBetween(dueAt(i), Clock::now());
                    if (recv_sink)
                        recv_sink->push_back(Span{
                            "client.request", "",
                            start_ns + static_cast<std::int64_t>(
                                           due_s[i] * 1e9),
                            nowNs(), response->id});
                }
            }
        }
        // Anything sent but never answered failed.
        const std::size_t total = sent.load(std::memory_order_acquire);
        for (std::size_t k = received; k < total; ++k)
            recv_tally.fail("no_answer");
    });
    generator.join();
    receiver.join();

    for (std::size_t i = 0; i < n; ++i)
        if (send_failed[i])
            recv_tally.fail("send_failed");
    tally.merge(recv_tally);
    out.rejected = rejected;
    for (std::size_t i = 0; i < n; ++i)
        out.samples.push_back(
            {due_s[i], latency[i], latency[i] < kFailedLatencyUs});
    out.lagUs = std::move(lag);
    if (log) {
        log->absorb(gen_spans);
        log->absorb(recv_spans);
    }
    return out;
}

/**
 * Closed loop: each connection is one caller that sends a request,
 * waits for its answer, checks it and sends the next. The lag
 * samples are the caller's own turnaround between an answer and
 * its next send.
 */
LoadResult
closedLoop(Served& s, const OracleSet& oracle, double seconds,
           SpanLog* log, Tally& tally)
{
    const std::size_t callers = s.conns.size();
    const auto variants = oracle.x.size();
    std::vector<LoadResult> per(callers);
    std::vector<Tally> tallies(callers);
    std::vector<std::vector<Span>> spans(callers);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < callers; ++c)
        threads.emplace_back([&, c] {
            WireConn& conn = *s.conns[c];
            LoadResult& r = per[c];
            const auto record = [&](double us) {
                r.samples.push_back(
                    {usBetween(start, Clock::now()) / 1e6, us,
                     us < kFailedLatencyUs});
            };
            std::vector<Span>* sink = log ? &spans[c] : nullptr;
            Clock::time_point last = Clock::now();
            for (std::uint64_t i = 0; Clock::now() < end; ++i) {
                const std::size_t v = (c + callers * i) % variants;
                const Clock::time_point t0 = Clock::now();
                r.lagUs.push_back(usBetween(last, t0));
                const std::uint64_t id = i + 1;
                ScopedSpan span(sink, "client.request", id);
                if (!conn.send(id, oracle.x[v], {}, sink)) {
                    tallies[c].fail("send_failed");
                    record(kFailedLatencyUs);
                    break;
                }
                auto response = conn.receive(sink, id);
                last = Clock::now();
                if (!response) {
                    tallies[c].fail("no_answer");
                    record(kFailedLatencyUs);
                    break;
                }
                record(account(response->result, oracle.y[v],
                               tallies[c], r.rejected)
                           ? usBetween(t0, last)
                           : kFailedLatencyUs);
            }
        });
    for (std::thread& t : threads)
        t.join();
    LoadResult out;
    out.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    for (std::size_t c = 0; c < callers; ++c) {
        tally.merge(tallies[c]);
        out.rejected += per[c].rejected;
        out.samples.insert(out.samples.end(), per[c].samples.begin(),
                           per[c].samples.end());
        out.lagUs.insert(out.lagUs.end(), per[c].lagUs.begin(),
                         per[c].lagUs.end());
        if (log)
            log->absorb(spans[c]);
    }
    return out;
}

void
runSocketWorkload(const Options& o, const SocketSpec& spec,
                  const fmt::CooMatrix& coo, WorkloadOutput& out)
{
    const fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    const OracleSet oracle =
        makeOracleSet(csr, spec.variants, o.seed, o.breakOracle);

    std::unique_ptr<Served> served;
    std::vector<double> setup_s, put_ms, encode_ms;
    for (int rep = 0; rep < spec.setupReps; ++rep) {
        served.reset();
        served = std::make_unique<Served>();
        const SetupTimes t = setupOnce(*served, coo, spec,
                                       socketPath(o, rep), oracle,
                                       out.tally);
        setup_s.push_back(t.total);
        put_ms.push_back(t.put * 1e3);
        encode_ms.push_back(t.encode * 1e3);
    }

    const auto load = [&](double seconds, std::uint64_t phase,
                          SpanLog* log) {
        return spec.openRps > 0
            ? openLoop(*served, oracle, spec.openRps, seconds,
                       o.seed * 7 + phase, log, out.tally)
            : closedLoop(*served, oracle, seconds, log, out.tally);
    };
    load(0.5, 1, nullptr); // warm-up: checked, not timed

    const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
    const serve::PipelineStats& stats = served->server->session().stats();
    const ServeWindow window(stats);
    const Tally before = out.tally;
    const LoadResult r = load(phase_s, 2, nullptr);
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
    const std::uint64_t attempted =
        out.tally.attempted() - before.attempted();
    m.push_back({"serve.reject_frac",
                 static_cast<double>(r.rejected) /
                     static_cast<double>(std::max<std::uint64_t>(
                         attempted, 1)),
                 "frac"});
    m.push_back({"client.send_lag_p90_us", quantile(r.lagUs, 0.9), "us"});
    m.push_back({"client.latency_p90_us", w.p90Us, "us"});
    const double batch_mean = window.batchMean();

    const LoadResult traced = load(phase_s, 3, &out.spans);
    m.push_back({"obs.trace_overhead_pct",
                 100.0 *
                     (windowed(traced.samples, traced.seconds).p50Us -
                      w.p50Us) /
                     w.p50Us,
                 "%"});
    m.push_back({"engine.put_ms", median(put_ms), "ms"});

    served->conns.clear();
    served->server.reset();
    LadderInput in{*served->registry, coo, spec.sharded, batch_mean,
                   spec.openRps, o.workDir, o.breakOracle};
    for (Metric& metric : runLadder(in, out.tally))
        m.push_back(metric);
    if (!spec.sharded)
        m.push_back({"engine.encode_ms", median(encode_ms), "ms"});
    served.reset();
    for (Metric& metric : registryProbe(coo, spec.sharded, out.tally))
        m.push_back(metric);
}

} // namespace

void
runRpcSmall(const Options& o, WorkloadOutput& out)
{
    SocketSpec spec;
    spec.sharded = false;
    spec.connections = 2;
    spec.setupReps = 75;
    spec.variants = 16;
    // Far below capacity: at 4000 req/s and up, a spell of host CPU
    // steal let queues build and moved p50 by 2-3x between runs.
    spec.openRps = 2000;
    runSocketWorkload(o, spec, patternMatrix(1024, 1024, 8, o.seed),
                      out);
}

void
runBulkSharded(const Options& o, WorkloadOutput& out)
{
    SocketSpec spec;
    spec.sharded = true;
    spec.connections = 2;
    spec.setupReps = 9;
    spec.variants = 4;
    runSocketWorkload(o, spec, clusteredMatrix(32768, 5, 8, o.seed),
                      out);
}

} // namespace perfbench
