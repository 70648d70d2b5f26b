/**
 * @file
 * net_loadgen — multi-process closed-loop load generator for
 * smash_serverd, and the end-to-end smoke gate the CI server leg
 * runs.
 *
 * Sweep mode (default): for each connection count in --conns, fork
 * that many worker processes. Each worker opens one connection and
 * runs a closed loop with --window pipelined SpMV requests
 * outstanding; per-request latencies and status counts flow back to
 * the parent over a pipe, which prints one table row per sweep
 * point:
 *
 *   conns window   req/s   p50(us)   p99(us)        ok  overloaded
 *
 * Offered load is the closed-loop product conns x window; pushing
 * it past the server's --max-inflight is how the p99 knee and the
 * kOverloaded column appear.
 *
 * Smoke mode (--smoke): four gates, exit 0 only if all hold —
 *   1. ping round-trips;
 *   2. remote SpMV answers are BIT-IDENTICAL to a local eng::spmv
 *      over the same demo matrix (both sides build it from
 *      net/demo_matrices.hh; dyadic values make the comparison
 *      exact, not approximate);
 *   3. a fail-fast burst observes kOverloaded over the wire while
 *      the requests that found a slot still succeed;
 *   4. a 1 ms deadline observes kDeadlineExceeded over the wire.
 * Gates 1–2 run against the given endpoint. Gates 3–4 need requests
 * to stay queued, so they run against a server the smoke forks
 * itself, whose workers it holds busy until the burst is answered.
 *
 * Metrics mode (--metrics): fetch the server's Prometheus
 * exposition over the wire (Op::kMetrics) and print it verbatim —
 * the CI leg pipes this through grep to assert known families are
 * live on a real endpoint.
 *
 * Chaos mode (--chaos): self-contained resilience gate, no external
 * server needed. Forks a child running an in-process net::Server
 * with the fault injector armed (drops, delays, truncations, header
 * bit-flips, short writes), a tiny admission gate, a tenant quota,
 * the shed ladder, and a fast idle reaper — then hammers it from
 * --chaos-threads RetryingClients. Exit 0 requires every request to
 * eventually succeed BIT-IDENTICAL to the local oracle, the tenant
 * in-flight gauge to drain to zero, and the child to exit 0 on
 * SIGTERM. Prints the retry/reconnect tallies and the server's
 * resilience counters.
 *
 * Endpoint flags: --unix PATH | --tcp PORT [--host H] — exactly one
 * transport (chaos mode needs neither). Sweep knobs: --conns
 * A,B,... --window N --duration-ms D. After a sweep the server's
 * resilience counters (sheds, quota rejects, injected faults,
 * reaped connections) are fetched and printed when present.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "engine/dispatch.hh"
#include "formats/csr_matrix.hh"
#include "net/client.hh"
#include "net/demo_matrices.hh"
#include "net/fault.hh"
#include "net/retry_client.hh"
#include "net/server.hh"
#include "sim/exec_model.hh"
#include "../tests/worker_pin.hh"

namespace
{

using namespace smash;
using Clock = std::chrono::steady_clock;

struct Endpoint
{
    std::string unixPath;
    std::string host = "localhost";
    int tcpPort = -1;
};

bool
connectClient(net::Client& client, const Endpoint& ep,
              std::string& error)
{
    if (!ep.unixPath.empty())
        return client.connectUnixSocket(ep.unixPath, error);
    return client.connectTcpSocket(
        ep.host, static_cast<std::uint16_t>(ep.tcpPort), error);
}

/** Per-worker tallies shipped parent-ward over the pipe. */
struct WorkerStats
{
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t deadline = 0;
    std::uint64_t quota = 0;
    std::uint64_t other = 0;
    std::vector<std::uint32_t> latencies_us; //!< ok requests only
};

/** Pipes are plain fds — read/write, not the socket helpers. */
bool
writeAll(int fd, const void* buf, std::size_t n)
{
    const auto* p = static_cast<const std::uint8_t*>(buf);
    std::size_t sent = 0;
    while (sent < n) {
        const ssize_t r = ::write(fd, p + sent, n - sent);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        sent += static_cast<std::size_t>(r);
    }
    return true;
}

bool
readAll(int fd, void* buf, std::size_t n)
{
    auto* p = static_cast<std::uint8_t*>(buf);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        got += static_cast<std::size_t>(r);
    }
    return true;
}

/** Closed loop in a forked worker: keep @p window SpMV requests
 *  outstanding until the deadline, then ship stats and _exit. */
void
runWorker(const Endpoint& ep, int pipe_fd, int duration_ms,
          int window, int seed)
{
    WorkerStats stats;
    net::Client client;
    std::string error;
    if (connectClient(client, ep, error)) {
        std::unordered_map<std::uint64_t, Clock::time_point> sent;
        const Clock::time_point end =
            Clock::now() + std::chrono::milliseconds(duration_ms);
        int variant = seed;
        const auto sendOne = [&] {
            serve::SpmvRequest req{"ranker",
                                   net::demoVector(variant++), {}};
            const std::uint64_t id = client.sendSpmv(req);
            if (id != 0)
                sent.emplace(id, Clock::now());
            return id != 0;
        };
        for (int i = 0; i < window && sendOne(); ++i) {
        }
        while (!sent.empty()) {
            const std::optional<net::Client::SpmvResponse> resp =
                client.readSpmvResponse();
            if (!resp)
                break;
            const Clock::time_point now = Clock::now();
            const auto it = sent.find(resp->id);
            switch (resp->result.status().code()) {
              case serve::StatusCode::kOk:
                  ++stats.ok;
                  if (it != sent.end() &&
                      stats.latencies_us.size() < (1u << 18))
                      stats.latencies_us.push_back(
                          static_cast<std::uint32_t>(
                              std::chrono::duration_cast<
                                  std::chrono::microseconds>(
                                  now - it->second)
                                  .count()));
                  break;
              case serve::StatusCode::kOverloaded:
                  ++stats.overloaded;
                  break;
              case serve::StatusCode::kDeadlineExceeded:
                  ++stats.deadline;
                  break;
              case serve::StatusCode::kQuotaExceeded:
                  ++stats.quota;
                  break;
              default:
                  ++stats.other;
                  break;
            }
            if (it != sent.end())
                sent.erase(it);
            if (now < end)
                sendOne();
        }
    }
    const std::uint64_t header[6] = {
        stats.ok, stats.overloaded, stats.deadline, stats.quota,
        stats.other, stats.latencies_us.size()};
    writeAll(pipe_fd, header, sizeof(header));
    if (!stats.latencies_us.empty())
        writeAll(pipe_fd, stats.latencies_us.data(),
                 stats.latencies_us.size() * sizeof(std::uint32_t));
    ::close(pipe_fd);
    ::_exit(0);
}

std::uint32_t
percentile(std::vector<std::uint32_t>& v, double p)
{
    if (v.empty())
        return 0;
    const std::size_t at = std::min(
        v.size() - 1,
        static_cast<std::size_t>(p * double(v.size())));
    std::nth_element(v.begin(), v.begin() + long(at), v.end());
    return v[at];
}

/** One sweep point: fork @p conns workers, merge their stats. */
bool
runSweepPoint(const Endpoint& ep, int conns, int window,
              int duration_ms)
{
    std::vector<pid_t> pids;
    std::vector<int> read_fds;
    for (int c = 0; c < conns; ++c) {
        int fds[2];
        if (::pipe(fds) != 0) {
            std::cerr << "pipe: " << std::strerror(errno) << "\n";
            return false;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::cerr << "fork: " << std::strerror(errno) << "\n";
            return false;
        }
        if (pid == 0) {
            ::close(fds[0]);
            for (int fd : read_fds)
                ::close(fd);
            runWorker(ep, fds[1], duration_ms, window, c * 9973);
        }
        ::close(fds[1]);
        pids.push_back(pid);
        read_fds.push_back(fds[0]);
    }

    WorkerStats total;
    bool ok = true;
    for (int fd : read_fds) {
        std::uint64_t header[6];
        if (!readAll(fd, header, sizeof(header))) {
            ok = false;
        } else {
            total.ok += header[0];
            total.overloaded += header[1];
            total.deadline += header[2];
            total.quota += header[3];
            total.other += header[4];
            std::vector<std::uint32_t> lat(header[5]);
            if (!lat.empty() &&
                !readAll(fd, lat.data(),
                         lat.size() * sizeof(std::uint32_t)))
                ok = false;
            total.latencies_us.insert(total.latencies_us.end(),
                                      lat.begin(), lat.end());
        }
        ::close(fd);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }

    const double secs = double(duration_ms) / 1000.0;
    const double rate = double(total.ok) / secs;
    std::printf("%5d %6d %9.0f %9u %9u %9llu %11llu %7llu\n", conns,
                window, rate,
                percentile(total.latencies_us, 0.50),
                percentile(total.latencies_us, 0.99),
                static_cast<unsigned long long>(total.ok),
                static_cast<unsigned long long>(total.overloaded),
                static_cast<unsigned long long>(total.quota));
    return ok && total.ok > 0;
}

/** Fetch + print the server's resilience counter families (sheds,
 *  quota rejects, injected faults, reaped conns), when any fired. */
void
printResilienceCounters(const Endpoint& ep)
{
    net::Client client;
    std::string error;
    if (!connectClient(client, ep, error))
        return;
    const serve::Result<std::string> text = client.metrics();
    if (!text.ok())
        return;
    std::istringstream lines(text.value());
    std::string line;
    bool any = false;
    while (std::getline(lines, line)) {
        if (line.rfind("smash_shed", 0) == 0 ||
            line.rfind("smash_tenant", 0) == 0 ||
            line.rfind("smash_net_faults", 0) == 0 ||
            line.rfind("smash_net_conns_reaped", 0) == 0) {
            if (!any)
                std::cout << "server resilience counters:\n";
            any = true;
            std::cout << "  " << line << "\n";
        }
    }
}

/** Local bit-exact oracle for the demo "ranker" SpMV. */
/** A net::Server in a forked child, on its own Unix socket. */
struct ChildServer
{
    pid_t pid = -1;
    std::string sockPath;
};

/** The child's body: serve the demo registry with @p options and
 *  @p faults armed, optionally holding every worker busy (WorkerPin)
 *  until SIGUSR1. Signals readiness with one byte on @p ready_fd,
 *  then drains on SIGTERM and exits 0. */
[[noreturn]] void
runChildServer(int ready_fd, const net::ServerOptions& options,
               const net::FaultConfig& faults, bool pin)
{
    net::FaultInjector::global().configure(faults);

    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    serve::MatrixRegistry registry;
    net::populateDemoRegistry(registry, 1);
    net::Server server(registry, options);
    std::string error;
    if (!server.start(error)) {
        std::cerr << "forked server: " << error << "\n";
        ::_exit(1);
    }
    std::optional<testing::WorkerPin> held;
    if (pin) {
        held.emplace(server.session(), "ranker", net::demoVector(0));
        if (!held->pinned()) {
            std::cerr << "forked server: could not hold its workers\n";
            ::_exit(1);
        }
    }
    const char ready = 'k';
    writeAll(ready_fd, &ready, 1);
    ::close(ready_fd);

    for (int sig = 0; sig != SIGTERM;) {
        sigwait(&signals, &sig);
        if (held)
            held->release();
    }
    server.shutdown();
    ::_exit(0);
}

/** Fork a child running runChildServer on /tmp/smash_<tag>_<pid>.sock
 *  and wait until it listens; pid -1 (reported) on failure. */
ChildServer
forkServer(const std::string& tag, net::ServerOptions options,
           const net::FaultConfig& faults, bool pin)
{
    ChildServer child;
    child.sockPath = "/tmp/smash_" + tag + "_" +
        std::to_string(::getpid()) + ".sock";
    options.unixPath = child.sockPath;
    int ready_fds[2];
    if (::pipe(ready_fds) != 0) {
        std::cerr << tag << ": pipe: " << std::strerror(errno) << "\n";
        return child;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::cerr << tag << ": fork: " << std::strerror(errno) << "\n";
        ::close(ready_fds[0]);
        ::close(ready_fds[1]);
        return child;
    }
    if (pid == 0) {
        ::close(ready_fds[0]);
        runChildServer(ready_fds[1], options, faults, pin);
    }
    ::close(ready_fds[1]);
    char ready = 0;
    const bool up = readAll(ready_fds[0], &ready, 1);
    ::close(ready_fds[0]);
    if (!up) {
        std::cerr << tag << ": server never became ready\n";
        ::waitpid(pid, nullptr, 0);
        return child;
    }
    child.pid = pid;
    return child;
}

/** SIGTERM the child, reap it and remove its socket; true when it
 *  exited 0. */
bool
stopServer(const ChildServer& child)
{
    ::kill(child.pid, SIGTERM);
    int status = 0;
    ::waitpid(child.pid, &status, 0);
    ::unlink(child.sockPath.c_str());
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<Value>
localSpmv(const fmt::CsrMatrix& csr, const std::vector<Value>& x)
{
    sim::NativeExec e;
    std::vector<Value> y(static_cast<std::size_t>(csr.rows()),
                         Value(0));
    eng::spmv(csr, x, y, e);
    return y;
}

int
runSmoke(const Endpoint& ep)
{
    net::Client client;
    std::string error;
    if (!connectClient(client, ep, error)) {
        std::cerr << "smoke: connect failed: " << error << "\n";
        return 1;
    }

    // Gate 1: liveness.
    const serve::Status pong = client.ping();
    if (!pong.ok()) {
        std::cerr << "smoke: ping failed: " << pong.message() << "\n";
        return 1;
    }

    // Gate 2: remote results bit-identical to the local engine.
    const fmt::CsrMatrix csr =
        fmt::CsrMatrix::fromCoo(net::demoRanker());
    for (int seed = 0; seed < 4; ++seed) {
        const std::vector<Value> x = net::demoVector(seed);
        serve::Result<std::vector<Value>> r =
            client.spmv(serve::SpmvRequest{"ranker", x, {}});
        if (!r.ok()) {
            std::cerr << "smoke: spmv failed: "
                      << r.status().message() << "\n";
            return 1;
        }
        const std::vector<Value> expect = localSpmv(csr, x);
        if (r.value().size() != expect.size() ||
            std::memcmp(r.value().data(), expect.data(),
                        expect.size() * sizeof(Value)) != 0) {
            std::cerr << "smoke: remote spmv differs from local "
                         "oracle (seed "
                      << seed << ")\n";
            return 1;
        }
    }

    // Gates 3 and 4 run against a forked server whose workers are
    // held busy until SIGUSR1: admitted requests stay queued, so
    // every outcome is fixed. Its gate has room for the 2 pins plus
    // kQueued requests: the 1 ms deadline request, then kQueued - 1
    // requests of the fail-fast burst. The rest of the burst gets
    // kOverloaded, and those answers arrive first, since nothing
    // admitted can complete before the release.
    constexpr int kPins = 2;
    constexpr int kQueued = 4;
    constexpr int kBurst = 32;
    net::ServerOptions child_options;
    child_options.session.threads = kPins;
    child_options.session.maxInflight = kPins + kQueued;
    const ChildServer child =
        forkServer("smoke", child_options, net::FaultConfig{}, true);
    if (child.pid < 0)
        return 1;
    net::Client held;
    if (!held.connectUnixSocket(child.sockPath, error)) {
        std::cerr << "smoke: connect to forked server failed: " << error
                  << "\n";
        stopServer(child);
        return 1;
    }
    serve::RequestOptions tight;
    tight.deadline = std::chrono::milliseconds(1);
    serve::RequestOptions burst_options;
    burst_options.priority = serve::Priority::kBatch;
    burst_options.admission = serve::Admission::kFailFast;
    int sent = held.sendSpmv(serve::SpmvRequest{
                   "ranker", net::demoVector(0), tight}) != 0;
    for (int i = 0; i < kBurst; ++i)
        sent += held.sendSpmv(serve::SpmvRequest{
                    "ranker", net::demoVector(i), burst_options}) != 0;
    std::uint64_t burst_ok = 0, burst_overloaded = 0, expired = 0;
    const int rejected = kBurst - (kQueued - 1);
    for (int i = 0; i < sent; ++i) {
        if (i == rejected) {
            // The deadline request was submitted before any of the
            // rejections were written; 2 ms more and it has expired.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ::kill(child.pid, SIGUSR1);
        }
        const std::optional<net::Client::SpmvResponse> resp =
            held.readSpmvResponse();
        if (!resp) {
            std::cerr << "smoke: burst read failed\n";
            stopServer(child);
            return 1;
        }
        const serve::StatusCode code = resp->result.status().code();
        if (resp->result.ok())
            ++burst_ok;
        else if (code == serve::StatusCode::kOverloaded && i < rejected)
            ++burst_overloaded;
        else if (code == serve::StatusCode::kDeadlineExceeded)
            ++expired;
    }
    held.close();
    const bool child_ok = stopServer(child);
    if (sent != kBurst + 1 || burst_ok != kQueued - 1 ||
        burst_overloaded != static_cast<std::uint64_t>(rejected)) {
        std::cerr << "smoke: burst saw ok=" << burst_ok
                  << " overloaded=" << burst_overloaded << " (expected "
                  << kQueued - 1 << " and " << rejected << ")\n";
        return 1;
    }
    if (expired != 1) {
        std::cerr << "smoke: no kDeadlineExceeded over the wire\n";
        return 1;
    }
    if (!child_ok) {
        std::cerr << "smoke: forked server exited abnormally\n";
        return 1;
    }

    std::cout << "smoke ok: ping, 4 bit-identical spmv round-trips, "
              << "overloaded+ok burst (" << burst_ok << " ok, "
              << burst_overloaded
              << " overloaded), deadline observed\n";
    return 0;
}

int
runMetrics(const Endpoint& ep)
{
    net::Client client;
    std::string error;
    if (!connectClient(client, ep, error)) {
        std::cerr << "metrics: connect failed: " << error << "\n";
        return 1;
    }
    const serve::Result<std::string> text = client.metrics();
    if (!text.ok()) {
        std::cerr << "metrics: " << text.status().message() << "\n";
        return 1;
    }
    std::cout << text.value();
    return 0;
}

int
runChaos(int threads, int requests_per_thread,
         const std::string& fault_spec)
{
    net::FaultConfig faults;
    std::string error;
    if (!net::parseFaultSpec(fault_spec, faults, error)) {
        std::cerr << "chaos: " << error << "\n";
        return 1;
    }
    // The forked chaos server: fault injector armed, a small gate
    // and a per-tenant quota (the run must provoke kOverloaded and
    // kQuotaExceeded, not just transport faults), the shed ladder,
    // and a fast reaper.
    net::ServerOptions options;
    options.session.threads = 2;
    options.session.maxInflight = 8;
    options.tenantQuota.ratePerSec = 2000;
    options.tenantQuota.burst = 64;
    options.tenantQuota.maxInflight = 6;
    options.session.shed.queueTarget =
        std::chrono::microseconds(20000);
    options.idleTimeout = std::chrono::milliseconds(250);
    const ChildServer child = forkServer("chaos", options, faults, false);
    if (child.pid < 0)
        return 1;
    const std::string& sock_path = child.sockPath;

    const fmt::CsrMatrix csr =
        fmt::CsrMatrix::fromCoo(net::demoRanker());

    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> gave_up{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> reconnects{0};

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            net::Endpoint ep;
            ep.unixPath = sock_path;
            net::RetryPolicy policy;
            policy.maxAttempts = 6;
            policy.initialBackoff = std::chrono::milliseconds(1);
            policy.maxBackoff = std::chrono::milliseconds(40);
            policy.jitterSeed = 77 + std::uint64_t(t);
            policy.retryBudgetCap = 0; // chaos: retry to completion
            net::RetryingClient rc(ep, policy,
                                   "chaos-" + std::to_string(t));
            for (int i = 0; i < requests_per_thread; ++i) {
                const std::vector<Value> x =
                    net::demoVector(t * 131 + i);
                const std::vector<Value> expect = localSpmv(csr, x);
                // RetryPolicy bounds one call; the outer loop keeps
                // calling until the request set is complete (the
                // battery's promise), with a wall-clock escape so a
                // wedged server cannot hang the gate forever.
                const Clock::time_point give_up_at =
                    Clock::now() + std::chrono::seconds(30);
                bool done = false;
                while (!done && Clock::now() < give_up_at) {
                    serve::Result<std::vector<Value>> r = rc.spmv(
                        serve::SpmvRequest{"ranker", x, {}});
                    if (!r.ok())
                        continue;
                    if (r.value().size() != expect.size() ||
                        std::memcmp(r.value().data(), expect.data(),
                                    expect.size() * sizeof(Value)) !=
                            0)
                        mismatches.fetch_add(1);
                    completed.fetch_add(1);
                    done = true;
                }
                if (!done) {
                    gave_up.fetch_add(1);
                    break;
                }
            }
            retries.fetch_add(rc.stats().retries);
            reconnects.fetch_add(rc.stats().reconnects);
        });
    for (std::thread& w : workers)
        w.join();

    // Leak probe before teardown: with every response resolved the
    // tenant in-flight gauge must read 0 on a fresh scrape.
    bool leak = false;
    bool probed = false;
    {
        Endpoint ep;
        ep.unixPath = sock_path;
        // The probe connection eats injected faults too — retry the
        // scrape on a fresh connection until one gets through.
        for (int attempt = 0; attempt < 8 && !probed; ++attempt) {
            net::Client probe;
            std::string error;
            if (!connectClient(probe, ep, error))
                continue;
            const serve::Result<std::string> text = probe.metrics();
            if (!text.ok())
                continue;
            probed = true;
            std::istringstream lines(text.value());
            std::string line;
            while (std::getline(lines, line)) {
                if (line.rfind("smash_tenant_inflight ", 0) == 0 &&
                    line != "smash_tenant_inflight 0")
                    leak = true;
            }
        }
        printResilienceCounters(ep);
    }

    const bool clean_exit = stopServer(child);

    const std::uint64_t expected =
        std::uint64_t(threads) * std::uint64_t(requests_per_thread);
    std::cout << "chaos: " << completed.load() << "/" << expected
              << " requests completed, " << mismatches.load()
              << " mismatches, " << retries.load() << " retries, "
              << reconnects.load() << " reconnects, child "
              << (clean_exit ? "exited 0" : "EXITED ABNORMALLY")
              << (leak ? ", TENANT SLOT LEAK" : "") << "\n";

    const bool pass = completed.load() == expected &&
        mismatches.load() == 0 && gave_up.load() == 0 && clean_exit &&
        probed && !leak;
    std::cout << (pass ? "chaos ok\n" : "chaos FAILED\n");
    return pass ? 0 : 1;
}

int
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0
        << " (--unix PATH | --tcp PORT [--host H]) "
           "[--smoke | --metrics]\n"
        << "       [--conns A,B,...] [--window N] [--duration-ms D]\n"
        << "       | --chaos [--chaos-threads T] "
           "[--chaos-requests N] [--chaos-faults SPEC]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Endpoint ep;
    bool smoke = false;
    bool metrics = false;
    bool chaos = false;
    int chaos_threads = 4;
    int chaos_requests = 150;
    std::string chaos_faults =
        "drop=0.03,delay=0.03:1,truncate=0.03,bitflip=0.03,"
        "short=0.08,seed=42";
    std::vector<int> conns = {1, 2, 4, 8};
    int window = 4;
    int duration_ms = 2000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--unix" && has_value) {
            ep.unixPath = argv[++i];
        } else if (arg == "--tcp" && has_value) {
            ep.tcpPort = std::atoi(argv[++i]);
        } else if (arg == "--host" && has_value) {
            ep.host = argv[++i];
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--metrics") {
            metrics = true;
        } else if (arg == "--chaos") {
            chaos = true;
        } else if (arg == "--chaos-threads" && has_value) {
            chaos_threads = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--chaos-requests" && has_value) {
            chaos_requests = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--chaos-faults" && has_value) {
            chaos_faults = argv[++i];
        } else if (arg == "--window" && has_value) {
            window = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--duration-ms" && has_value) {
            duration_ms = std::max(50, std::atoi(argv[++i]));
        } else if (arg == "--conns" && has_value) {
            conns.clear();
            std::string list = argv[++i];
            for (std::size_t at = 0; at < list.size();) {
                const std::size_t comma = list.find(',', at);
                const std::string tok =
                    list.substr(at, comma - at);
                if (const int n = std::atoi(tok.c_str()); n > 0)
                    conns.push_back(n);
                at = comma == std::string::npos ? list.size()
                                                : comma + 1;
            }
            if (conns.empty())
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    if (chaos) // self-contained: forks its own server
        return runChaos(chaos_threads, chaos_requests, chaos_faults);
    if (ep.unixPath.empty() == (ep.tcpPort < 0))
        return usage(argv[0]); // exactly one transport

    if (metrics)
        return runMetrics(ep);
    if (smoke)
        return runSmoke(ep);

    std::printf("%5s %6s %9s %9s %9s %9s %11s %7s\n", "conns",
                "window", "req/s", "p50(us)", "p99(us)", "ok",
                "overloaded", "quota");
    bool all_ok = true;
    for (const int c : conns)
        all_ok = runSweepPoint(ep, c, window, duration_ms) && all_ok;
    printResilienceCounters(ep);
    return all_ok ? 0 : 1;
}
