/**
 * @file
 * smash_serverd — the SMASH serving daemon: a net::Server over the
 * built-in demo registry (net/demo_matrices.hh), listening on a
 * Unix-domain socket and/or TCP.
 *
 *   smash_serverd --unix /tmp/smash.sock
 *   smash_serverd --tcp 7450 --threads 8 --max-inflight 64
 *   smash_serverd --unix /tmp/smash.sock --tcp 0   # ephemeral port
 *
 * Flags:
 *   --unix PATH              Unix-domain listener (stale socket
 *                            files are replaced)
 *   --tcp PORT               TCP listener; 0 binds an ephemeral
 *                            port and prints it
 *   --threads N              session pool workers (default 4)
 *   --max-inflight N         global admission cap (default 64;
 *                            0 = unbounded)
 *   --max-inflight-per-conn N  per-connection cap (default 0)
 *   --shards K               register the demo matrices sharded
 *                            into K row bands (default 1 = plain);
 *                            wire answers are bit-identical either
 *                            way
 *   --idle-timeout MS        reap connections idle this long
 *                            (default 30000; 0 disables the reaper)
 *   --http-metrics PORT      HTTP GET /metrics listener; 0 binds an
 *                            ephemeral port and prints it
 *   --tenant-rate R          default per-tenant token-bucket rate,
 *                            requests/second (0 = unlimited)
 *   --tenant-burst B         token-bucket depth (0 = max(rate, 1))
 *   --tenant-inflight N      per-tenant in-flight cap across all of
 *                            the tenant's connections (0 = none)
 *   --shed-target-us US      queue-latency EWMA target arming the
 *                            degradation ladder (0 = disabled)
 *   --faults SPEC            arm the fault injector (chaos testing;
 *                            see net/fault.hh for the spec format).
 *                            $SMASH_NET_FAULTS works too.
 *
 * Lifecycle: runs until SIGINT/SIGTERM, then drains in flight
 * requests (clients see typed kShuttingDown for anything submitted
 * past that point), tears the listeners down, and exits 0. SIGPIPE
 * is ignored process-wide — a client vanishing mid-response is an
 * EPIPE on that connection, never a daemon death.
 *
 * On startup the daemon prints one "listening" line per transport;
 * scripts (the CI smoke leg) wait for those lines before pointing
 * the load generator at it.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "net/demo_matrices.hh"
#include "net/fault.hh"
#include "net/server.hh"

namespace
{

int
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " [--unix PATH] [--tcp PORT] [--threads N]\n"
              << "       [--max-inflight N] "
                 "[--max-inflight-per-conn N] [--shards K]\n"
              << "       [--idle-timeout MS] [--http-metrics PORT] "
                 "[--shed-target-us US]\n"
              << "       [--tenant-rate R] [--tenant-burst B] "
                 "[--tenant-inflight N] [--faults SPEC]\n"
              << "at least one of --unix / --tcp is required\n";
    return 2;
}

double
parseDouble(const char* s, bool& ok)
{
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    ok = end != s && *end == '\0';
    return v;
}

long
parseLong(const char* s, bool& ok)
{
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    ok = end != s && *end == '\0';
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace smash;

    net::ServerOptions options;
    options.session.threads = 4;
    options.session.maxInflight = 64;
    // Default reaper: a half-open peer may pin a thread for at most
    // 30s. Tests and co-located clients can lower or disable it.
    options.idleTimeout = std::chrono::milliseconds(30000);
    Index shards = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        bool ok = false;
        if (arg == "--unix" && has_value) {
            options.unixPath = argv[++i];
        } else if (arg == "--tcp" && has_value) {
            const long port = parseLong(argv[++i], ok);
            if (!ok || port < 0 || port > 65535)
                return usage(argv[0]);
            options.tcpPort = static_cast<int>(port);
        } else if (arg == "--threads" && has_value) {
            const long n = parseLong(argv[++i], ok);
            if (!ok || n < 1)
                return usage(argv[0]);
            options.session.threads = static_cast<int>(n);
        } else if (arg == "--max-inflight" && has_value) {
            const long n = parseLong(argv[++i], ok);
            if (!ok || n < 0)
                return usage(argv[0]);
            options.session.maxInflight = static_cast<Index>(n);
        } else if (arg == "--max-inflight-per-conn" && has_value) {
            const long n = parseLong(argv[++i], ok);
            if (!ok || n < 0)
                return usage(argv[0]);
            options.maxInflightPerConn = static_cast<Index>(n);
        } else if (arg == "--shards" && has_value) {
            const long n = parseLong(argv[++i], ok);
            if (!ok || n < 1)
                return usage(argv[0]);
            shards = static_cast<Index>(n);
        } else if (arg == "--idle-timeout" && has_value) {
            const long ms = parseLong(argv[++i], ok);
            if (!ok || ms < 0)
                return usage(argv[0]);
            options.idleTimeout = std::chrono::milliseconds(ms);
        } else if (arg == "--http-metrics" && has_value) {
            const long port = parseLong(argv[++i], ok);
            if (!ok || port < 0 || port > 65535)
                return usage(argv[0]);
            options.httpMetricsPort = static_cast<int>(port);
        } else if (arg == "--tenant-rate" && has_value) {
            const double r = parseDouble(argv[++i], ok);
            if (!ok || r < 0)
                return usage(argv[0]);
            options.tenantQuota.ratePerSec = r;
        } else if (arg == "--tenant-burst" && has_value) {
            const double b = parseDouble(argv[++i], ok);
            if (!ok || b < 0)
                return usage(argv[0]);
            options.tenantQuota.burst = b;
        } else if (arg == "--tenant-inflight" && has_value) {
            const long n = parseLong(argv[++i], ok);
            if (!ok || n < 0)
                return usage(argv[0]);
            options.tenantQuota.maxInflight = static_cast<Index>(n);
        } else if (arg == "--shed-target-us" && has_value) {
            const long us = parseLong(argv[++i], ok);
            if (!ok || us < 0)
                return usage(argv[0]);
            options.session.shed.queueTarget =
                std::chrono::microseconds(us);
        } else if (arg == "--faults" && has_value) {
            net::FaultConfig faults;
            std::string fault_error;
            if (!net::parseFaultSpec(argv[++i], faults, fault_error)) {
                std::cerr << "smash_serverd: " << fault_error << "\n";
                return 2;
            }
            net::FaultInjector::global().configure(faults);
        } else {
            return usage(argv[0]);
        }
    }
    if (options.unixPath.empty() && options.tcpPort < 0)
        return usage(argv[0]);

    {
        std::string fault_error;
        if (!net::FaultInjector::global().configureFromEnv(
                fault_error)) {
            std::cerr << "smash_serverd: SMASH_NET_FAULTS: "
                      << fault_error << "\n";
            return 2;
        }
    }

    // Belt and braces with the socket layer's MSG_NOSIGNAL: no
    // vanished client may kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    // Take SIGINT/SIGTERM via sigwait on the main thread: every
    // thread the server spawns inherits this mask, so no handler
    // races the accept/read loops.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    serve::MatrixRegistry registry;
    net::populateDemoRegistry(registry, shards);

    net::Server server(registry, options);
    std::string error;
    if (!server.start(error)) {
        std::cerr << "smash_serverd: " << error << "\n";
        return 1;
    }
    if (!options.unixPath.empty())
        std::cout << "listening unix " << options.unixPath << "\n";
    if (options.tcpPort >= 0)
        std::cout << "listening tcp " << server.tcpPort() << "\n";
    if (options.httpMetricsPort >= 0)
        std::cout << "listening http " << server.httpMetricsPort()
                  << "\n";
    if (net::FaultInjector::global().enabled())
        std::cout << "fault injection armed\n";
    std::cout.flush();

    int sig = 0;
    sigwait(&stop_signals, &sig);
    std::cout << "smash_serverd: "
              << (sig == SIGINT ? "SIGINT" : "SIGTERM")
              << ", draining\n";
    server.shutdown();
    std::cout << "smash_serverd: served "
              << server.connectionsAccepted()
              << " connections, exiting\n";
    return 0;
}
