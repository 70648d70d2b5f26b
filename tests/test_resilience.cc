/**
 * @file
 * Resilience battery: per-tenant quotas, the graceful-degradation
 * ladder, the idle/half-open connection reaper, the retrying
 * client, and the fault-injection chaos gate.
 *
 *   TenantGovernor — token-bucket and in-flight quotas, RAII ticket
 *   release, per-tenant overrides, and quota enforcement ACROSS
 *   connections of one tenant over a live server (the quota follows
 *   the kHello identity, not the socket).
 *
 *   OverloadShedder — ladder ordering (kBatch before kNormal before
 *   kHigh) under forced levels, automatic rise under sustained
 *   queue-latency pressure, automatic fall once pressure is gone
 *   (including out of a level-3 blackout, where no samples arrive),
 *   and the session answering shed requests with typed kOverloaded.
 *
 *   Reaper — idle connections are reaped and their threads joined,
 *   half-open connections (partial header, then silence) are
 *   reaped, and a connection with an in-flight request is NOT
 *   reaped no matter how quiet its socket is.
 *
 *   RetryingClient — reconnects after a server-side EOF (the reaper
 *   provides one), retries kQuotaExceeded until the bucket refills,
 *   passes non-retryable statuses through untouched, and bounds a
 *   call by its timeout.
 *
 *   Chaos — with the fault injector corrupting the wire (drops,
 *   delays, truncations, header bit-flips, short writes) on top of
 *   a tiny admission gate, a tenant quota, the shed ladder, and a
 *   fast reaper, every request must eventually complete
 *   BIT-IDENTICAL to the local engine, and afterwards no admission
 *   slot or tenant token may be leaked (probed via the governor and
 *   a full-burst re-admission).
 *
 * Thread counts: SMASH_SERVE_THREADS pins one count (the ctest
 * variants run 1, 2, and 8); unset, every count is covered.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "engine/dispatch.hh"
#include "formats/csr_matrix.hh"
#include "net/client.hh"
#include "net/demo_matrices.hh"
#include "net/fault.hh"
#include "net/retry_client.hh"
#include "net/server.hh"
#include "serve/session.hh"
#include "serve/shed.hh"
#include "serve/tenant.hh"
#include "sim/exec_model.hh"
#include "worker_pin.hh"

namespace smash
{
namespace
{

using namespace std::chrono_literals;

std::vector<int>
threadCounts()
{
    if (const char* env = std::getenv("SMASH_SERVE_THREADS"))
        return {std::atoi(env)};
    return {1, 2, 8};
}

std::string
socketPath(const char* tag)
{
    return "/tmp/smash_res_" + std::to_string(::getpid()) + "_" +
        tag + ".sock";
}

/** Poll @p cond up to @p budget; resilience teardown is eventually-
 *  consistent (tickets die with the request envelope, slightly after
 *  the response), so leak probes must wait, not sample once. */
bool
eventually(const std::function<bool()>& cond,
           std::chrono::milliseconds budget = 2000ms)
{
    const auto end = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < end) {
        if (cond())
            return true;
        std::this_thread::sleep_for(2ms);
    }
    return cond();
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

bool
bitIdentical(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(Value)) == 0);
}

/** Disarm the process-global injector when a test scope ends. */
struct FaultGuard
{
    ~FaultGuard() { net::FaultInjector::global().disable(); }
};

// --------------------------------------------------------------
// TenantGovernor (unit)
// --------------------------------------------------------------

TEST(TenantGovernor, UnlimitedQuotaIsPassThroughButCounted)
{
    serve::TenantGovernor governor;
    auto a = governor.admit("t");
    auto b = governor.admit("t");
    EXPECT_TRUE(a.status.ok());
    EXPECT_TRUE(b.status.ok());
    EXPECT_EQ(governor.inflightOf("t"), 2);
    a.ticket.reset();
    EXPECT_EQ(governor.inflightOf("t"), 1);
    b.ticket.reset();
    EXPECT_EQ(governor.inflightOf("t"), 0);
    EXPECT_EQ(governor.rejects(), 0u);
}

TEST(TenantGovernor, RateLimitDeniesWhenBucketEmptyThenRefills)
{
    serve::TenantQuota quota;
    quota.ratePerSec = 100;
    quota.burst = 2;
    serve::TenantGovernor governor(quota);

    EXPECT_TRUE(governor.admit("t").status.ok());
    EXPECT_TRUE(governor.admit("t").status.ok());
    const auto denied = governor.admit("t");
    EXPECT_FALSE(denied.status.ok());
    EXPECT_EQ(denied.status.code(),
              serve::StatusCode::kQuotaExceeded);
    EXPECT_EQ(denied.ticket, nullptr);
    EXPECT_EQ(governor.rejects(), 1u);

    // 100 tokens/s: the bucket must be re-admittable well within
    // the poll budget.
    EXPECT_TRUE(eventually(
        [&] { return governor.admit("t").status.ok(); }));
}

TEST(TenantGovernor, InflightCapReleasesWithTicket)
{
    serve::TenantQuota quota;
    quota.maxInflight = 2;
    serve::TenantGovernor governor(quota);

    auto a = governor.admit("t");
    auto b = governor.admit("t");
    EXPECT_TRUE(a.status.ok());
    EXPECT_TRUE(b.status.ok());
    const auto denied = governor.admit("t");
    EXPECT_EQ(denied.status.code(),
              serve::StatusCode::kQuotaExceeded);

    // Another tenant has its own slots under the same defaults.
    auto other = governor.admit("u");
    EXPECT_TRUE(other.status.ok());

    a.ticket.reset();
    EXPECT_TRUE(governor.admit("t").status.ok());
}

TEST(TenantGovernor, SetQuotaOverridesDefaultsPerTenant)
{
    serve::TenantGovernor governor; // unlimited defaults
    serve::TenantQuota strict;
    strict.maxInflight = 1;
    governor.setQuota("strict", strict);

    auto held = governor.admit("strict");
    EXPECT_TRUE(held.status.ok());
    EXPECT_FALSE(governor.admit("strict").status.ok());
    // The default tenant is untouched by the override.
    EXPECT_TRUE(governor.admit("lax").status.ok());
    EXPECT_TRUE(governor.admit("lax").status.ok());
}

// --------------------------------------------------------------
// OverloadShedder (unit)
// --------------------------------------------------------------

TEST(OverloadShedder, ForcedLaddersShedInPriorityOrder)
{
    serve::ShedOptions options;
    serve::OverloadShedder shedder(options, /*max_inflight=*/0);

    EXPECT_FALSE(shedder.enabled());
    EXPECT_TRUE(shedder.admit(serve::Priority::kBatch));

    shedder.forceLevel(1);
    EXPECT_TRUE(shedder.enabled());
    EXPECT_TRUE(shedder.admit(serve::Priority::kHigh));
    EXPECT_TRUE(shedder.admit(serve::Priority::kNormal));
    EXPECT_FALSE(shedder.admit(serve::Priority::kBatch));

    shedder.forceLevel(2);
    EXPECT_TRUE(shedder.admit(serve::Priority::kHigh));
    EXPECT_FALSE(shedder.admit(serve::Priority::kNormal));
    EXPECT_FALSE(shedder.admit(serve::Priority::kBatch));

    shedder.forceLevel(3);
    EXPECT_FALSE(shedder.admit(serve::Priority::kHigh));
    EXPECT_FALSE(shedder.admit(serve::Priority::kNormal));
    EXPECT_FALSE(shedder.admit(serve::Priority::kBatch));
    EXPECT_EQ(shedder.shedTotal(), 6u);

    shedder.forceLevel(-1);
    EXPECT_EQ(shedder.level(), 0);
    EXPECT_TRUE(shedder.admit(serve::Priority::kBatch));
}

TEST(OverloadShedder, RisesUnderSustainedPressureOneLevelPerHold)
{
    serve::ShedOptions options;
    options.queueTarget = 1000us;
    options.hold = 5ms;
    serve::OverloadShedder shedder(options, /*max_inflight=*/0);

    // Keep feeding 50x-target latency; the ladder must climb one
    // level per hold interval, not jump straight to blackout.
    const auto start = std::chrono::steady_clock::now();
    int max_seen = 0;
    while (shedder.level() < 3 &&
           std::chrono::steady_clock::now() - start < 3s) {
        shedder.noteQueueLatency(50000);
        const int level = shedder.level();
        EXPECT_LE(level - max_seen, 1) << "ladder skipped a level";
        max_seen = std::max(max_seen, level);
        shedder.admit(serve::Priority::kBatch);
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(shedder.level(), 3);

    // Blackout: no deliveries, so no fresh samples — the EWMA decay
    // must still walk the ladder back down to 0.
    EXPECT_TRUE(eventually(
        [&] {
            shedder.admit(serve::Priority::kHigh);
            return shedder.level() == 0;
        },
        3000ms));
    EXPECT_TRUE(shedder.admit(serve::Priority::kBatch));
}

TEST(SessionShed, ShedRequestsResolveToTypedOverloaded)
{
    serve::MatrixRegistry registry;
    net::populateDemoRegistry(registry, 1);
    serve::SessionOptions options;
    options.threads = 2;
    options.shed.queueTarget = 1ms;
    serve::Session session(registry, options);

    session.shedder().forceLevel(3);
    auto shed = session
                    .submit(serve::SpmvRequest{
                        "ranker", net::demoVector(0), {}})
                    .get();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), serve::StatusCode::kOverloaded);
    EXPECT_NE(shed.status().message().find("degradation level 3"),
              std::string::npos);
    EXPECT_GE(session.overloadRejects(), 1u);
    EXPECT_GE(session.shedder().shedTotal(), 1u);

    session.shedder().forceLevel(-1);
    auto ok = session
                  .submit(serve::SpmvRequest{
                      "ranker", net::demoVector(0), {}})
                  .get();
    EXPECT_TRUE(ok.ok());
    session.close();
}

// --------------------------------------------------------------
// Tenant quotas across connections (server-level)
// --------------------------------------------------------------

TEST(TenantQuotaWire, RateLimitSharedAcrossConnectionsOfOneTenant)
{
    for (const int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        net::populateDemoRegistry(registry, 1);
        net::ServerOptions options;
        options.unixPath = socketPath("quota_rate");
        options.session.threads = threads;
        // A 2-token bucket refilling far too slowly to matter
        // within the test: exactly two admits per tenant, wherever
        // they come from.
        options.tenantQuota.ratePerSec = 0.001;
        options.tenantQuota.burst = 2;
        net::Server server(registry, options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;

        net::Client conn1, conn2, conn3;
        ASSERT_TRUE(
            conn1.connectUnixSocket(options.unixPath, error));
        ASSERT_TRUE(
            conn2.connectUnixSocket(options.unixPath, error));
        ASSERT_TRUE(
            conn3.connectUnixSocket(options.unixPath, error));
        ASSERT_TRUE(conn1.hello("team-a").ok());
        ASSERT_TRUE(conn2.hello("team-a").ok());
        ASSERT_TRUE(conn3.hello("team-b").ok());

        // Two tokens, spent across two different connections...
        EXPECT_TRUE(conn1
                        .spmv(serve::SpmvRequest{
                            "ranker", net::demoVector(0), {}})
                        .ok());
        EXPECT_TRUE(conn2
                        .spmv(serve::SpmvRequest{
                            "ranker", net::demoVector(1), {}})
                        .ok());
        // ...so the third request is denied on EITHER connection:
        // the bucket follows the tenant, not the socket.
        auto denied = conn1.spmv(
            serve::SpmvRequest{"ranker", net::demoVector(2), {}});
        ASSERT_FALSE(denied.ok());
        EXPECT_EQ(denied.status().code(),
                  serve::StatusCode::kQuotaExceeded);
        EXPECT_GE(server.governor().rejects(), 1u);

        // A different tenant has its own bucket.
        EXPECT_TRUE(conn3
                        .spmv(serve::SpmvRequest{
                            "ranker", net::demoVector(3), {}})
                        .ok());

        // Leak probe: every response resolved, so no slot is held.
        EXPECT_TRUE(eventually([&] {
            return server.governor().inflightOf("team-a") == 0 &&
                server.governor().inflightOf("team-b") == 0;
        }));
        server.shutdown();
    }
}

TEST(TenantQuotaWire, InflightCapSharedAcrossConnections)
{
    for (const int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        net::populateDemoRegistry(registry, 1);
        net::ServerOptions options;
        options.unixPath = socketPath("quota_inflight");
        options.session.threads = threads;
        options.tenantQuota.maxInflight = 2;
        net::Server server(registry, options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        // Hold every worker, so admitted requests stay in flight
        // until the pin lets go and the cap is observed
        // deterministically. The pins bypass the tenant governor.
        testing::WorkerPin pin(server.session(), "ranker",
                               net::demoVector(0));
        ASSERT_TRUE(pin.pinned()) << "threads " << threads;

        net::Client conn1, conn2;
        ASSERT_TRUE(
            conn1.connectUnixSocket(options.unixPath, error));
        ASSERT_TRUE(
            conn2.connectUnixSocket(options.unixPath, error));
        ASSERT_TRUE(conn1.hello("team-a").ok());
        ASSERT_TRUE(conn2.hello("team-a").ok());

        ASSERT_NE(conn1.sendSpmv(serve::SpmvRequest{
                      "ranker", net::demoVector(0), {}}),
                  0u);
        ASSERT_NE(conn1.sendSpmv(serve::SpmvRequest{
                      "ranker", net::demoVector(1), {}}),
                  0u);
        ASSERT_TRUE(eventually([&] {
            return server.governor().inflightOf("team-a") == 2;
        }));

        // The tenant is at its cap — the OTHER connection is denied.
        auto denied = conn2.spmv(
            serve::SpmvRequest{"ranker", net::demoVector(2), {}});
        ASSERT_FALSE(denied.ok());
        EXPECT_EQ(denied.status().code(),
                  serve::StatusCode::kQuotaExceeded);

        // Let the queued requests run; the slots come back.
        pin.release();
        for (int i = 0; i < 2; ++i) {
            const auto resp = conn1.readSpmvResponse();
            ASSERT_TRUE(resp.has_value());
            EXPECT_TRUE(resp->result.ok());
        }
        EXPECT_TRUE(eventually([&] {
            return server.governor().inflightOf("team-a") == 0;
        }));
        EXPECT_TRUE(conn2
                        .spmv(serve::SpmvRequest{
                            "ranker", net::demoVector(3), {}})
                        .ok());
        server.shutdown();
    }
}

// --------------------------------------------------------------
// Idle / half-open reaper
// --------------------------------------------------------------

TEST(Reaper, IdleConnectionIsReapedAndHalfOpenToo)
{
    for (const int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        net::populateDemoRegistry(registry, 1);
        net::ServerOptions options;
        options.unixPath = socketPath("reap_idle");
        options.session.threads = threads;
        options.idleTimeout = 100ms;
        net::Server server(registry, options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;

        // Idle: a connection that said hello and went quiet.
        net::Client idle;
        ASSERT_TRUE(idle.connectUnixSocket(options.unixPath, error));
        ASSERT_TRUE(idle.ping().ok());

        // Half-open: a peer that wrote half a header and stalled —
        // without the reaper this pins a read thread forever.
        net::Fd half = net::connectUnix(options.unixPath, error);
        ASSERT_TRUE(half.valid());
        const std::uint8_t partial[8] = {'S', 'M', 'S', 'H'};
        ASSERT_TRUE(net::writeFull(half.get(), partial, 8));

        EXPECT_TRUE(eventually(
            [&] { return server.connectionsReaped() >= 2; }, 3000ms));
        // The reaped idle client sees a clean EOF on its next use.
        EXPECT_FALSE(idle.ping().ok());
        server.shutdown();
    }
}

TEST(Reaper, ConnectionWithInflightRequestIsNotReaped)
{
    for (const int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        net::populateDemoRegistry(registry, 1);
        net::ServerOptions options;
        options.unixPath = socketPath("reap_busy");
        options.session.threads = threads;
        options.idleTimeout = 80ms;
        net::Server server(registry, options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        testing::WorkerPin pin(server.session(), "ranker",
                               net::demoVector(0));
        ASSERT_TRUE(pin.pinned()) << "threads " << threads;

        net::Client client;
        ASSERT_TRUE(
            client.connectUnixSocket(options.unixPath, error));
        ASSERT_NE(client.sendSpmv(serve::SpmvRequest{
                      "ranker", net::demoVector(0), {}}),
                  0u);
        // Quiet socket + in-flight request, across many timeouts:
        // the request stays queued behind the held workers for 400
        // ms (five idle timeouts), and its response must still
        // arrive on this connection.
        std::this_thread::sleep_for(400ms);
        pin.release();
        const auto resp = client.readSpmvResponse();
        ASSERT_TRUE(resp.has_value());
        EXPECT_TRUE(resp->result.ok());
        EXPECT_EQ(server.connectionsReaped(), 0u);
        server.shutdown();
    }
}

// --------------------------------------------------------------
// RetryingClient
// --------------------------------------------------------------

TEST(RetryingClient, ReconnectsAfterServerSideEofFromTheReaper)
{
    serve::MatrixRegistry registry;
    net::populateDemoRegistry(registry, 1);
    net::ServerOptions options;
    options.unixPath = socketPath("retry_eof");
    options.idleTimeout = 80ms;
    net::Server server(registry, options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    net::Endpoint ep;
    ep.unixPath = options.unixPath;
    net::RetryingClient rc(ep, {}, "team-a");
    EXPECT_TRUE(rc.ping().ok());

    // Let the reaper kill the connection under the client...
    ASSERT_TRUE(eventually(
        [&] { return server.connectionsReaped() >= 1; }, 3000ms));
    // ...then the next call must transparently reconnect (replaying
    // the tenant handshake) and succeed.
    const fmt::CsrMatrix csr =
        fmt::CsrMatrix::fromCoo(net::demoRanker());
    const std::vector<Value> x = net::demoVector(7);
    auto r = rc.spmv(serve::SpmvRequest{"ranker", x, {}});
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_TRUE(bitIdentical(r.value(), localSpmv(csr, x)));
    EXPECT_GE(rc.stats().reconnects, 1u);
    server.shutdown();
}

TEST(RetryingClient, RetriesQuotaDenialUntilTheBucketRefills)
{
    serve::MatrixRegistry registry;
    net::populateDemoRegistry(registry, 1);
    net::ServerOptions options;
    options.unixPath = socketPath("retry_quota");
    options.tenantQuota.ratePerSec = 50;
    options.tenantQuota.burst = 1;
    net::Server server(registry, options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    net::Endpoint ep;
    ep.unixPath = options.unixPath;
    net::RetryPolicy policy;
    policy.maxAttempts = 50;
    policy.initialBackoff = 10ms;
    policy.maxBackoff = 40ms;
    net::RetryingClient rc(ep, policy, "team-a");

    // Burst of 1: the second back-to-back call is denied first, then
    // succeeds off a retry once the 50/s bucket refills (~20ms).
    for (int i = 0; i < 2; ++i) {
        auto r = rc.spmv(
            serve::SpmvRequest{"ranker", net::demoVector(i), {}});
        EXPECT_TRUE(r.ok()) << r.status().toString();
    }
    EXPECT_GE(rc.stats().retries, 1u);
    EXPECT_GE(server.governor().rejects(), 1u);
    server.shutdown();
}

TEST(RetryingClient, NonRetryableStatusPassesThroughUnretried)
{
    serve::MatrixRegistry registry;
    net::populateDemoRegistry(registry, 1);
    net::ServerOptions options;
    options.unixPath = socketPath("retry_notfound");
    net::Server server(registry, options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    net::Endpoint ep;
    ep.unixPath = options.unixPath;
    net::RetryingClient rc(ep);
    auto r = rc.spmv(
        serve::SpmvRequest{"no-such-matrix", net::demoVector(0), {}});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), serve::StatusCode::kNotFound);
    EXPECT_EQ(rc.stats().retries, 0u);
    server.shutdown();
}

TEST(RetryingClient, CallTimeoutBoundsAnUnreachableEndpoint)
{
    net::Endpoint ep;
    ep.unixPath = "/tmp/smash_res_no_such_server.sock";
    net::RetryPolicy policy;
    policy.maxAttempts = 1000;
    policy.callTimeout = 150ms;
    net::RetryingClient rc(ep, policy);

    const auto start = std::chrono::steady_clock::now();
    const serve::Status s = rc.ping();
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(s.ok());
    EXPECT_LT(took, 5s) << "call timeout did not bound the call";
}

// --------------------------------------------------------------
// Chaos battery
// --------------------------------------------------------------

TEST(Chaos, FaultedWireStaysBitIdenticalAndLeaksNothing)
{
    for (const int threads : threadCounts()) {
        FaultGuard guard;
        net::FaultConfig faults;
        std::string parse_error;
        ASSERT_TRUE(net::parseFaultSpec(
            "drop=0.02,delay=0.02:1,truncate=0.02,bitflip=0.02,"
            "short=0.06,seed=9",
            faults, parse_error))
            << parse_error;
        net::FaultInjector::global().configure(faults);

        serve::MatrixRegistry registry;
        net::populateDemoRegistry(registry, 1);
        net::ServerOptions options;
        options.unixPath = socketPath("chaos");
        options.session.threads = threads;
        options.session.maxInflight = 8;
        options.tenantQuota.ratePerSec = 2000;
        options.tenantQuota.burst = 64;
        options.tenantQuota.maxInflight = 6;
        options.session.shed.queueTarget = 20ms;
        options.idleTimeout = 250ms;
        net::Server server(registry, options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;

        const fmt::CsrMatrix csr =
            fmt::CsrMatrix::fromCoo(net::demoRanker());
        constexpr int kClientThreads = 3;
        constexpr int kRequests = 40;
        std::atomic<int> completed{0};
        std::atomic<int> mismatches{0};
        std::atomic<std::uint64_t> retries{0};

        std::vector<std::thread> workers;
        for (int t = 0; t < kClientThreads; ++t)
            workers.emplace_back([&, t] {
                net::Endpoint ep;
                ep.unixPath = options.unixPath;
                net::RetryPolicy policy;
                policy.maxAttempts = 6;
                policy.initialBackoff = 1ms;
                policy.maxBackoff = 30ms;
                policy.jitterSeed = 13 + std::uint64_t(t);
                policy.retryBudgetCap = 0; // retry to completion
                net::RetryingClient rc(
                    ep, policy, "chaos-" + std::to_string(t));
                for (int i = 0; i < kRequests; ++i) {
                    const std::vector<Value> x =
                        net::demoVector(t * 977 + i);
                    const std::vector<Value> expect =
                        localSpmv(csr, x);
                    const auto give_up =
                        std::chrono::steady_clock::now() + 30s;
                    while (std::chrono::steady_clock::now() <
                           give_up) {
                        auto r = rc.spmv(serve::SpmvRequest{
                            "ranker", x, {}});
                        if (!r.ok())
                            continue;
                        if (!bitIdentical(r.value(), expect))
                            mismatches.fetch_add(1);
                        completed.fetch_add(1);
                        break;
                    }
                }
                retries.fetch_add(rc.stats().retries);
            });
        for (std::thread& w : workers)
            w.join();

        EXPECT_EQ(completed.load(), kClientThreads * kRequests);
        EXPECT_EQ(mismatches.load(), 0);
        EXPECT_GT(net::FaultInjector::global().injected(), 0u)
            << "chaos run injected no faults — the battery tested "
               "nothing";

        // Leak probes. Slots: every tenant drains to zero in-flight.
        for (int t = 0; t < kClientThreads; ++t) {
            const std::string tenant =
                "chaos-" + std::to_string(t);
            EXPECT_TRUE(eventually([&] {
                return server.governor().inflightOf(tenant) == 0;
            })) << tenant;
        }
        // Tokens: buckets refill toward burst once traffic stops.
        EXPECT_TRUE(eventually([&] {
            return server.governor().tokensOf("chaos-0") >= 1.0;
        }));
        // Admission gate: with faults off, a full-burst fan-out is
        // admitted and answered — nothing from the chaos run still
        // occupies the gate.
        net::FaultInjector::global().disable();
        server.session().shedder().forceLevel(-1);
        net::Client probe;
        ASSERT_TRUE(
            probe.connectUnixSocket(options.unixPath, error));
        for (int i = 0;
             i < static_cast<int>(options.session.maxInflight); ++i) {
            auto r = probe.spmv(
                serve::SpmvRequest{"ranker", net::demoVector(i), {}});
            EXPECT_TRUE(r.ok()) << r.status().toString();
        }
        probe.close();
        server.shutdown();
    }
}

} // namespace
} // namespace smash
