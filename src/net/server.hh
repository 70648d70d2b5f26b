/**
 * @file
 * net::Server — the process front door: listeners on a Unix-domain
 * path and/or a TCP port, one serve::Session doing the actual work,
 * and a Conn per accepted peer.
 *
 * Accept model: one blocking accept thread per listener handing each
 * connection its own read thread (thread-per-connection). The
 * structure is deliberately listener-agnostic — acceptLoop() only
 * produces connected fds, and Conn::handleFrame() is already a
 * per-frame state machine — so replacing the blocking threads with
 * one epoll loop is a contained change (a ROADMAP follow-up).
 *
 * Shutdown is two-phase so tests and the daemon can observe a
 * deterministic drain:
 *
 *   beginShutdown()  stop accepting (listeners shut down) and
 *                    close() the session — every submit from a
 *                    still-connected client now resolves to
 *                    kShuttingDown and is written back as a typed
 *                    response; in-flight requests drain. Returns
 *                    once the session is idle, so no completion
 *                    callback is still running (Session::close()'s
 *                    teardown contract).
 *   shutdown()       beginShutdown(), then wake + join every
 *                    connection thread and the accept threads.
 *                    After this the object is inert; the destructor
 *                    calls it.
 */

#ifndef SMASH_NET_SERVER_HH
#define SMASH_NET_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/conn.hh"
#include "net/http_metrics.hh"
#include "net/socket.hh"
#include "serve/registry.hh"
#include "serve/session.hh"
#include "serve/tenant.hh"

namespace smash::net
{

/** Configuration of one Server. */
struct ServerOptions
{
    /** Unix-domain listener path; empty disables the listener. */
    std::string unixPath;
    /** TCP listener port: -1 disables, 0 binds an ephemeral port
     *  (read back via tcpPort()). */
    int tcpPort = -1;
    /** The owned session's tuning (threads, admission, shedding). */
    serve::SessionOptions session{};
    /** Outstanding requests per connection before the connection
     *  itself answers kOverloaded (0 = unbounded; the session's
     *  global admission gate still applies). */
    Index maxInflightPerConn = 0;
    /** Per-frame payload ceiling (kOversized beyond it). */
    std::uint64_t maxFrameBytes = kDefaultMaxFrameBytes;
    /** Default per-tenant quota (applies to every tenant that has no
     *  setQuota() override, including the anonymous tenant "");
     *  all-zero disables quota enforcement. */
    serve::TenantQuota tenantQuota{};
    /** Connections idle (no frames, nothing in flight) this long are
     *  reaped — their sockets shut down and threads joined. 0
     *  disables the reaper. Guards against half-open peers pinning
     *  threads forever. */
    std::chrono::milliseconds idleTimeout{0};
    /** HTTP GET /metrics listener port: -1 disables, 0 binds an
     *  ephemeral port (read back via httpMetricsPort()). */
    int httpMetricsPort = -1;
};

/** Socket front door over a borrowed MatrixRegistry (which must
 *  outlive the server, like it must outlive a Session). */
class Server
{
  public:
    Server(serve::MatrixRegistry& registry,
           const ServerOptions& options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Bind the configured listeners and start accepting. False +
     *  @p error when any listener fails to bind (no partial start:
     *  a bound listener is torn down again). */
    bool start(std::string& error);

    /** Phase one: stop accepting, drain the session (see file
     *  comment). Idempotent and callable from a signal-driven
     *  control thread while connections are live. */
    void beginShutdown();

    /** Phase two: full teardown (implies beginShutdown()). */
    void shutdown();

    /** Actual TCP port (after start(); meaningful with tcpPort=0). */
    std::uint16_t tcpPort() const { return tcp_port_; }
    const std::string& unixPath() const { return options_.unixPath; }

    /** The owned session (tests poke stats/overload counters). */
    serve::Session& session() { return session_; }

    /** The tenant governor (tests probe slot/token balances). */
    serve::TenantGovernor& governor() { return governor_; }

    /** Actual HTTP metrics port (after start(); meaningful with
     *  httpMetricsPort=0). 0 when the listener is disabled. */
    std::uint16_t httpMetricsPort() const
    {
        return http_metrics_.port();
    }

    /** Connections accepted over the server's lifetime. */
    std::uint64_t connectionsAccepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

    /** Idle/half-open connections reaped over the lifetime. */
    std::uint64_t connectionsReaped() const
    {
        return reaped_.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop(int listen_fd, Transport transport);
    void reaperLoop();

    serve::MatrixRegistry& registry_;
    const ServerOptions options_;
    // Declared before session_: completion callbacks hold governor
    // tickets, and the session's destructor (drain) must run while
    // the governor is still alive.
    serve::TenantGovernor governor_;
    serve::Session session_;
    Fd unix_listener_;
    Fd tcp_listener_;
    std::uint16_t tcp_port_ = 0;
    HttpMetricsListener http_metrics_;
    std::vector<std::thread> accept_threads_;
    std::thread reaper_thread_;
    std::mutex reaper_mutex_;
    std::condition_variable reaper_cv_;
    std::mutex conns_mutex_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> reaped_{0};
};

} // namespace smash::net

#endif // SMASH_NET_SERVER_HH
