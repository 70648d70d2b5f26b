#include "net/server.hh"

#include <algorithm>
#include <utility>

#include "obs/metrics.hh"

namespace smash::net
{

namespace
{

obs::Gauge&
openConnsGauge()
{
    static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
        "smash_net_connections_open");
    return g;
}

obs::Counter&
acceptedCounter(Transport transport)
{
    if (transport == Transport::kUnix) {
        static obs::Counter& c = obs::MetricsRegistry::global().counter(
            "smash_net_connections_total{transport=\"unix\"}");
        return c;
    }
    static obs::Counter& c = obs::MetricsRegistry::global().counter(
        "smash_net_connections_total{transport=\"tcp\"}");
    return c;
}

obs::Counter&
reapedCounter()
{
    static obs::Counter& c = obs::MetricsRegistry::global().counter(
        "smash_net_conns_reaped_total");
    return c;
}

} // namespace

Server::Server(serve::MatrixRegistry& registry,
               const ServerOptions& options)
    : registry_(registry), options_(options),
      governor_(options.tenantQuota),
      session_(registry, options.session)
{
}

Server::~Server()
{
    shutdown();
}

bool
Server::start(std::string& error)
{
    if (options_.unixPath.empty() && options_.tcpPort < 0) {
        error = "no listener configured (need a unix path or a "
                "tcp port)";
        return false;
    }
    if (!options_.unixPath.empty()) {
        unix_listener_ = listenUnix(options_.unixPath, error);
        if (!unix_listener_.valid())
            return false;
    }
    if (options_.tcpPort >= 0) {
        tcp_listener_ = listenTcp(
            static_cast<std::uint16_t>(options_.tcpPort), tcp_port_,
            error);
        if (!tcp_listener_.valid()) {
            unix_listener_.reset();
            return false;
        }
    }
    if (options_.httpMetricsPort >= 0 &&
        !http_metrics_.start(
            static_cast<std::uint16_t>(options_.httpMetricsPort),
            error)) {
        unix_listener_.reset();
        tcp_listener_.reset();
        return false;
    }
    if (unix_listener_.valid())
        accept_threads_.emplace_back([this] {
            acceptLoop(unix_listener_.get(), Transport::kUnix);
        });
    if (tcp_listener_.valid())
        accept_threads_.emplace_back([this] {
            acceptLoop(tcp_listener_.get(), Transport::kTcp);
        });
    if (options_.idleTimeout.count() > 0)
        reaper_thread_ = std::thread([this] { reaperLoop(); });
    return true;
}

void
Server::reaperLoop()
{
    // Scan at half the timeout (floor 10ms): a connection is reaped
    // at most 1.5x idleTimeout after its last activity.
    const auto scan = std::max(options_.idleTimeout / 2,
                               std::chrono::milliseconds(10));
    const auto timeout =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            options_.idleTimeout);
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(reaper_mutex_);
            reaper_cv_.wait_for(lock, scan, [this] {
                return draining_.load(std::memory_order_acquire);
            });
        }
        if (draining_.load(std::memory_order_acquire))
            return;
        const std::int64_t now = monotonicNs();
        std::lock_guard<std::mutex> lock(conns_mutex_);
        std::erase_if(conns_, [&](const std::shared_ptr<Conn>& c) {
            if (c->finished()) {
                // Already gone on its own (peer closed, or a wake()
                // from the previous scan landed): join and drop —
                // without the reaper these threads stay pinned until
                // the next accept or shutdown.
                c->join();
                openConnsGauge().add(-1);
                return true;
            }
            if (c->idleLongerThan(now, timeout)) {
                // Idle or half-open: shut the socket down. The read
                // loop unblocks, marks itself finished, and the next
                // scan joins it. An honest-but-quiet client sees a
                // clean EOF and reconnects on its next request.
                c->wake();
                reaped_.fetch_add(1, std::memory_order_relaxed);
                reapedCounter().inc();
            }
            return false;
        });
    }
}

void
Server::acceptLoop(int listen_fd, Transport transport)
{
    const ConnLimits limits{options_.maxFrameBytes,
                            options_.maxInflightPerConn};
    while (!draining_.load(std::memory_order_acquire)) {
        Fd fd = acceptConn(listen_fd);
        if (!fd.valid())
            break; // listener shut down (or hard failure)
        if (draining_.load(std::memory_order_acquire))
            break; // raced with beginShutdown(); drop the fd
        accepted_.fetch_add(1, std::memory_order_relaxed);
        acceptedCounter(transport).inc();
        openConnsGauge().add(1);
        auto conn = std::make_shared<Conn>(session_, std::move(fd),
                                           transport, limits,
                                           &governor_);
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            // Reap connections whose read loop already exited, so a
            // long-lived server's table tracks live peers rather
            // than its whole history.
            std::erase_if(conns_,
                          [](const std::shared_ptr<Conn>& c) {
                              if (!c->finished())
                                  return false;
                              c->join();
                              openConnsGauge().add(-1);
                              return true;
                          });
            // Start before publishing: the reaper and shutdown join
            // only Conns they find in conns_, and this lock orders
            // the thread_ assignment before any such join().
            conn->start();
            conns_.push_back(conn);
        }
    }
}

void
Server::beginShutdown()
{
    if (draining_.exchange(true, std::memory_order_acq_rel))
        return;
    reaper_cv_.notify_all();
    // Stop the accept loops first so no connection appears while the
    // session drains...
    unix_listener_.shutdownBoth();
    tcp_listener_.shutdownBoth();
    // ...then close the session. Connected clients keep getting
    // typed responses: anything already admitted drains to its real
    // result, everything submitted from here on resolves to
    // kShuttingDown and is written back before the sockets die.
    // close() returns only once the admission gate is empty, i.e.
    // no completion callback (socket writer) is still running.
    session_.close();
}

void
Server::shutdown()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    beginShutdown();
    if (reaper_thread_.joinable())
        reaper_thread_.join();
    for (std::thread& t : accept_threads_)
        t.join();
    accept_threads_.clear();
    unix_listener_.reset();
    tcp_listener_.reset();
    http_metrics_.stop();

    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns.swap(conns_);
    }
    // Safe to join: beginShutdown()'s session close already
    // guaranteed no callback still holds a connection's write path.
    for (const std::shared_ptr<Conn>& c : conns) {
        c->wake();
        c->join();
        openConnsGauge().add(-1);
    }
}

} // namespace smash::net
