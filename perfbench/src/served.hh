/**
 * @file
 * The served stack as the benchmark drives it: an in-process
 * net::Server on a Unix socket with the resilience layer armed, and
 * WireConn, a pipelined client speaking the wire codec directly so
 * that its encode, write and decode calls can each carry a span.
 */

#ifndef PERFBENCH_SERVED_HH
#define PERFBENCH_SERVED_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "serve/registry.hh"

namespace perfbench
{

/** Name every workload registers its matrix under. */
inline const std::string kMatrixName = "bench";
/** Tenant every benchmark connection says hello as. */
inline const std::string kTenant = "bench";
/** Shard count of sharded registrations. */
inline constexpr Index kShards = 4;
/** Session pool size of every served workload. */
inline constexpr int kPoolThreads = 2;

/**
 * Server options as a production daemon runs them: tenant quotas,
 * a global and a per-connection in-flight cap, the shed ladder and
 * the idle reaper are all armed, with limits far above what the
 * benchmark offers (@p offered_rps), so none of them fires.
 */
smash::net::ServerOptions armedServerOptions(const std::string& unix_path,
                                             double offered_rps);

/** Options with every resilience mechanism off (ladder rungs 4–5). */
smash::net::ServerOptions plainServerOptions(const std::string& unix_path);

/** One pipelined wire connection. Sends and receives may run on two
 *  different threads; the socket is only closed by the destructor. */
class WireConn
{
  public:
    struct Response
    {
        std::uint64_t id = 0;
        smash::serve::Result<std::vector<Value>> result;
    };

    bool connect(const std::string& unix_path, std::string& error);
    /** Synchronous kHello handshake. */
    bool hello(const std::string& tenant, std::string& error);
    /** Encode and write one SpMV request; false on a write failure. */
    bool send(std::uint64_t id, const std::vector<Value>& x,
              const smash::serve::RequestOptions& options,
              std::vector<Span>* spans);
    /** Block for the next response frame; nullopt on a transport or
     *  protocol failure. */
    std::optional<Response> receive(std::vector<Span>* spans,
                                    std::uint64_t request = 0);
    int fd() const { return fd_.get(); }

  private:
    smash::net::Fd fd_;
};

/** A Unix socket path, unlinked on destruction (declare it before
 *  the server listening on it). */
struct SocketFile
{
    SocketFile() = default;
    explicit SocketFile(std::string p) : path(std::move(p)) {}
    ~SocketFile();
    SocketFile(const SocketFile&) = delete;
    SocketFile& operator=(const SocketFile&) = delete;

    std::string path;
};

/** A registry, its server and the client connections to it. Members
 *  are destroyed connections first, then server, then registry. */
struct Served
{
    SocketFile socket;
    std::unique_ptr<smash::serve::MatrixRegistry> registry;
    std::unique_ptr<smash::net::Server> server;
    std::vector<std::unique_ptr<WireConn>> conns;
};

/** Snapshot of one obs histogram's buckets (for windowed
 *  percentiles over a measurement phase). */
using HistSnap = std::array<std::uint64_t, smash::obs::Histogram::kBuckets>;

/** The serving layer's counters a per-layer report reads, as
 *  deltas over one measurement phase. */
class ServeWindow
{
  public:
    explicit ServeWindow(const smash::serve::PipelineStats& stats);
    /** Per-layer serve.* metrics over the window opened by the
     *  constructor. */
    std::vector<Metric> close() const;
    /** completed ÷ batches over the window. */
    double batchMean() const;

  private:
    struct Counts
    {
        std::uint64_t completed = 0;
        std::uint64_t batches = 0;
        std::uint64_t timerFlushes = 0;
        std::uint64_t allFlushes = 0;
        std::array<HistSnap, 4> stages{};
    };
    static Counts read(const smash::serve::PipelineStats& stats);

    const smash::serve::PipelineStats& stats_;
    Counts before_;
};

} // namespace perfbench

#endif // PERFBENCH_SERVED_HH
