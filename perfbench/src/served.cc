#include "served.hh"

#include <cmath>
#include <filesystem>

#include "net/codec.hh"
#include "net/frame.hh"

namespace perfbench
{

using namespace smash;

net::ServerOptions
armedServerOptions(const std::string& unix_path, double offered_rps)
{
    net::ServerOptions o = plainServerOptions(unix_path);
    o.session.maxInflight = 1024;
    o.maxInflightPerConn = 512;
    o.tenantQuota.ratePerSec = std::max(1000.0, 20 * offered_rps);
    o.tenantQuota.burst = o.tenantQuota.ratePerSec;
    o.tenantQuota.maxInflight = 1024;
    o.session.shed.queueTarget = std::chrono::microseconds(50000);
    o.idleTimeout = std::chrono::milliseconds(30000);
    return o;
}

net::ServerOptions
plainServerOptions(const std::string& unix_path)
{
    net::ServerOptions o;
    o.unixPath = unix_path;
    o.session.threads = kPoolThreads;
    return o;
}

SocketFile::~SocketFile()
{
    std::error_code ignored;
    if (!path.empty())
        std::filesystem::remove(path, ignored);
}

// --- WireConn. ---

bool
WireConn::connect(const std::string& unix_path, std::string& error)
{
    fd_ = net::connectUnix(unix_path, error);
    return fd_.valid();
}

bool
WireConn::hello(const std::string& tenant, std::string& error)
{
    net::Buffer payload;
    net::encodeHelloRequest(tenant, payload);
    const net::Buffer frame =
        net::frameMessage(net::Op::kHello, 0, payload);
    if (!net::writeFull(fd_.get(), frame.data(), frame.size())) {
        error = "hello: write failed";
        return false;
    }
    std::uint8_t header_bytes[net::kHeaderBytes];
    net::FrameHeader header;
    if (net::readFull(fd_.get(), header_bytes, net::kHeaderBytes) !=
            net::IoResult::kOk ||
        net::decodeHeader(header_bytes, net::kDefaultMaxFrameBytes,
                          header) ||
        header.op != net::Op::kHelloResult) {
        error = "hello: bad response";
        return false;
    }
    payload.resize(header.payloadBytes);
    if (!payload.empty() &&
        net::readFull(fd_.get(), payload.data(), payload.size()) !=
            net::IoResult::kOk) {
        error = "hello: truncated response";
        return false;
    }
    const auto status =
        net::decodeHelloResult(payload.data(), payload.size());
    if (!status || !status->ok()) {
        error = "hello: refused";
        return false;
    }
    return true;
}

bool
WireConn::send(std::uint64_t id, const std::vector<Value>& x,
               const serve::RequestOptions& options,
               std::vector<Span>* spans)
{
    net::Buffer frame;
    {
        ScopedSpan span(spans, "net.encode_request", id,
                        "client.request");
        net::Buffer payload;
        net::encodeSpmvRequest(
            serve::SpmvRequest{kMatrixName, x, options}, payload);
        frame = net::frameMessage(net::Op::kSpmv, id, payload);
    }
    ScopedSpan span(spans, "net.write", id, "client.request");
    return net::writeFull(fd_.get(), frame.data(), frame.size());
}

std::optional<WireConn::Response>
WireConn::receive(std::vector<Span>* spans, std::uint64_t request)
{
    std::uint8_t header_bytes[net::kHeaderBytes];
    net::FrameHeader header;
    net::Buffer payload;
    {
        ScopedSpan span(spans, "net.read", request, "client.request");
        if (net::readFull(fd_.get(), header_bytes, net::kHeaderBytes) !=
            net::IoResult::kOk)
            return std::nullopt;
        if (net::decodeHeader(header_bytes, net::kDefaultMaxFrameBytes,
                              header))
            return std::nullopt;
        payload.resize(header.payloadBytes);
        if (!payload.empty() &&
            net::readFull(fd_.get(), payload.data(), payload.size()) !=
                net::IoResult::kOk)
            return std::nullopt;
    }
    if (header.op != net::Op::kSpmvResult)
        return std::nullopt;
    ScopedSpan span(spans, "net.decode_response", header.id,
                    "client.request");
    auto result = net::decodeSpmvResult(payload.data(), payload.size());
    if (!result)
        return std::nullopt;
    return Response{header.id, std::move(*result)};
}

// --- Windows over the obs registry. ---

namespace
{

HistSnap
snapshot(const obs::Histogram& h)
{
    HistSnap s{};
    for (int i = 0; i < obs::Histogram::kBuckets; ++i)
        s[static_cast<std::size_t>(i)] = h.bucketCount(i);
    return s;
}

/** Percentile of the samples recorded between two snapshots, with
 *  obs::Histogram's bucket semantics (geometric midpoints). */
double
windowPercentile(const HistSnap& before, const HistSnap& after, double q)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < after.size(); ++i)
        total += after[i] - before[i];
    if (total == 0)
        return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < after.size(); ++i) {
        seen += after[i] - before[i];
        if (seen >= std::max<std::uint64_t>(rank, 1)) {
            if (i == 0)
                return 0.5;
            const double lower = std::ldexp(1.0, static_cast<int>(i) - 1);
            return i + 1 == after.size() ? lower : 1.5 * lower;
        }
    }
    return 0;
}

const char* const kStageNames[4] = {"admit", "batch_wait", "compute",
                                    "deliver"};

obs::Histogram&
stageHistogram(const char* stage)
{
    return obs::MetricsRegistry::global().histogram(
        std::string("smash_pipeline_stage_latency_us{stage=\"") + stage +
        "\"}");
}

std::uint64_t
flushes(const char* reason)
{
    return obs::MetricsRegistry::global().counterValue(
        std::string("smash_batcher_flushes_total{reason=\"") + reason +
        "\"}");
}

} // namespace

ServeWindow::ServeWindow(const serve::PipelineStats& stats)
    : stats_(stats), before_(read(stats))
{
}

ServeWindow::Counts
ServeWindow::read(const serve::PipelineStats& stats)
{
    Counts c;
    c.completed = stats.completed.load();
    c.batches = stats.batches.load();
    c.timerFlushes = flushes("deadline");
    c.allFlushes = c.timerFlushes + flushes("size") +
        flushes("priority") + flushes("manual");
    for (std::size_t i = 0; i < 4; ++i)
        c.stages[i] = snapshot(stageHistogram(kStageNames[i]));
    return c;
}

double
ServeWindow::batchMean() const
{
    const Counts now = read(stats_);
    const std::uint64_t batches = now.batches - before_.batches;
    return batches == 0
        ? 0
        : static_cast<double>(now.completed - before_.completed) /
            static_cast<double>(batches);
}

std::vector<Metric>
ServeWindow::close() const
{
    const Counts now = read(stats_);
    std::vector<Metric> out;
    for (std::size_t i = 0; i < 4; ++i)
        out.push_back({std::string("serve.stage_") + kStageNames[i] +
                           "_us",
                       windowPercentile(before_.stages[i], now.stages[i],
                                        0.5),
                       "us"});
    out.push_back({"serve.batch_mean", batchMean(), "req/batch"});
    const std::uint64_t all = now.allFlushes - before_.allFlushes;
    out.push_back(
        {"serve.flush_timer_frac",
         all == 0 ? 0
                  : static_cast<double>(now.timerFlushes -
                                        before_.timerFlushes) /
                 static_cast<double>(all),
         "frac"});
    return out;
}

} // namespace perfbench
