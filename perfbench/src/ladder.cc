/**
 * @file
 * The traced run's per-layer probes: the six-rung layer ladder and
 * the registry mutation probe.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/parallel_exec.hh"
#include "common/thread_pool.hh"
#include "engine/dispatch.hh"
#include "kernels/simd/simd_kernels.hh"
#include "net/client.hh"
#include "net/codec.hh"
#include "net/retry_client.hh"
#include "serve/session.hh"
#include "served.hh"
#include "shard/sharded_matrix.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace smash;

namespace
{

/** Wall-clock budget of the interleaved ladder rounds. */
constexpr double kLadderBudgetS = 3.0;
constexpr int kMinRounds = 20;
constexpr int kMaxRounds = 400;

/** One timed call. */
struct Probe
{
    std::string metric; //!< name of the median metric
    bool ladder;        //!< also report p10, p90 and the count
    std::function<bool()> call; //!< true when the answer checks out
};

void
addSamples(std::vector<Metric>& m, const Probe& p,
           const std::vector<double>& us)
{
    m.push_back({p.metric, median(us), "us"});
    if (!p.ladder)
        return;
    const std::string stem = p.metric.substr(0, p.metric.size() - 3);
    m.push_back({stem + "_p10_us", quantile(us, 0.1), "us"});
    m.push_back({stem + "_p90_us", quantile(us, 0.9), "us"});
    m.push_back({stem + "_n", static_cast<double>(us.size()), "count"});
}

} // namespace

std::vector<Metric>
runLadder(const LadderInput& in, Tally& tally)
{
    serve::MatrixRegistry& reg = in.registry;
    const fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(in.coo);
    const OracleSet oracle = makeOracleSet(csr, 1, 0x1add, in.breakOracle);
    const std::vector<Value>& x = oracle.x[0];
    const std::vector<Value>& expect = oracle.y[0];
    const Index rows = csr.rows();
    std::vector<Metric> m;

    // Rung 2 runs on the registered encoding; for a sharded entry
    // this is the cold whole-matrix materialization.
    serve::MatrixRegistry::EncodingPtr enc;
    const double encode_us =
        timeUs([&] { enc = reg.encoded(kMatrixName); });
    if (in.sharded)
        m.push_back({"engine.encode_ms", encode_us / 1e3, "ms"});
    m.push_back({"engine.format",
                 static_cast<double>(reg.format(kMatrixName)), "code"});

    exec::ThreadPool pool(kPoolThreads);
    exec::ParallelExec pe(pool);

    // The shard path: the registry's own sharded entry, or a side
    // K-way split of the same matrix for an unsharded workload.
    std::shared_ptr<shard::ShardedMatrix> sharded =
        reg.sharded(kMatrixName);
    if (!sharded)
        sharded = std::make_shared<shard::ShardedMatrix>("ladder", csr,
                                                         kShards);
    const std::vector<eng::Format> shard_formats =
        sharded->shardFormats();
    m.push_back({"shard.formats",
                 static_cast<double>(std::set<eng::Format>(
                                         shard_formats.begin(),
                                         shard_formats.end())
                                         .size()),
                 "count"});

    const Index width = std::max<Index>(
        1, static_cast<Index>(std::lround(in.batchMean)));
    fmt::DenseMatrix xb(enc->xLength(), width);
    fmt::DenseMatrix yb(enc->rows(), width);
    for (Index j = 0; j < csr.cols(); ++j)
        for (Index r = 0; r < width; ++r)
            xb.at(j, r) = x[static_cast<std::size_t>(j)];

    // Rungs 4–5 against a plain server, rung 6 against an armed one;
    // all three answer from the workload's registry.
    const std::string base =
        in.workDir + "/l" + std::to_string(::getpid());
    const SocketFile plain_socket{base + "a.sock"};
    const SocketFile armed_socket{base + "b.sock"};
    net::ServerOptions plain = plainServerOptions(plain_socket.path);
    plain.tcpPort = 0;
    net::Server plain_server(reg, plain);
    net::Server armed_server(
        reg, armedServerOptions(armed_socket.path, in.offeredRps));
    std::string error;
    if (!plain_server.start(error) || !armed_server.start(error))
        throw std::runtime_error("ladder server: " + error);
    net::Client unix_client, tcp_client;
    if (!unix_client.connectUnixSocket(plain.unixPath, error) ||
        !tcp_client.connectTcpSocket("127.0.0.1", plain_server.tcpPort(),
                                     error))
        throw std::runtime_error("ladder connect: " + error);
    net::Endpoint armed_ep;
    armed_ep.unixPath = armed_socket.path;
    net::RetryingClient retry(armed_ep, net::RetryPolicy{}, kTenant);

    std::vector<Value> y(static_cast<std::size_t>(rows));
    const auto zero = [&] { std::fill(y.begin(), y.end(), Value(0)); };
    const auto checked = [&](const serve::Result<std::vector<Value>>& r) {
        return r.ok() && sameBits(r.value(), expect);
    };
    const serve::SpmvRequest request{kMatrixName, x, {}};
    net::Buffer response_payload;
    net::encodeSpmvResult(serve::Result<std::vector<Value>>(expect),
                          response_payload);

    std::vector<Probe> probes = {
        {"kernels.spmv_serial_us", true,
         [&] {
             zero();
             simd::kernels().csrSpmvRange(csr, x, y, 0, rows);
             return sameBits(y, expect);
         }},
        {"engine.spmv_us", true,
         [&] {
             zero();
             eng::spmv(enc->ref(), x, y, pe);
             return sameBits(y, expect);
         }},
        {"engine.spmv_batch_us", false,
         [&] {
             std::fill(yb.data().begin(), yb.data().end(), Value(0));
             eng::spmvBatch(enc->ref(), xb, yb, pe);
             for (Index i = 0; i < rows; ++i)
                 if (yb.at(i, width - 1) !=
                     expect[static_cast<std::size_t>(i)])
                     return false;
             return true;
         }},
        {"shard.spmv_us", false,
         [&] {
             zero();
             sharded->spmv(x, y, &pool);
             return sameBits(y, expect);
         }},
        {"serve.session_spmv_us", true,
         [&] {
             return checked(
                 plain_server.session().submit(request).get());
         }},
        {"net.unix_rtt_us", true,
         [&] { return checked(unix_client.spmv(request)); }},
        {"net.tcp_rtt_us", true,
         [&] { return checked(tcp_client.spmv(request)); }},
        {"net.retry_rtt_us", true,
         [&] { return checked(retry.spmv(request)); }},
        {"net.encode_req_us", false,
         [&] {
             net::Buffer payload;
             net::encodeSpmvRequest(request, payload);
             return !net::frameMessage(net::Op::kSpmv, 1, payload)
                         .empty();
         }},
        {"net.decode_resp_us", false,
         [&] {
             const auto r = net::decodeSpmvResult(
                 response_payload.data(), response_payload.size());
             return r && checked(*r);
         }},
    };

    std::vector<std::vector<double>> samples(probes.size());
    const auto round = [&](bool record) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
            bool ok = false;
            const double us = timeUs([&] { ok = probes[i].call(); });
            if (!record)
                continue;
            samples[i].push_back(us);
            if (ok)
                tally.ok();
            else
                tally.fail("ladder_" + probes[i].metric);
        }
    };
    round(false); // warm plans, arenas and connections
    const double round_us = timeUs([&] { round(false); });
    const int rounds = std::clamp(
        static_cast<int>(kLadderBudgetS * 1e6 / std::max(round_us, 1.0)),
        kMinRounds, kMaxRounds);
    for (int r = 0; r < rounds; ++r)
        round(true);

    for (std::size_t i = 0; i < probes.size(); ++i)
        addSamples(m, probes[i], samples[i]);
    m.push_back({"net.resilience_us",
                 median(samples[7]) - median(samples[5]), "us"});
    net::Buffer request_payload;
    net::encodeSpmvRequest(request, request_payload);
    m.push_back({"net.bytes_per_req",
                 static_cast<double>(2 * net::kHeaderBytes +
                                     request_payload.size() +
                                     response_payload.size()),
                 "bytes"});
    m.push_back({"net.retries",
                 static_cast<double>(retry.stats().retries), "count"});
    m.push_back({"net.reconnects",
                 static_cast<double>(retry.stats().reconnects), "count"});
    // Computed, not measured: the CSR kernel's flops and the bytes
    // its arrays and vectors occupy.
    const auto nnz = static_cast<double>(csr.nnz());
    m.push_back({"kernels.ops_per_spmv", 2 * nnz, "count"});
    m.push_back({"kernels.bytes_per_spmv",
                 nnz * (sizeof(Value) + sizeof(fmt::CsrIndex)) +
                     static_cast<double>(rows + 1) *
                         sizeof(fmt::CsrIndex) +
                     static_cast<double>(csr.cols()) * sizeof(Value) +
                     2.0 * static_cast<double>(rows) * sizeof(Value),
                 "bytes"});
    return m;
}

std::vector<Metric>
registryProbe(const fmt::CooMatrix& coo, bool sharded, Tally& tally)
{
    serve::MatrixRegistry reg;
    if (sharded)
        reg.registerSharded(kMatrixName, coo, kShards);
    else
        reg.put(kMatrixName, coo);
    serve::SessionOptions options;
    options.threads = 1;
    serve::Session session(reg, options);
    MutationTimings t;

    // Value-only updates: every 64th stored entry gains 1/16.
    fmt::CooMatrix deltas(coo.rows(), coo.cols());
    for (std::size_t i = 0; i < coo.entries().size(); i += 64)
        deltas.add(coo.entries()[i].row, coo.entries()[i].col,
                   Value(0.0625));
    deltas.canonicalize();
    for (int k = 0; k < 5; ++k) {
        const double us = timeUs(
            [&] { session.applyUpdates(kMatrixName, deltas); });
        t.applyUpdatesUs.push_back(us);
        t.allUs.push_back(us);
    }

    // One boundary-crossing mutation: every row replaced by a banded
    // pattern (or, for a matrix already banded, a strided one).
    const fmt::CooMatrix replacement =
        reg.format(kMatrixName) == eng::Format::kDia
        ? patternMatrix(coo.rows(), coo.cols(), 8, 77)
        : bandedMatrix(coo.rows(), 8, 77);
    std::vector<Index> all_rows(static_cast<std::size_t>(coo.rows()));
    for (Index r = 0; r < coo.rows(); ++r)
        all_rows[static_cast<std::size_t>(r)] = r;
    const std::size_t reselects = reg.reselects(kMatrixName);
    const Clock::time_point t0 = Clock::now();
    t.allUs.push_back(timeUs([&] {
        session.replaceRows(kMatrixName, all_rows, replacement);
    }));
    const Clock::time_point give_up = t0 + std::chrono::seconds(20);
    while (reg.reselects(kMatrixName) == reselects ||
           reg.info(kMatrixName).reencodePending) {
        if (Clock::now() > give_up) {
            tally.fail("probe_no_reselect");
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    t.reencodeMs.push_back(usBetween(t0, Clock::now()) / 1e3);

    const std::vector<Value> x = dyadicVector(coo.cols(), 5);
    const auto answer =
        session.submit(serve::SpmvRequest{kMatrixName, x, {}}).get();
    if (answer.ok() &&
        sameBits(answer.value(),
                 oracleSpmv(fmt::CsrMatrix::fromCoo(replacement), x)))
        tally.ok();
    else
        tally.fail("probe_mismatch");

    return {
        {"registry.apply_updates_us", median(t.applyUpdatesUs), "us"},
        {"registry.update_p50_us", median(t.allUs), "us"},
        {"registry.reencode_ms", median(t.reencodeMs), "ms"},
        {"registry.conversions",
         static_cast<double>(reg.conversions(kMatrixName)), "count"},
        {"registry.reselects",
         static_cast<double>(reg.reselects(kMatrixName)), "count"},
    };
}

} // namespace perfbench
