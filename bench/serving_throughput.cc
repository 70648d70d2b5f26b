/**
 * @file
 * Serving-throughput study (extension): requests/second and
 * latency percentiles of the serve::Session pipeline as a function
 * of batch size, thread count, and priority class. The baseline
 * issues every request as an individual eng::spmv call (a
 * max-batch-1 session: same pool, same pipeline, no coalescing);
 * the batched configurations coalesce up to B concurrent requests
 * into one eng::spmvBatch traversal. Batching amortizes the
 * per-non-zero indexing work (row_ptr walks, column loads, bitmap
 * scans) across the whole batch, so requests/sec should rise with B
 * until memory bandwidth saturates. A mixed-priority run then
 * reports p50/p99 per class from the pipeline's latency histograms:
 * kHigh buys low tail latency by flushing immediately, kBatch buys
 * throughput by waiting for deeper batches.
 *
 *   --threads N                pool size (default 4)
 *   --exec native|parallel     compute stage execution model
 *   --exec sim                 skip the wall-clock study; print the
 *                              simulated per-request cycle cost of
 *                              batch sizes 1 and 8 instead
 *   --smoke                    tiny workload + pass/fail gate (CI):
 *                              exits 1 on oracle divergence or a
 *                              batched-vs-individual regression
 *   SMASH_BENCH_SCALE          shrinks matrix and request count
 *   SMASH_TRACE=1              record pipeline/pool/dispatch trace
 *                              events; the run ends by writing them
 *                              as Chrome trace-event JSON to
 *                              SMASH_TRACE_OUT (default
 *                              smash_trace.json)
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <vector>

#include "common/table.hh"
#include "engine/dispatch.hh"
#include "harness.hh"
#include "obs/trace.hh"
#include "serve/session.hh"
#include "sim/machine.hh"
#include "workloads/matrix_gen.hh"

namespace smash::bench
{
namespace
{

/** Distinct request operands, reused cyclically. */
constexpr Index kOperandKinds = 8;

std::vector<Value>
requestOperand(Index cols, Index kind)
{
    std::vector<Value> x(static_cast<std::size_t>(cols));
    for (Index i = 0; i < cols; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value((i * 7 + kind * 3) % 13) * Value(0.0625);
    return x;
}

double
maxAbsDiff(const std::vector<Value>& a, const std::vector<Value>& b)
{
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i] - b[i])));
    return m;
}

/** Priority mix of the latency study: 1 high : 4 normal : 3 batch. */
serve::Priority
mixedPriority(Index r)
{
    const Index slot = r % 8;
    if (slot == 0)
        return serve::Priority::kHigh;
    return slot <= 4 ? serve::Priority::kNormal
                     : serve::Priority::kBatch;
}

struct ConfigRun
{
    double seconds = 0;
    double err = 0;
};

/**
 * Submit @p n typed requests, wait for all; seconds + max err.
 * @p mixed assigns the 1:4:3 priority mix and prints the
 * per-priority latency table (histograms die with the session).
 */
ConfigRun
runConfig(serve::MatrixRegistry& registry, const std::string& name,
          serve::SessionOptions opts, Index n,
          const std::vector<std::vector<Value>>& operands,
          const std::vector<std::vector<Value>>& oracles, bool mixed)
{
    serve::Session session(registry, opts);
    std::vector<std::future<serve::Result<std::vector<Value>>>>
        futures;
    futures.reserve(static_cast<std::size_t>(n));
    const double seconds = secondsOf([&] {
        for (Index r = 0; r < n; ++r) {
            serve::RequestOptions ropts;
            if (mixed)
                ropts.priority = mixedPriority(r);
            futures.push_back(session.submit(serve::SpmvRequest{
                name,
                operands[static_cast<std::size_t>(r % kOperandKinds)],
                ropts}));
        }
        for (auto& f : futures)
            f.wait();
    });
    double err = 0;
    for (Index r = 0; r < n; ++r) {
        serve::Result<std::vector<Value>> result =
            futures[static_cast<std::size_t>(r)].get();
        if (!result.ok()) {
            std::cerr << "request " << r << " failed: "
                      << result.status().toString() << "\n";
            return {seconds, 1e30};
        }
        err = std::max(
            err, maxAbsDiff(result.value(),
                            oracles[static_cast<std::size_t>(
                                r % kOperandKinds)]));
    }
    session.drain();
    if (mixed) {
        TextTable table("Latency by priority class (mixed traffic: "
                        "1 high : 4 normal : 3 batch)");
        table.setHeader({"priority", "requests", "p50 (us)",
                         "p99 (us)"});
        for (serve::Priority p :
             {serve::Priority::kHigh, serve::Priority::kNormal,
              serve::Priority::kBatch}) {
            const obs::Histogram& h =
                session.stats().latency(p);
            table.addRow({serve::toString(p),
                          std::to_string(h.count()),
                          formatFixed(h.percentile(0.5), 1),
                          formatFixed(h.percentile(0.99), 1)});
        }
        table.print(std::cout);
        std::cout << "\n";

        // Where a request's lifetime goes: per-stage p50/p99 from
        // the pipeline's span stamps, plus the aggregate
        // queue-vs-compute split.
        TextTable stages("Per-stage latency (all priorities)");
        stages.setHeader({"stage", "spans", "p50 (us)", "p99 (us)"});
        for (std::size_t s = 0; s < serve::kNumPipelineStages; ++s) {
            const auto stage = static_cast<serve::PipelineStage>(s);
            const obs::Histogram& h =
                session.stats().stage(stage);
            stages.addRow({serve::toString(stage),
                           std::to_string(h.count()),
                           formatFixed(h.percentile(0.5), 1),
                           formatFixed(h.percentile(0.99), 1)});
        }
        stages.print(std::cout);
        const double queue_us =
            static_cast<double>(session.stats().queueUs());
        const double compute_us =
            static_cast<double>(session.stats().computeUs());
        const double total_us = queue_us + compute_us;
        std::cout << "Queue vs compute: "
                  << formatFixed(
                         total_us > 0 ? 100.0 * queue_us / total_us : 0,
                         1)
                  << "% queued (admit+prepare+batch_wait), "
                  << formatFixed(total_us > 0
                                     ? 100.0 * compute_us / total_us
                                     : 0,
                                 1)
                  << "% computing (compute+deliver)\n\n";
    }
    return {seconds, err};
}

/** Simulated cycles of one run of @p fn on a fresh machine. */
template <typename Fn>
double
simCycles(Fn&& fn)
{
    sim::Machine machine;
    sim::SimExec exec(machine);
    fn(exec);
    return machine.core().cycles();
}

int
run(int argc, char** argv)
{
    bool smoke = false;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            args.push_back(argv[i]);
    }
    const BenchCli cli =
        parseBenchCli(static_cast<int>(args.size()), args.data());
    const double scale = wl::benchScale(smoke ? 0.02 : 0.25);
    preamble("Serving throughput (extension)",
             "serve::Session requests/sec and latency percentiles vs "
             "batch size — batched multi-RHS SpMV against individual "
             "eng::spmv calls, through the typed serve::Result API",
             scale);

    const Index rows = std::max<Index>(
        smoke ? 2048 : 4096, static_cast<Index>(32768 * scale));
    const Index nnz = std::max<Index>(
        smoke ? 65536 : 131072, static_cast<Index>(1250000 * scale));
    fmt::CooMatrix coo = wl::genClustered(rows, rows, nnz, 8, 97);

    serve::MatrixRegistry registry;
    const eng::Format chosen = registry.put("ranker", std::move(coo));
    std::cout << "Matrix: " << rows << "x" << rows << ", nnz "
              << registry.info("ranker").nnz
              << ", auto-selected format " << eng::toString(chosen)
              << "; threads " << cli.threads << ", compute exec "
              << toString(cli.exec) << "\n\n";

    std::vector<std::vector<Value>> operands;
    for (Index k = 0; k < kOperandKinds; ++k)
        operands.push_back(requestOperand(rows, k));

    // Conversion happens once, here, so every configuration below
    // measures steady-state serving (the conversion-overlap story
    // is the pipeline's; fig20 covers the cost itself).
    const serve::MatrixRegistry::EncodingPtr held =
        registry.encoded("ranker");
    const eng::SparseMatrixAny& m = *held;

    if (cli.exec == ExecKind::kSim) {
        // Cycle-accurate amortization: per-request cost of a batch
        // of 8 vs a single request.
        const Index nrhs = 8;
        std::vector<Value> x1 = kern::padVector(operands[0], m.xLength());
        std::vector<Value> y1(static_cast<std::size_t>(rows), Value(0));
        const double single = simCycles([&](sim::SimExec& e) {
            eng::spmv(m.ref(), x1, y1, e);
        });
        fmt::DenseMatrix x(m.xLength(), nrhs);
        for (Index r = 0; r < nrhs; ++r)
            for (Index j = 0; j < rows; ++j)
                x.at(j, r) = operands[static_cast<std::size_t>(
                    r % kOperandKinds)][static_cast<std::size_t>(j)];
        fmt::DenseMatrix y(rows, nrhs);
        const double batched = simCycles([&](sim::SimExec& e) {
            eng::spmvBatch(m.ref(), x, y, e);
        });
        TextTable table("Simulated cycles per request");
        table.setHeader({"batch", "cycles/request", "vs batch 1"});
        table.addRow({"1", formatFixed(single, 0), "1.00"});
        table.addRow({"8", formatFixed(batched / nrhs, 0),
                      formatFixed(single / (batched / nrhs), 2)});
        table.print(std::cout);
        return 0;
    }

    std::vector<std::vector<Value>> oracles;
    {
        sim::NativeExec ne;
        for (Index k = 0; k < kOperandKinds; ++k) {
            std::vector<Value> y(static_cast<std::size_t>(rows),
                                 Value(0));
            eng::spmv(m.ref(), operands[static_cast<std::size_t>(k)], y,
                      ne);
            oracles.push_back(std::move(y));
        }
    }

    const Index nreq = std::max<Index>(
        smoke ? 48 : 64, static_cast<Index>(2048 * scale));
    const serve::ComputeExec compute = cli.exec == ExecKind::kParallel
        ? serve::ComputeExec::kParallel
        : serve::ComputeExec::kSerial;

    serve::SessionOptions base;
    base.threads = cli.threads;
    base.maxDelay = std::chrono::microseconds(200);
    base.compute = compute;
    base.pinWorkers = cli.pin;

    // Baseline: the same requests as individual eng::spmv calls
    // (max-batch-1 pipeline) at the same thread count.
    serve::SessionOptions individual = base;
    individual.maxBatch = 1;
    const ConfigRun ind = runConfig(registry, "ranker", individual,
                                    nreq, operands, oracles, false);
    const double rps_ind = static_cast<double>(nreq) / ind.seconds;

    TextTable table(
        "Requests/sec, " + std::to_string(nreq) + " requests, " +
        std::to_string(cli.threads) +
        " threads (baseline: individual eng::spmv, " +
        formatFixed(rps_ind, 0) + " req/s)");
    table.setHeader(
        {"max batch", "req/s", "speedup vs individual", "max |err|"});
    table.addRow({"1 (individual)", formatFixed(rps_ind, 0), "1.00",
                  formatFixed(ind.err, 12)});

    double speedup8 = 0;
    double max_err = ind.err;
    for (Index batch : {4, 8, 16, 32}) {
        serve::SessionOptions opts = base;
        opts.maxBatch = batch;
        const ConfigRun r = runConfig(registry, "ranker", opts, nreq,
                                      operands, oracles, false);
        const double rps = static_cast<double>(nreq) / r.seconds;
        if (batch == 8)
            speedup8 = rps / rps_ind;
        max_err = std::max(max_err, r.err);
        table.addRow({std::to_string(batch), formatFixed(rps, 0),
                      formatFixed(rps / rps_ind, 2),
                      formatFixed(r.err, 12)});
    }
    table.print(std::cout);
    std::cout << "\n";

    // Mixed-priority latency study at max batch 16: kHigh requests
    // flush immediately (low tail), kBatch requests wait for deep
    // coalescing (high throughput), kNormal sits between.
    serve::SessionOptions mixed = base;
    mixed.maxBatch = 16;
    const ConfigRun mix = runConfig(registry, "ranker", mixed, nreq,
                                    operands, oracles, true);
    const double rps_mix = static_cast<double>(nreq) / mix.seconds;
    max_err = std::max(max_err, mix.err);
    std::cout << "Mixed-priority run: " << formatFixed(rps_mix, 0)
              << " req/s\n";

    std::cout << "\nBatch 8 vs individual at " << cli.threads
              << " threads: " << formatFixed(speedup8, 2)
              << "x requests/sec\n"
              << "Expected shape: requests/sec grows with the batch "
                 "size because one matrix traversal serves the whole "
                 "batch; gains flatten once the nrhs-wide inner loop "
                 "saturates memory bandwidth. kHigh p99 undercuts "
                 "kBatch p99 because high-priority arrivals skip the "
                 "flush wait.\n";
    if (obs::traceEnabled()) {
        // All sessions are drained and destroyed: every recording
        // thread is quiesced, so the dump sees consistent rings.
        const char* out_env = std::getenv("SMASH_TRACE_OUT");
        const std::string trace_path =
            out_env != nullptr ? out_env : "smash_trace.json";
        std::ofstream trace_out(trace_path);
        if (!trace_out) {
            std::cerr << "cannot write " << trace_path << "\n";
            return 1;
        }
        const obs::TraceCollector& tc = obs::TraceCollector::global();
        tc.dumpJson(trace_out);
        std::cout << "\nwrote " << tc.retained() << " trace events ("
                  << tc.dropped() << " dropped by ring wrap) to "
                  << trace_path << "\n";
    }

    if (max_err > 1e-9) {
        std::cerr << "served results diverge from the serial oracle ("
                  << max_err << ")!\n";
        return 1;
    }
    if (smoke && speedup8 < 0.5) {
        // The gate is deliberately loose: tiny CI workloads are
        // noisy, but a typed-API path that halves throughput vs the
        // individual baseline would still be caught.
        std::cerr << "smoke gate: batch-8 throughput regressed to "
                  << speedup8 << "x of the individual baseline\n";
        return 1;
    }
    return 0;
}

} // namespace
} // namespace smash::bench

int
main(int argc, char** argv)
{
    return smash::bench::run(argc, argv);
}
