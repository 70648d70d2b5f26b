/**
 * @file
 * Thread-scaling study (extension): native SpMV wall clock of the
 * engine's ParallelExec drivers vs the serial kernels on a >= 1M-nnz
 * generated matrix, for CSR (nnz-balanced row ranges) and SMASH
 * (Bitmap-0 word ranges with per-thread accumulators), at 1/2/4/8
 * threads. Results are validated element-wise against the serial
 * path. Speedups depend on the machine's core count (printed);
 * on a single hardware thread the study degenerates to measuring
 * pool overhead, which is itself worth knowing.
 *
 * The matrices are wrapped in SparseMatrixAny, so repeated
 * dispatches hit the cached partition plans — the steady-state
 * serving regime, where the per-call partitioning setup (row cuts,
 * the SMASH word-rank pre-scan) is paid once, not per request.
 * --pin additionally pins the pool workers (sticky chunks then
 * stay core-resident).
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <thread>

#include "common/parallel_exec.hh"
#include "common/table.hh"
#include "engine/dispatch.hh"
#include "harness.hh"
#include "workloads/matrix_gen.hh"

namespace smash::bench
{
namespace
{

double
maxAbsDiff(const std::vector<Value>& a, const std::vector<Value>& b)
{
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i] - b[i])));
    return m;
}

/** Best-of-reps wall clock of fn(). */
template <typename Fn>
double
bestSeconds(int reps, Fn&& fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r)
        best = std::min(best, secondsOf(fn));
    return best;
}

int
run(int argc, char** argv)
{
    const BenchCli cli = parseBenchCli(argc, argv);
    const double scale = wl::benchScale(1.0);
    preamble("Parallel scaling (extension)",
             "ParallelExec SpMV speedup over the serial native path "
             "(CSR row ranges, SMASH word ranges)",
             scale);
    std::cout << "Hardware threads available: "
              << std::thread::hardware_concurrency() << "\n\n";

    // >= 1M non-zeros at full scale, clustered so both CSR and
    // SMASH are exercised in their intended regime. ~38 nnz/row
    // keeps the Bitmap-0 area (one bit per 8 elements of the padded
    // matrix) within a few MiB.
    const Index rows = std::max<Index>(
        4096, static_cast<Index>(32768 * scale));
    const Index nnz = std::max<Index>(
        131072, static_cast<Index>(1250000 * scale));
    fmt::CooMatrix coo = wl::genClustered(rows, rows, nnz, 8, 97);
    // SparseMatrixAny holders: dispatches below go through each
    // matrix's PlanCache, so every thread count's partition is
    // computed once and the timed repetitions run plan-cached.
    eng::SparseMatrixAny csr(fmt::CsrMatrix::fromCoo(coo));
    eng::SparseMatrixAny smash(core::SmashMatrix::fromCoo(
        coo, core::HierarchyConfig::fromPaperNotation({16, 4, 2})));
    std::cout << "Matrix: " << rows << "x" << rows << ", nnz "
              << coo.nnz() << ", SMASH locality "
              << formatFixed(smash.as<core::SmashMatrix>()
                                 .localityOfSparsity(),
                             2)
              << (cli.pin ? ", workers pinned" : "") << "\n\n";

    std::vector<Value> x(static_cast<std::size_t>(rows), Value(1));
    for (Index i = 0; i < rows; ++i)
        x[static_cast<std::size_t>(i)] += Value(i % 9) * Value(0.125);

    // Sweep the standard counts, plus --threads when it adds one.
    std::vector<int> thread_counts{1, 2, 4, 8};
    if (std::find(thread_counts.begin(), thread_counts.end(),
                  cli.threads) == thread_counts.end())
        thread_counts.push_back(cli.threads);

    const int reps = 5;
    sim::NativeExec serial;

    std::vector<Value> y_csr(static_cast<std::size_t>(rows), Value(0));
    const double t_csr = bestSeconds(reps, [&] {
        std::fill(y_csr.begin(), y_csr.end(), Value(0));
        eng::spmv(csr, x, y_csr, serial);
    });
    std::vector<Value> y_smash(static_cast<std::size_t>(rows), Value(0));
    const double t_smash = bestSeconds(reps, [&] {
        std::fill(y_smash.begin(), y_smash.end(), Value(0));
        eng::spmv(smash, x, y_smash, serial);
    });

    TextTable table("SpMV wall clock, best of " +
                    std::to_string(reps) + " (serial baseline: CSR " +
                    formatFixed(t_csr * 1e3, 2) + " ms, SMASH " +
                    formatFixed(t_smash * 1e3, 2) + " ms)");
    table.setHeader({"threads", "CSR ms", "CSR speedup", "SMASH ms",
                     "SMASH speedup", "max |err|"});

    for (int threads : thread_counts) {
        exec::ParallelExec pe(
            exec::ThreadPool::Options{threads, cli.pin});
        std::vector<Value> y(static_cast<std::size_t>(rows), Value(0));

        const double tp_csr = bestSeconds(reps, [&] {
            std::fill(y.begin(), y.end(), Value(0));
            eng::spmv(csr, x, y, pe);
        });
        std::fill(y.begin(), y.end(), Value(0));
        eng::spmv(csr, x, y, pe);
        double err = maxAbsDiff(y, y_csr);

        const double tp_smash = bestSeconds(reps, [&] {
            std::fill(y.begin(), y.end(), Value(0));
            eng::spmv(smash, x, y, pe);
        });
        std::fill(y.begin(), y.end(), Value(0));
        eng::spmv(smash, x, y, pe);
        err = std::max(err, maxAbsDiff(y, y_smash));

        table.addRow({std::to_string(threads),
                      formatFixed(tp_csr * 1e3, 2),
                      formatFixed(t_csr / tp_csr, 2),
                      formatFixed(tp_smash * 1e3, 2),
                      formatFixed(t_smash / tp_smash, 2),
                      formatFixed(err, 12)});
        if (err > 1e-9) {
            std::cerr << "parallel/serial mismatch at " << threads
                      << " threads!\n";
            return 1;
        }
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: near-linear CSR scaling up to the "
                 "physical core count (the row ranges are nnz-balanced "
                 "and share nothing); SMASH scales similarly with a "
                 "constant merge cost for the per-thread accumulators. "
                 "Beyond the core count, work stealing keeps the "
                 "oversubscribed configurations from regressing.\n";
    return 0;
}

} // namespace
} // namespace smash::bench

int
main(int argc, char** argv)
{
    return smash::bench::run(argc, argv);
}
