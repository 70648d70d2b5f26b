/**
 * @file
 * Shared plumbing for the per-figure benchmark binaries: the
 * simulated-system preamble (paper Table 2), workload-bundle
 * construction, per-scheme SpMV/SpMM simulation runners, and
 * wall-clock timing helpers for the native (real-system) benches.
 *
 * Every binary prints the paper figure/table it regenerates, the
 * workload scale in effect (SMASH_BENCH_SCALE), and then the same
 * rows/series the paper reports.
 */

#ifndef SMASH_BENCH_HARNESS_HH
#define SMASH_BENCH_HARNESS_HH

#include <functional>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/smash_matrix.hh"
#include "formats/bcsr_matrix.hh"
#include "formats/csc_matrix.hh"
#include "formats/csr_matrix.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_suite.hh"

namespace smash::bench
{

/** Options shared by the CLI-driven benches. */
struct BenchCli
{
    int threads = 4;  //!< --threads N
    bool pin = false; //!< --pin: pin pool workers
};

/**
 * Parse --threads N and --pin from a bench command line (both
 * optional). Prints usage and exits(2) on an unknown flag or a
 * malformed value.
 */
BenchCli parseBenchCli(int argc, char** argv);

/** Simulated-cost measurement of one kernel run. */
struct SimResult
{
    double cycles = 0;
    Counter instructions = 0;
    Counter dramReads = 0;
};

/** Print the figure banner + simulated system config + scale. */
void preamble(const std::string& figure, const std::string& what,
              double scale);

/** All encodings of one suite matrix, built once per bench. */
struct MatrixBundle
{
    wl::MatrixSpec spec;
    fmt::CooMatrix coo;
    fmt::CsrMatrix csr;
    fmt::BcsrMatrix bcsr;
    core::SmashMatrix smash;
    double locality = 0;
};

/**
 * Generate and encode a suite matrix.
 * @param hierarchy overrides the spec's paper hierarchy when
 *        non-empty (top-down notation)
 */
MatrixBundle buildBundle(const wl::MatrixSpec& spec,
                         const std::vector<Index>& hierarchy = {});

/** SpMV schemes of Figs. 10-11. */
enum class SpmvScheme
{
    kTacoCsr,
    kTacoBcsr,
    kMklCsr,
    kSmashSw,
    kSmashHw,
    kIdealCsr,
};

/** Run one simulated SpMV on a fresh machine. */
SimResult simSpmv(SpmvScheme scheme, const MatrixBundle& bundle);

/** Native wall-clock SpMV (seconds), best of @p reps repetitions. */
double nativeSpmvSeconds(SpmvScheme scheme, const MatrixBundle& bundle,
                         int reps);

/** Inputs for the inner-product SpMM benches: B = A^T restricted to
 *  the first kSpmmCols columns (documented in DESIGN.md). */
struct SpmmBundle
{
    fmt::CscMatrix bCsc;
    fmt::BcsrMatrix btBcsr;
    core::SmashMatrix btSmash;
    Index cols = 0;
};

/** Number of B columns used by the SpMM benches. */
inline constexpr Index kSpmmCols = 64;

/** Build the SpMM operand set for @p bundle. */
SpmmBundle buildSpmmBundle(const MatrixBundle& bundle,
                           const std::vector<Index>& hierarchy = {});

/** Run one simulated SpMM on a fresh machine. */
SimResult simSpmm(SpmvScheme scheme, const MatrixBundle& a,
                  const SpmmBundle& b);

/** Native wall-clock SpMM (seconds), best of @p reps repetitions. */
double nativeSpmmSeconds(SpmvScheme scheme, const MatrixBundle& a,
                         const SpmmBundle& b, int reps);

/** Wall-clock seconds of @p fn (single invocation). */
double secondsOf(const std::function<void()>& fn);

} // namespace smash::bench

#endif // SMASH_BENCH_HARNESS_HH
