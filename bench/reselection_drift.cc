/**
 * @file
 * Reselection-under-drift study (extension): SpMV throughput of a
 * long-lived served matrix whose structure drifts, with the format
 * pinned at registration versus re-selected by the registry's drift
 * detector.
 *
 * The matrix starts banded (tridiagonal — §7.2.3 auto-selection
 * picks DIA, whose stored-diagonal walk is ideal there). Rounds of
 * scattered COO deltas then push it toward uniform scatter: every
 * delta lands on a fresh diagonal, so the pinned DIA encoding
 * accretes near-empty stored diagonals and its SpMV walks ever more
 * padding, while the adaptive registry notices the profile crossing
 * the format boundary and re-encodes once into a scatter-friendly
 * format. The study reports post-drift SpMV time for both and fails
 * (exit 1) if reselection does not at least match the pinned
 * format — the acceptance bar of the update-and-reselect subsystem.
 *
 *   --smoke       tiny workload + fewer reps (CI)
 *   SMASH_BENCH_SCALE  shrinks the matrix and the drift volume
 *
 * Compute is the serial native kernel: the study isolates format
 * effects, not parallel scaling.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "engine/dispatch.hh"
#include "harness.hh"
#include "serve/registry.hh"
#include "workloads/matrix_gen.hh"
#include "workloads/matrix_suite.hh"

namespace smash::bench
{
namespace
{

std::vector<Value>
operand(Index n)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value((i * 7) % 13) * Value(0.0625);
    return x;
}

/** Best-of-@p reps serial SpMV seconds on the current encoding. */
double
spmvSeconds(serve::MatrixRegistry& registry, const std::string& name,
            const std::vector<Value>& x, std::vector<Value>& y,
            int reps)
{
    const serve::MatrixRegistry::EncodingPtr m =
        registry.encoded(name);
    double best = 1e30;
    for (int i = 0; i < reps; ++i) {
        std::fill(y.begin(), y.end(), Value(0));
        sim::NativeExec e;
        best = std::min(best, secondsOf([&] {
            eng::spmv(m->ref(), x, y, e);
        }));
    }
    return best;
}

double
maxAbsDiff(const std::vector<Value>& a, const std::vector<Value>& b)
{
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i] - b[i])));
    return m;
}

int
run(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") != 0) {
            std::cerr << argv[0] << ": unknown flag '" << argv[i]
                      << "'\nusage: " << argv[0] << " [--smoke]\n";
            return 2;
        }
        smoke = true;
    }
    const double scale = wl::benchScale(smoke ? 0.25 : 1.0);
    preamble("Reselection under drift (extension)",
             "post-drift SpMV of a served matrix: format pinned at "
             "registration vs drift-triggered re-selection",
             scale);

    const Index n = std::max<Index>(
        smoke ? 512 : 1024, static_cast<Index>(2048 * scale));
    const Index rounds = smoke ? 4 : 8;
    const Index per_round = n / 2;
    const int reps = smoke ? 3 : 5;

    // Two registries see identical content: one with the drift
    // detector off (the format stays whatever registration chose),
    // one with the default policy (hook-less, so the re-encode runs
    // inline on the mutating thread — the async path is the serving
    // pipeline's and is covered by tests/test_reselect.cc).
    serve::MatrixRegistry pinned;
    serve::ReselectPolicy off;
    off.enabled = false;
    pinned.setReselectPolicy(off);
    serve::MatrixRegistry adaptive;

    const eng::Format start = pinned.put("m", wl::genTridiagonal(n));
    adaptive.put("m", wl::genTridiagonal(n));
    std::cout << "Matrix: " << n << "x" << n << " tridiagonal, "
              << "registered as " << eng::toString(start) << "; drift: "
              << rounds << " rounds x " << per_round
              << " scattered deltas\n\n";

    const std::vector<Value> x = operand(n);
    std::vector<Value> y_pinned(static_cast<std::size_t>(n));
    std::vector<Value> y_adaptive(static_cast<std::size_t>(n));
    const double before =
        spmvSeconds(pinned, "m", x, y_pinned, reps);

    for (Index round = 0; round < rounds; ++round) {
        // Identical delta streams: both registries see the same drift.
        const fmt::CooMatrix deltas = wl::genScatterDeltas(
            n, n, per_round, 7 + static_cast<std::uint64_t>(round));
        pinned.applyUpdates("m", deltas);
        adaptive.applyUpdates("m", deltas);
    }

    const double t_pinned =
        spmvSeconds(pinned, "m", x, y_pinned, reps);
    const double t_adaptive =
        spmvSeconds(adaptive, "m", x, y_adaptive, reps);
    const double err = maxAbsDiff(y_pinned, y_adaptive);

    const eng::StructureStats profile = adaptive.profile("m");
    TextTable table("Post-drift SpMV (nnz " +
                    std::to_string(profile.nnz) + ", " +
                    std::to_string(profile.numDiagonals) +
                    " occupied diagonals)");
    table.setHeader({"config", "format", "SpMV ms", "vs pinned"});
    table.addRow({"pinned at registration",
                  eng::toString(pinned.format("m")),
                  formatFixed(t_pinned * 1e3, 3), "1.00"});
    table.addRow({"drift-reselected",
                  eng::toString(adaptive.format("m")),
                  formatFixed(t_adaptive * 1e3, 3),
                  formatFixed(t_pinned / t_adaptive, 2)});
    table.print(std::cout);

    std::cout << "\nPre-drift " << eng::toString(start) << " SpMV: "
              << formatFixed(before * 1e3, 3) << " ms; reselects: "
              << adaptive.reselects("m")
              << "; max |y_pinned - y_reselected| = " << err << "\n"
              << "Expected shape: scattered deltas land on fresh "
                 "diagonals, so the pinned DIA walk pays ever more "
                 "padding while the re-selected format only pays for "
                 "stored non-zeros.\n";

    if (err > 1e-9) {
        std::cerr << "pinned and reselected results diverge (" << err
                  << ")!\n";
        return 1;
    }
    if (adaptive.reselects("m") == 0) {
        std::cerr << "drift never triggered a reselection!\n";
        return 1;
    }
    // The acceptance bar: reselected-format SpMV must be at least
    // as fast as the pinned format after drift (10% noise floor).
    if (t_adaptive > t_pinned * 1.1) {
        std::cerr << "reselected format is slower than the pinned "
                     "one after drift ("
                  << formatFixed(t_adaptive * 1e3, 3) << " ms vs "
                  << formatFixed(t_pinned * 1e3, 3) << " ms)!\n";
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
