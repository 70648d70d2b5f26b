#include "harness.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "engine/dispatch.hh"
#include "formats/convert.hh"

namespace smash::bench
{

namespace
{

[[noreturn]] void
usage(const char* prog, const std::string& complaint)
{
    std::cerr << prog << ": " << complaint << "\n"
              << "usage: " << prog
              << " [--threads N] [--pin]\n";
    std::exit(2);
}

} // namespace

BenchCli
parseBenchCli(int argc, char** argv)
{
    BenchCli cli;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0) {
            if (++i >= argc)
                usage(argv[0], "--threads needs a value");
            char* end = nullptr;
            const long n = std::strtol(argv[i], &end, 10);
            if (end == argv[i] || *end != '\0' || n < 1 || n > 1024)
                usage(argv[0], std::string("bad thread count '") +
                                   argv[i] + "'");
            cli.threads = static_cast<int>(n);
        } else if (std::strcmp(arg, "--pin") == 0) {
            cli.pin = true;
        } else {
            usage(argv[0], std::string("unknown flag '") + arg + "'");
        }
    }
    return cli;
}

namespace
{

/** Engine dispatch options equivalent to one bench scheme. */
eng::SpmvOptions
schemeOptions(SpmvScheme scheme, isa::Bmu* bmu)
{
    switch (scheme) {
      case SpmvScheme::kTacoCsr:
      case SpmvScheme::kTacoBcsr:
      case SpmvScheme::kSmashSw:
        return {eng::SpmvAlgo::kPlain, nullptr};
      case SpmvScheme::kMklCsr:
        return {eng::SpmvAlgo::kUnrolled, nullptr};
      case SpmvScheme::kIdealCsr:
        return {eng::SpmvAlgo::kIdeal, nullptr};
      case SpmvScheme::kSmashHw:
        return {eng::SpmvAlgo::kHw, bmu};
    }
    SMASH_PANIC("unknown scheme");
}

/** The encoding of @p bundle one scheme runs on. */
eng::MatrixRef
schemeMatrix(SpmvScheme scheme, const MatrixBundle& bundle)
{
    switch (scheme) {
      case SpmvScheme::kTacoCsr:
      case SpmvScheme::kMklCsr:
      case SpmvScheme::kIdealCsr:
        return bundle.csr;
      case SpmvScheme::kTacoBcsr:
        return bundle.bcsr;
      case SpmvScheme::kSmashSw:
      case SpmvScheme::kSmashHw:
        return bundle.smash;
    }
    SMASH_PANIC("unknown scheme");
}

} // namespace

void
preamble(const std::string& figure, const std::string& what, double scale)
{
    std::cout
        << "================================================================\n"
        << "SMASH reproduction — " << figure << "\n"
        << what << "\n"
        << "Simulated system (paper Table 2): 4-wide OOO core; "
        << "L1 32KB/8w/2cyc, L2 256KB/8w/8cyc, L3 1MB/16w/20cyc,\n"
        << "  64B lines, LRU, stride prefetchers; DDR4 1ch/16-bank "
        << "open-row (hit 110 / miss 170 cyc); MLP 4.\n"
        << "Workload scale factor: " << scale
        << " (override with SMASH_BENCH_SCALE in (0,1]; rows and nnz"
        << " shrink together, sparsity%/structure preserved)\n"
        << "================================================================\n";
}

MatrixBundle
buildBundle(const wl::MatrixSpec& spec,
            const std::vector<Index>& hierarchy)
{
    MatrixBundle b{spec, wl::generateMatrix(spec), {}, {}, {}, 0.0};
    b.csr = fmt::CsrMatrix::fromCoo(b.coo);
    b.bcsr = fmt::BcsrMatrix::fromCoo(b.coo, 4, 4);
    core::HierarchyConfig cfg = hierarchy.empty()
        ? wl::paperHierarchy(spec)
        : core::HierarchyConfig::fromPaperNotation(hierarchy);
    b.smash = core::SmashMatrix::fromCoo(b.coo, cfg);
    b.locality = b.smash.localityOfSparsity();
    return b;
}

namespace
{

std::vector<Value>
onesVector(Index n)
{
    return std::vector<Value>(static_cast<std::size_t>(n), Value(1));
}

template <typename Fn>
SimResult
measureSim(Fn&& fn)
{
    sim::Machine machine;
    sim::SimExec exec(machine);
    fn(exec);
    SimResult r;
    r.cycles = machine.core().cycles();
    r.instructions = machine.core().instructions();
    r.dramReads = machine.memory().dram().stats().reads;
    return r;
}

} // namespace

SimResult
simSpmv(SpmvScheme scheme, const MatrixBundle& bundle)
{
    const Index rows = bundle.coo.rows();
    const Index cols = bundle.coo.cols();
    eng::MatrixRef m = schemeMatrix(scheme, bundle);
    // Pre-pad outside the measured region so simulation bills no
    // host-side copy.
    std::vector<Value> x = kern::padVector(onesVector(cols), m.xLength());
    std::vector<Value> y(static_cast<std::size_t>(rows), Value(0));

    return measureSim([&](sim::SimExec& e) {
        isa::Bmu bmu;
        eng::spmv(m, x, y, e, schemeOptions(scheme, &bmu));
    });
}

double
nativeSpmvSeconds(SpmvScheme scheme, const MatrixBundle& bundle, int reps)
{
    const Index rows = bundle.coo.rows();
    const Index cols = bundle.coo.cols();
    eng::MatrixRef m = schemeMatrix(scheme, bundle);
    std::vector<Value> x = kern::padVector(onesVector(cols), m.xLength());
    std::vector<Value> y(static_cast<std::size_t>(rows), Value(0));
    sim::NativeExec e;
    isa::Bmu bmu;
    const eng::SpmvOptions opts = schemeOptions(scheme, &bmu);

    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        double t = secondsOf([&] { eng::spmv(m, x, y, e, opts); });
        best = t < best ? t : best;
    }
    return best;
}

SpmmBundle
buildSpmmBundle(const MatrixBundle& bundle,
                const std::vector<Index>& hierarchy)
{
    // B = A^T restricted to its first kSpmmCols columns: exercises
    // real index matching at tractable cost (DESIGN.md §5).
    SpmmBundle out;
    out.cols = std::min<Index>(kSpmmCols, bundle.coo.rows());
    fmt::CooMatrix b_coo(bundle.coo.cols(), out.cols);
    for (const fmt::CooEntry& entry : bundle.coo.entries()) {
        if (entry.row < out.cols)
            b_coo.add(entry.col, entry.row, entry.value);
    }
    b_coo.canonicalize();

    out.bCsc = fmt::CscMatrix::fromCoo(b_coo);
    fmt::CooMatrix bt_coo = fmt::transpose(
        fmt::CsrMatrix::fromCoo(b_coo)).toCoo();
    out.btBcsr = fmt::BcsrMatrix::fromCoo(bt_coo, 4, 4);
    core::HierarchyConfig cfg = hierarchy.empty()
        ? wl::paperHierarchy(bundle.spec)
        : core::HierarchyConfig::fromPaperNotation(hierarchy);
    out.btSmash = core::SmashMatrix::fromCoo(bt_coo, cfg);
    return out;
}

namespace
{

/** The (A, B-operand) encoding pair one SpMM scheme runs on. */
std::pair<eng::MatrixRef, eng::MatrixRef>
spmmOperands(SpmvScheme scheme, const MatrixBundle& a,
             const SpmmBundle& b)
{
    switch (scheme) {
      case SpmvScheme::kTacoCsr:
      case SpmvScheme::kMklCsr:
      case SpmvScheme::kIdealCsr:
        return {eng::MatrixRef(a.csr), eng::MatrixRef(b.bCsc)};
      case SpmvScheme::kTacoBcsr:
        return {eng::MatrixRef(a.bcsr), eng::MatrixRef(b.btBcsr)};
      case SpmvScheme::kSmashSw:
      case SpmvScheme::kSmashHw:
        return {eng::MatrixRef(a.smash), eng::MatrixRef(b.btSmash)};
    }
    SMASH_PANIC("unknown scheme");
}

} // namespace

SimResult
simSpmm(SpmvScheme scheme, const MatrixBundle& a, const SpmmBundle& b)
{
    fmt::DenseMatrix c(a.coo.rows(), b.cols);
    const auto [ma, mb] = spmmOperands(scheme, a, b);
    return measureSim([&, ma = ma, mb = mb](sim::SimExec& e) {
        isa::Bmu bmu;
        eng::spmm(ma, mb, c, e, schemeOptions(scheme, &bmu));
    });
}

double
nativeSpmmSeconds(SpmvScheme scheme, const MatrixBundle& a,
                  const SpmmBundle& b, int reps)
{
    fmt::DenseMatrix c(a.coo.rows(), b.cols);
    sim::NativeExec e;
    isa::Bmu bmu;
    const auto [ma, mb] = spmmOperands(scheme, a, b);
    const eng::SpmvOptions opts = schemeOptions(scheme, &bmu);
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        double t = secondsOf([&, ma = ma, mb = mb] {
            eng::spmm(ma, mb, c, e, opts);
        });
        best = t < best ? t : best;
    }
    return best;
}

double
secondsOf(const std::function<void()>& fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace smash::bench
