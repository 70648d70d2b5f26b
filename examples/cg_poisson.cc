/**
 * @file
 * Solver example (paper §5.2.1): solve a 2-D Poisson system with
 * Conjugate Gradient where the operator is applied through three
 * interchangeable SpMV backends — CSR, Software-only SMASH, and the
 * BMU — then accelerate convergence with an ILU(0) preconditioner
 * built on the sparse-LU substrate.
 *
 * Build:  cmake -B build -G Ninja && cmake --build build
 * Run:    ./build/examples/cg_poisson [grid_side]
 */

#include <iostream>

#include "cli_args.hh"
#include "engine/operator.hh"
#include "isa/bmu.hh"
#include "sim/exec_model.hh"
#include "solvers/ilu.hh"
#include "solvers/krylov.hh"
#include "workloads/matrix_gen.hh"

int
main(int argc, char** argv)
{
    using namespace smash;

    const Index side =
        examples::positiveArg(argc, argv, 1, 48, "[grid_side]");
    fmt::CooMatrix coo = wl::genPoisson2d(side, side);
    fmt::CsrMatrix a = fmt::CsrMatrix::fromCoo(coo);
    core::SmashMatrix smash = core::SmashMatrix::fromCoo(
        coo, core::HierarchyConfig::fromPaperNotation({16, 4, 2}));

    std::cout << "2-D Poisson, " << side << "x" << side << " grid: "
              << a.rows() << " unknowns, " << a.nnz() << " non-zeros\n\n";

    std::vector<Value> b(static_cast<std::size_t>(a.rows()), 1.0);
    sim::NativeExec exec;
    const double tol = 1e-9;
    const int max_iters = 5000;

    // --- CG with each SpMV backend. ---
    auto solve_with = [&](const char* name, auto&& apply) {
        std::vector<Value> x(b.size(), 0.0);
        solve::IdentityPreconditioner ident;
        solve::SolveReport r = solve::preconditionedCg(
            apply,
            [&](const std::vector<Value>& rr, std::vector<Value>& z,
                sim::NativeExec& ee) { ident(rr, z, ee); },
            b, x, tol, max_iters, exec);
        std::cout << "  " << name << ": " << solve::toString(r) << "\n";
        return x;
    };

    // Each backend is the same engine operator with different
    // dispatch options — the solver never sees the format.
    std::cout << "Plain CG, three SpMV backends:\n";
    std::vector<Value> x_csr =
        solve_with("CSR        ", eng::makeOperator(a, exec));
    std::vector<Value> x_sw =
        solve_with("SW-SMASH   ", eng::makeOperator(smash, exec));
    isa::Bmu bmu;
    std::vector<Value> x_hw = solve_with(
        "SMASH (BMU)",
        eng::makeOperator(smash, exec, {.bmu = &bmu}));

    double max_diff = 0;
    for (std::size_t i = 0; i < x_csr.size(); ++i) {
        max_diff = std::max(max_diff, std::abs(x_csr[i] - x_sw[i]));
        max_diff = std::max(max_diff, std::abs(x_csr[i] - x_hw[i]));
    }
    std::cout << "  max cross-backend difference: " << max_diff << "\n\n";

    // --- ILU(0)-preconditioned CG. ---
    std::cout << "ILU(0)-preconditioned CG (sparse LU substrate):\n";
    solve::Ilu0Preconditioner ilu(solve::ilu0(a));
    std::vector<Value> x(b.size(), 0.0);
    solve::SolveReport r = solve::preconditionedCg(
        eng::makeOperator(a, exec),
        [&](const std::vector<Value>& rr, std::vector<Value>& z,
            sim::NativeExec& ee) { ilu(rr, z, ee); },
        b, x, tol, max_iters, exec);
    std::cout << "  ILU(0)-PCG : " << solve::toString(r) << "\n";

    // --- Extreme eigenvalues via Lanczos (condition number). ---
    std::vector<Value> start(b.size(), 1.0);
    solve::LanczosResult lr = solve::lanczos(
        eng::makeOperator(a, exec), start, 64, exec);
    auto ritz = lr.ritzValues();
    std::cout << "\nLanczos (64 steps): spectrum approx ["
              << ritz.front() << ", " << ritz.back()
              << "], condition estimate "
              << ritz.back() / ritz.front() << "\n";
    return max_diff < 1e-6 ? 0 : 1;
}
