/**
 * @file
 * Format auto-selection example: three structurally different
 * matrices — a banded finite-difference system, a clustered
 * FEM-style matrix, and a power-law graph matrix — run through
 * eng::encodeAuto(), which profiles the structure (nnz/row,
 * diagonal coverage, §7.2.3 locality of sparsity — one linear pass
 * over the CSR form, eng::analyzeStructure()) and picks DIA, SMASH,
 * and CSR respectively. Every result is validated against CSR
 * through the same dispatch API the selection feeds.
 *
 * Build:  cmake -B build && cmake --build build
 * Run:    ./build/examples/engine_autoselect
 */

#include <cmath>
#include <iostream>

#include "common/table.hh"
#include "engine/autoselect.hh"
#include "engine/dispatch.hh"
#include "workloads/matrix_gen.hh"

int
main()
{
    using namespace smash;

    struct Case
    {
        const char* name;
        fmt::CooMatrix coo;
    };
    const Case cases[] = {
        {"Poisson 64x64 grid (banded)", wl::genPoisson2d(64, 64)},
        {"FEM-style clustered (locality 0.9)",
         wl::genWithLocality(4096, 4096, 120000, 8, 0.9, 11)},
        {"power-law graph rows (scattered)",
         wl::genPowerLaw(4096, 4096, 90000, 1.1, 12)},
    };

    TextTable table("Auto-selection on three structure classes");
    table.setHeader({"matrix", "nnz/row", "diagonals", "locality",
                     "chosen format", "max |err| vs CSR"});

    sim::NativeExec e;
    for (const Case& c : cases) {
        const fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(c.coo);
        const eng::StructureStats stats = eng::analyzeStructure(csr);
        eng::SparseMatrixAny m = eng::encodeAuto(c.coo);

        // Validate the selected encoding against CSR via dispatch.
        std::vector<Value> x(static_cast<std::size_t>(c.coo.cols()),
                             Value(1));
        for (Index i = 0; i < c.coo.cols(); ++i)
            x[static_cast<std::size_t>(i)] += Value(i % 5) * Value(0.5);
        std::vector<Value> y_auto(
            static_cast<std::size_t>(c.coo.rows()), Value(0));
        std::vector<Value> y_csr(y_auto.size(), Value(0));
        eng::spmv(m, x, y_auto, e);
        eng::spmv(csr, x, y_csr, e);
        double err = 0;
        for (std::size_t i = 0; i < y_auto.size(); ++i)
            err = std::max(err, std::abs(
                static_cast<double>(y_auto[i] - y_csr[i])));

        table.addRow({c.name, formatFixed(stats.avgNnzPerRow, 1),
                      std::to_string(stats.numDiagonals),
                      formatFixed(stats.blockLocality, 2),
                      eng::toString(m.format()),
                      formatFixed(err, 12)});
        if (err > 1e-9) {
            std::cerr << "dispatch mismatch on " << c.name << "\n";
            return 1;
        }
    }
    table.print(std::cout);
    std::cout << "\nRule set (engine/autoselect.cc): dense when density"
                 " >= 0.4; DIA when few, well-filled diagonals; SMASH"
                 " when locality of sparsity >= 0.5 (paper §7.2.3);"
                 " ELL when row populations are uniform; CSR otherwise."
                 "\n";
    return 0;
}
