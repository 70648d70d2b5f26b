/**
 * @file
 * Reproduces paper Figure 16: sensitivity of SMASH SpMV speedup to
 * the *locality of sparsity* (average non-zeros per NZA block /
 * block size), swept 12.5%..100% on the M2 / M8 / M13 shapes with
 * the Mi.16.4.8 and M13.8.4.8 configurations, normalized to 12.5%.
 *
 * Paper reference: speedup rises with locality (up to +25% on M13),
 * and the benefit is smaller for sparser matrices, where indexing
 * dominates and NZA zero-padding matters less.
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "workloads/matrix_gen.hh"

namespace smash::bench
{
namespace
{

struct Shape
{
    const char* label;
    int suiteIndex;             // index into table3Specs()
    std::vector<Index> config;  // top-down, b0 = 8 per the caption
};

int
run()
{
    const double scale = wl::benchScale(0.3);
    preamble("Figure 16",
             "SMASH SpMV speedup vs locality of sparsity "
             "(normalized to 12.5% locality)",
             scale);

    const std::vector<Shape> shapes = {
        {"M2.16.4.8", 1, {16, 4, 8}},
        {"M8.16.4.8", 7, {16, 4, 8}},
        {"M13.8.4.8", 12, {8, 4, 8}},
    };
    const std::vector<double> localities{0.125, 0.25, 0.375, 0.5,
                                         0.625, 0.75, 0.875, 1.0};

    TextTable table("Figure 16 — SpMV speedup vs locality of sparsity");
    std::vector<std::string> header{"shape"};
    for (double loc : localities)
        header.push_back(formatFixed(loc * 100, 1) + "%");
    table.setHeader(header);

    auto specs = wl::table3Specs();
    for (const Shape& shape : shapes) {
        wl::MatrixSpec spec = wl::scaleSpec(
            specs[static_cast<std::size_t>(shape.suiteIndex)], scale);
        const Index block = shape.config.back();
        std::vector<std::string> row{shape.label};
        double base_cycles = 0;
        for (double loc : localities) {
            // Scaled-down runs can make the lowest locality points
            // infeasible; normalize to the first feasible point.
            if (!wl::localityFits(spec.rows, spec.cols, spec.nnz, block,
                                  loc)) {
                row.push_back("n/a");
                continue;
            }
            fmt::CooMatrix coo = wl::genWithLocality(
                spec.rows, spec.cols, spec.nnz, block, loc, spec.seed);
            MatrixBundle bundle;
            bundle.spec = spec;
            bundle.coo = std::move(coo);
            bundle.csr = fmt::CsrMatrix::fromCoo(bundle.coo);
            bundle.bcsr = fmt::BcsrMatrix::fromCoo(bundle.coo, 4, 4);
            bundle.smash = core::SmashMatrix::fromCoo(
                bundle.coo,
                core::HierarchyConfig::fromPaperNotation(shape.config));
            double cycles = simSpmv(SpmvScheme::kSmashHw, bundle).cycles;
            if (base_cycles == 0)
                base_cycles = cycles; // first feasible point
            row.push_back(formatFixed(base_cycles / cycles, 2));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "(paper: monotone increase, up to ~1.25 on M13; "
                 "flattest on the sparsest matrix M2)\n";
    return 0;
}

} // namespace
} // namespace smash::bench

int
main()
{
    return smash::bench::run();
}
