/**
 * @file
 * Reproduces paper Figure 17: sensitivity of SMASH SpMM speedup to
 * the locality of sparsity, same shapes/configurations as Fig. 16,
 * normalized to 12.5% locality. Paper reference: same monotone
 * trend as SpMV, slightly stronger for the denser matrices.
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
    int suiteIndex;
    std::vector<Index> config;
};

int
run()
{
    const double scale = wl::benchScale(0.05);
    preamble("Figure 17",
             "SMASH SpMM speedup vs locality of sparsity "
             "(normalized to 12.5% locality; B = A^T[:, :64])",
             scale);

    const std::vector<Shape> shapes = {
        {"M2.16.4.8", 1, {16, 4, 8}},
        {"M8.16.4.8", 7, {16, 4, 8}},
        {"M13.8.4.8", 12, {8, 4, 8}},
    };
    const std::vector<double> localities{0.125, 0.25, 0.375, 0.5,
                                         0.625, 0.75, 0.875, 1.0};

    TextTable table("Figure 17 — SpMM speedup vs locality of sparsity");
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
            MatrixBundle bundle;
            bundle.spec = spec;
            bundle.coo = wl::genWithLocality(
                spec.rows, spec.cols, spec.nnz, block, loc, spec.seed);
            bundle.csr = fmt::CsrMatrix::fromCoo(bundle.coo);
            bundle.bcsr = fmt::BcsrMatrix::fromCoo(bundle.coo, 4, 4);
            bundle.smash = core::SmashMatrix::fromCoo(
                bundle.coo,
                core::HierarchyConfig::fromPaperNotation(shape.config));
            SpmmBundle spmm = buildSpmmBundle(bundle, shape.config);
            double cycles =
                simSpmm(SpmvScheme::kSmashHw, bundle, spmm).cycles;
            if (base_cycles == 0)
                base_cycles = cycles; // first feasible point
            row.push_back(formatFixed(base_cycles / cycles, 2));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "(paper: monotone increase with locality)\n";
    return 0;
}

} // namespace
} // namespace smash::bench

int
main()
{
    return smash::bench::run();
}
