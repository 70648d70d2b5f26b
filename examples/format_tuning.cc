/**
 * @file
 * Compression-ratio tuning example (§4.1.1 / §7.2.2): generate a
 * matrix with a chosen structure, sweep Bitmap-0 compression ratios
 * and hierarchy depths, and report for each configuration the
 * compact storage footprint, the locality of sparsity, and the
 * simulated SpMV cost — the tradeoff the paper's Fig. 5/14 discuss
 * (small bitmaps vs. zero-padding in the NZA).
 *
 * Usage: format_tuning [clustered|scatter|powerlaw] [rows] [nnz]
 */

#include <cstring>
#include <iostream>

#include "cli_args.hh"
#include "common/table.hh"
#include "core/smash_matrix.hh"
#include "engine/dispatch.hh"
#include "isa/bmu.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_gen.hh"

int
main(int argc, char** argv)
{
    using namespace smash;

    const char* structure = argc > 1 ? argv[1] : "clustered";
    const char* usage = "[clustered|scatter|powerlaw] [rows] [nnz]";
    Index rows = examples::positiveArg(argc, argv, 2, 4096, usage);
    Index nnz = examples::positiveArg(argc, argv, 3, 200000, usage);

    fmt::CooMatrix coo;
    if (std::strcmp(structure, "scatter") == 0) {
        coo = wl::genUniform(rows, rows, nnz, 1);
    } else if (std::strcmp(structure, "powerlaw") == 0) {
        coo = wl::genPowerLaw(rows, rows, nnz, 0.7, 1, 6);
    } else {
        coo = wl::genClustered(rows, rows, nnz, 8, 1);
    }
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    std::cout << "Matrix: " << structure << " " << rows << "x" << rows
              << ", nnz " << coo.nnz() << "; CSR storage "
              << csr.storageBytes() / 1024 << " KiB\n\n";

    TextTable table("Hierarchy configuration sweep (simulated SpMV)");
    table.setHeader({"config (top-down)", "blocks", "locality",
                     "compact KiB", "vs CSR", "sim Mcycles"});

    const std::vector<std::vector<Index>> configs = {
        {2}, {4}, {8}, {4, 2}, {16, 2}, {16, 4, 2},
        {16, 4, 4}, {8, 4, 8}, {64, 16, 2},
    };
    std::vector<Value> x(static_cast<std::size_t>(rows), 1.0);
    double best_cycles = 1e300;
    std::string best;
    for (const auto& cfg_vec : configs) {
        auto cfg = core::HierarchyConfig::fromPaperNotation(cfg_vec);
        core::SmashMatrix sm = core::SmashMatrix::fromCoo(coo, cfg);
        sim::Machine machine;
        {
            sim::SimExec e(machine);
            isa::Bmu bmu;
            std::vector<Value> y(static_cast<std::size_t>(rows), 0.0);
            eng::spmv(sm, x, y, e, {.bmu = &bmu});
        }
        double cycles = machine.core().cycles();
        if (cycles < best_cycles) {
            best_cycles = cycles;
            best = cfg.toString();
        }
        table.addRow({cfg.toString(), std::to_string(sm.numBlocks()),
                      formatFixed(sm.localityOfSparsity(), 2),
                      formatFixed(static_cast<double>(
                          sm.storageBytesCompact()) / 1024.0, 1),
                      formatFixed(static_cast<double>(
                          sm.storageBytesCompact()) /
                          static_cast<double>(csr.storageBytes()), 2),
                      formatFixed(cycles / 1e6, 2)});
    }
    table.print(std::cout);
    std::cout << "\nBest configuration for simulated SpMV: " << best
              << "\nRule of thumb (paper §7.2.2): 2:1 Bitmap-0 when the"
              << " structure is unknown; higher ratios pay off only on"
              << " clustered matrices.\n";
    return 0;
}
