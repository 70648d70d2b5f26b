/**
 * @file
 * Graph-analytics example (the paper's §6 use case): generate a
 * power-law web-like graph, rank its vertices with PageRank over
 * (a) the CSR-encoded and (b) the SMASH-encoded rank matrix, verify
 * the rankings agree, and report the simulated cycle counts of both
 * encodings — the Fig. 18 experiment in miniature.
 *
 * Usage: graph_ranking [num_vertices] [num_edges]
 */

#include <algorithm>
#include <iostream>

#include "cli_args.hh"
#include "graph/generators.hh"
#include "graph/pagerank.hh"
#include "sim/exec_model.hh"

int
main(int argc, char** argv)
{
    using namespace smash;

    const char* usage = "[num_vertices] [num_edges]";
    graph::Vertex n = examples::positiveArg(argc, argv, 1, 20000, usage);
    Index edges = examples::positiveArg(argc, argv, 2, 120000, usage);

    std::cout << "Generating an RMAT graph: " << n << " vertices, ~"
              << edges << " undirected edges...\n";
    graph::Graph g = graph::rmatGraph(n, edges, /*seed=*/2026);

    fmt::CooMatrix m_coo = g.toPageRankMatrix();
    fmt::CsrMatrix m_csr = fmt::CsrMatrix::fromCoo(m_coo);
    core::SmashMatrix m_smash = core::SmashMatrix::fromCoo(
        m_coo, core::HierarchyConfig::fromPaperNotation({16, 4, 2}));

    graph::PageRankParams params;
    params.iterations = 10;

    // --- Functional run (native speed) + agreement check. ---
    sim::NativeExec native;
    std::vector<Value> ranks = graph::pagerankCsr(m_csr, params, native);
    isa::Bmu bmu_native;
    std::vector<Value> ranks_smash =
        graph::pagerankSmashHw(m_smash, bmu_native, params, native);
    for (std::size_t v = 0; v < ranks.size(); ++v) {
        if (std::abs(ranks[v] - ranks_smash[v]) > 1e-9) {
            std::cerr << "encodings disagree at vertex " << v << "\n";
            return 1;
        }
    }

    std::vector<graph::Vertex> order(static_cast<std::size_t>(n));
    for (graph::Vertex v = 0; v < n; ++v)
        order[static_cast<std::size_t>(v)] = v;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](graph::Vertex a, graph::Vertex b) {
                          return ranks[static_cast<std::size_t>(a)] >
                              ranks[static_cast<std::size_t>(b)];
                      });
    std::cout << "Top-5 vertices by PageRank:\n";
    for (int i = 0; i < 5; ++i) {
        graph::Vertex v = order[static_cast<std::size_t>(i)];
        std::cout << "  #" << (i + 1) << "  vertex " << v << "  rank "
                  << ranks[static_cast<std::size_t>(v)]
                  << "  out-degree " << g.outDegree(v) << "\n";
    }

    // --- Simulated comparison (Table-2 machine). ---
    sim::Machine mc_csr, mc_hw;
    {
        sim::SimExec e(mc_csr);
        graph::pagerankCsr(m_csr, params, e);
    }
    {
        sim::SimExec e(mc_hw);
        isa::Bmu bmu;
        graph::pagerankSmashHw(m_smash, bmu, params, e);
    }
    std::cout << "\nSimulated cost (" << params.iterations
              << " iterations):\n"
              << "  CSR:       " << mc_csr.core().cycles() << " cycles, "
              << mc_csr.core().instructions() << " instructions\n"
              << "  SMASH-BMU: " << mc_hw.core().cycles() << " cycles, "
              << mc_hw.core().instructions() << " instructions\n"
              << "  speedup:   "
              << mc_csr.core().cycles() / mc_hw.core().cycles() << "x\n";
    return 0;
}
