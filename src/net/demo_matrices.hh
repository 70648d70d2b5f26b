/**
 * @file
 * The demo registry shared by smash_serverd, the load generator,
 * and the end-to-end tests. Server and client construct these
 * matrices *independently* (no matrix bytes cross the wire), so a
 * client can compute the exact expected result locally and compare
 * the server's answer bit for bit.
 *
 * Every value is dyadic (a multiple of 2^-4), so sums are exact in
 * IEEE-754 doubles in ANY summation order — a server running another
 * format, or SIMD-reducing in a different association, still
 * produces the bit pattern a local eng::spmv does. That turns "remote == local" from a tolerance
 * check into an equality check.
 *
 * Registry contents:
 *   "ranker"  256 x 192, 8 nnz/row, regular stride pattern
 *   "graph"   192 x 192, ~6 nnz/row, same generator reseeded —
 *             a second square matrix so SpAdd has two compatible
 *             operands ("graph" + "graph2").
 *   "graph2"  192 x 192 companion of "graph".
 */

#ifndef SMASH_NET_DEMO_MATRICES_HH
#define SMASH_NET_DEMO_MATRICES_HH

#include "common/types.hh"
#include "formats/coo_matrix.hh"
#include "serve/registry.hh"

namespace smash::net
{

/** Deterministic dyadic-valued sparse matrix (exact under any
 *  summation order; @p seed varies the pattern). */
inline fmt::CooMatrix
demoMatrix(Index rows, Index cols, Index per_row, Index seed)
{
    fmt::CooMatrix coo(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index k = 0; k < per_row; ++k)
            coo.add(r, (r * 5 + k * 7 + seed) % cols,
                    Value(1) +
                        Value((r * 3 + k + seed) % 9) * Value(0.0625));
    coo.canonicalize();
    return coo;
}

inline constexpr Index kDemoRankerRows = 256;
inline constexpr Index kDemoRankerCols = 192;
inline constexpr Index kDemoGraphDim = 192;

/** The "ranker" matrix (what the load generator multiplies). */
inline fmt::CooMatrix
demoRanker()
{
    return demoMatrix(kDemoRankerRows, kDemoRankerCols, 8, 0);
}

/** Dyadic x vector for "ranker" (@p seed varies the values). */
inline std::vector<Value>
demoVector(Index seed)
{
    std::vector<Value> x(kDemoRankerCols);
    for (Index j = 0; j < kDemoRankerCols; ++j)
        x[static_cast<std::size_t>(j)] = Value(1) +
            Value((j * 7 + seed) % 16) * Value(0.0625);
    return x;
}

/** Populate @p registry with the demo set (see file comment), each
 *  entry row-partitioned into @p shards bands (1 = a plain put()) —
 *  answers stay bit-identical for any K, so clients need not know. */
inline void
populateDemoRegistry(serve::MatrixRegistry& registry, Index shards = 1)
{
    registry.registerSharded("ranker", demoRanker(), shards);
    registry.registerSharded(
        "graph", demoMatrix(kDemoGraphDim, kDemoGraphDim, 6, 3), shards);
    registry.registerSharded(
        "graph2", demoMatrix(kDemoGraphDim, kDemoGraphDim, 6, 11),
        shards);
}

} // namespace smash::net

#endif // SMASH_NET_DEMO_MATRICES_HH
