/**
 * @file
 * Synthetic sparse-matrix generators. Each produces a canonical COO
 * matrix with a requested size and non-zero budget in one of the
 * structure classes found in the paper's Table 3 inputs: uniform
 * scatter, Trefethen-style banded, FEM-style clustered blocks, and
 * power-law rows. A locality-controlled generator reproduces the
 * §7.2.3 sweep, where the fraction of non-zeros per NZA block is
 * set exactly.
 */

#ifndef SMASH_WORKLOADS_MATRIX_GEN_HH
#define SMASH_WORKLOADS_MATRIX_GEN_HH

#include <cstdint>

#include "formats/coo_matrix.hh"

namespace smash::wl
{

/** Uniformly scattered non-zeros (IG5/pattern-style inputs). */
fmt::CooMatrix genUniform(Index rows, Index cols, Index nnz,
                          std::uint64_t seed);

/**
 * Trefethen-style matrix: primes-on-the-diagonal structure with
 * entries at |i-j| in {1, 2, 4, 8, ...} — the actual structure of
 * Trefethen_20000. @p nnz trims or caps the band population.
 */
fmt::CooMatrix genTrefethen(Index n, Index nnz);

/**
 * FEM-style clustered matrix: non-zeros arrive in contiguous runs
 * of ~@p run_len elements near a block-diagonal band, giving the
 * high locality of sparsity of stiffness matrices (pkustk, tsyl,
 * ramage, nd3k, exdata).
 */
fmt::CooMatrix genClustered(Index rows, Index cols, Index nnz,
                            Index run_len, std::uint64_t seed);

/**
 * Contiguous runs of ~@p run_len non-zeros at uniformly random
 * positions (no diagonal band) — scattered but locally clustered,
 * like constraint/pattern matrices.
 */
fmt::CooMatrix genRunScatter(Index rows, Index cols, Index nnz,
                             Index run_len, std::uint64_t seed);

/**
 * Power-law rows (gene networks, gupta): row populations follow a
 * Zipf-like distribution; columns arrive in contiguous runs of
 * ~@p run_len (gene-correlation matrices have dense stripes).
 */
fmt::CooMatrix genPowerLaw(Index rows, Index cols, Index nnz,
                           double alpha, std::uint64_t seed,
                           Index run_len = 1);

/**
 * Locality-of-sparsity-controlled generator (paper §7.2.3): picks
 * ceil(nnz / (locality * block)) aligned blocks and fills exactly
 * round(locality * block) elements in each, so the average
 * non-zeros per block of size @p block is locality * block.
 *
 * @param locality target fraction in (0, 1]
 */
fmt::CooMatrix genWithLocality(Index rows, Index cols, Index nnz,
                               Index block, double locality,
                               std::uint64_t seed);

/**
 * Whether genWithLocality() can place @p nnz non-zeros at
 * @p locality: its ceil(nnz / round(locality * block)) blocks must
 * fit in the rows x (cols / block) grid. Scaled-down benches lose
 * the lowest-locality points this way (nnz shrinks slower than the
 * grid).
 */
bool localityFits(Index rows, Index cols, Index nnz, Index block,
                  double locality);

/**
 * 5-point finite-difference Laplacian on an nx x ny grid: the
 * canonical symmetric positive-definite test system for the §5.2.1
 * solver use cases (diagonal 4, neighbours -1, natural row-major
 * node numbering).
 */
fmt::CooMatrix genPoisson2d(Index nx, Index ny);

/**
 * Tridiagonal (-1, 4, -1) system with dyadic values — the
 * DIA-friendly starting point of the drift studies. Every value is
 * a dyadic rational, so any summation order over it is exact in
 * doubles (the "bit-identical across a format swap" test property).
 */
fmt::CooMatrix genTridiagonal(Index n);

/**
 * @p count scattered dyadic deltas (value 0.5) at uniform random
 * coordinates: the drift-delta batches of the serving layer's
 * update path. Duplicate coordinates within one batch merge by
 * addition (still dyadic); collisions with existing entries become
 * value updates when applied.
 */
fmt::CooMatrix genScatterDeltas(Index rows, Index cols, Index count,
                                std::uint64_t seed);

/**
 * Random diagonally dominant non-symmetric matrix: ~@p off_diag
 * off-diagonal entries per row in (-1, 1), diagonal set to
 * (row sum of |off-diagonals|) + @p margin. Guaranteed solvable by
 * BiCGSTAB/Jacobi; used to exercise the non-symmetric solvers.
 */
fmt::CooMatrix genDiagDominant(Index n, Index off_diag, double margin,
                               std::uint64_t seed);

} // namespace smash::wl

#endif // SMASH_WORKLOADS_MATRIX_GEN_HH
