#include "workloads/matrix_gen.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace smash::wl
{

namespace
{

/** Non-zero value in [0.5, 1.5); avoids accidental cancellation. */
Value
randomValue(Rng& rng)
{
    return Value(0.5) + static_cast<Value>(rng.uniform());
}

/** Key for coordinate dedup. */
std::uint64_t
key(Index r, Index c, Index cols)
{
    return static_cast<std::uint64_t>(r) *
        static_cast<std::uint64_t>(cols) + static_cast<std::uint64_t>(c);
}

/** Non-zeros genWithLocality places in each chosen block. */
Index
perBlockFill(Index block, double locality)
{
    return std::max<Index>(
        1, static_cast<Index>(
               std::llround(locality * static_cast<double>(block))));
}

} // namespace

fmt::CooMatrix
genUniform(Index rows, Index cols, Index nnz, std::uint64_t seed)
{
    SMASH_CHECK(nnz <= rows * cols, "nnz exceeds matrix capacity");
    Rng rng(seed);
    fmt::CooMatrix coo(rows, cols);
    std::unordered_set<std::uint64_t> used;
    used.reserve(static_cast<std::size_t>(nnz) * 2);
    while (static_cast<Index>(used.size()) < nnz) {
        Index r = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(rows)));
        Index c = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(cols)));
        if (used.insert(key(r, c, cols)).second)
            coo.add(r, c, randomValue(rng));
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genTrefethen(Index n, Index nnz)
{
    fmt::CooMatrix coo(n, n);
    Rng rng(0xdef7);
    Index added = 0;
    // Diagonal first, then bands at power-of-two offsets, as in the
    // real Trefethen_20000 matrix.
    for (Index i = 0; i < n && added < nnz; ++i, ++added)
        coo.add(i, i, randomValue(rng));
    for (Index offset = 1; offset < n && added < nnz; offset *= 2) {
        for (Index i = 0; i + offset < n && added + 2 <= nnz; ++i) {
            coo.add(i, i + offset, randomValue(rng));
            coo.add(i + offset, i, randomValue(rng));
            added += 2;
        }
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genClustered(Index rows, Index cols, Index nnz, Index run_len,
             std::uint64_t seed)
{
    SMASH_CHECK(run_len > 0, "run length must be positive");
    SMASH_CHECK(nnz <= rows * cols, "nnz exceeds matrix capacity");
    Rng rng(seed);
    fmt::CooMatrix coo(rows, cols);
    std::unordered_set<std::uint64_t> used;
    used.reserve(static_cast<std::size_t>(nnz) * 2);
    Index added = 0;
    // Band half-width: runs start near the diagonal, like the
    // block-diagonal population of FEM stiffness matrices.
    const Index band = std::max<Index>(run_len * 4,
                                       cols / 16 + run_len);
    while (added < nnz) {
        Index r = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(rows)));
        Index diag = std::min(cols - 1, r * cols / std::max<Index>(rows, 1));
        Index lo = std::max<Index>(0, diag - band);
        Index hi = std::min<Index>(cols - 1, diag + band);
        Index c0 = lo + static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
        for (Index k = 0; k < run_len && added < nnz; ++k) {
            Index c = c0 + k;
            if (c >= cols)
                break;
            if (used.insert(key(r, c, cols)).second) {
                coo.add(r, c, randomValue(rng));
                ++added;
            }
        }
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genRunScatter(Index rows, Index cols, Index nnz, Index run_len,
              std::uint64_t seed)
{
    SMASH_CHECK(run_len > 0, "run length must be positive");
    SMASH_CHECK(nnz <= rows * cols, "nnz exceeds matrix capacity");
    Rng rng(seed);
    fmt::CooMatrix coo(rows, cols);
    std::unordered_set<std::uint64_t> used;
    used.reserve(static_cast<std::size_t>(nnz) * 2);
    Index added = 0;
    while (added < nnz) {
        Index r = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(rows)));
        Index c0 = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(cols)));
        for (Index k = 0; k < run_len && added < nnz; ++k) {
            Index c = c0 + k;
            if (c >= cols)
                break;
            if (used.insert(key(r, c, cols)).second) {
                coo.add(r, c, randomValue(rng));
                ++added;
            }
        }
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genPowerLaw(Index rows, Index cols, Index nnz, double alpha,
            std::uint64_t seed, Index run_len)
{
    SMASH_CHECK(run_len > 0, "run length must be positive");
    SMASH_CHECK(alpha > 0, "alpha must be positive");
    SMASH_CHECK(nnz <= rows * cols, "nnz exceeds matrix capacity");
    Rng rng(seed);

    // Zipf row weights; row degree ~ weight * nnz.
    std::vector<double> weight(static_cast<std::size_t>(rows));
    double total = 0;
    for (Index r = 0; r < rows; ++r) {
        weight[static_cast<std::size_t>(r)] =
            1.0 / std::pow(static_cast<double>(r + 1), alpha);
        total += weight[static_cast<std::size_t>(r)];
    }
    // Shuffle so heavy rows are spread through the matrix.
    for (Index r = rows - 1; r > 0; --r) {
        Index o = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(r + 1)));
        std::swap(weight[static_cast<std::size_t>(r)],
                  weight[static_cast<std::size_t>(o)]);
    }

    fmt::CooMatrix coo(rows, cols);
    std::unordered_set<std::uint64_t> used;
    used.reserve(static_cast<std::size_t>(nnz) * 2);
    Index added = 0;
    for (Index r = 0; r < rows && added < nnz; ++r) {
        Index degree = static_cast<Index>(
            weight[static_cast<std::size_t>(r)] / total *
            static_cast<double>(nnz) + 0.5);
        degree = std::min(degree, cols);
        Index placed = 0;
        while (placed < degree && added < nnz) {
            Index c0 = static_cast<Index>(
                rng.below(static_cast<std::uint64_t>(cols)));
            for (Index k = 0; k < run_len && placed < degree &&
                 added < nnz; ++k) {
                Index c = c0 + k;
                if (c >= cols)
                    break;
                if (used.insert(key(r, c, cols)).second) {
                    coo.add(r, c, randomValue(rng));
                    ++added;
                    ++placed;
                } else {
                    ++placed; // avoid spinning on saturated rows
                }
            }
        }
    }
    // Rounding may leave a shortfall: top up uniformly.
    while (added < nnz) {
        Index r = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(rows)));
        Index c = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(cols)));
        if (used.insert(key(r, c, cols)).second) {
            coo.add(r, c, randomValue(rng));
            ++added;
        }
    }
    coo.canonicalize();
    return coo;
}

bool
localityFits(Index rows, Index cols, Index nnz, Index block,
             double locality)
{
    const Index per_block = perBlockFill(block, locality);
    const Index n_blocks = (nnz + per_block - 1) / per_block;
    return n_blocks <= rows * (cols / block);
}

fmt::CooMatrix
genWithLocality(Index rows, Index cols, Index nnz, Index block,
                double locality, std::uint64_t seed)
{
    SMASH_CHECK(block > 0, "block size must be positive");
    SMASH_CHECK(locality > 0.0 && locality <= 1.0,
                "locality must be in (0, 1]");
    Rng rng(seed);
    const Index per_block = perBlockFill(block, locality);
    const Index blocks_per_row = cols / block;
    SMASH_CHECK(blocks_per_row > 0, "cols smaller than one block");
    const Index n_blocks = (nnz + per_block - 1) / per_block;
    SMASH_CHECK(localityFits(rows, cols, nnz, block, locality),
                "nnz/locality exceeds the block grid");

    // Choose distinct aligned blocks.
    std::unordered_set<std::uint64_t> chosen;
    chosen.reserve(static_cast<std::size_t>(n_blocks) * 2);
    fmt::CooMatrix coo(rows, cols);
    Index added = 0;
    while (static_cast<Index>(chosen.size()) < n_blocks) {
        Index r = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(rows)));
        Index b = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(blocks_per_row)));
        if (!chosen.insert(key(r, b, blocks_per_row)).second)
            continue;
        // Fill exactly per_block distinct offsets inside the block
        // (fewer for the final block if the budget runs out).
        Index want = std::min(per_block, nnz - added);
        if (want <= 0)
            break;
        // Partial Fisher-Yates over the block offsets.
        std::vector<Index> offsets(static_cast<std::size_t>(block));
        for (Index k = 0; k < block; ++k)
            offsets[static_cast<std::size_t>(k)] = k;
        for (Index k = 0; k < want; ++k) {
            Index o = k + static_cast<Index>(
                rng.below(static_cast<std::uint64_t>(block - k)));
            std::swap(offsets[static_cast<std::size_t>(k)],
                      offsets[static_cast<std::size_t>(o)]);
            coo.add(r, b * block + offsets[static_cast<std::size_t>(k)],
                    randomValue(rng));
            ++added;
        }
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genPoisson2d(Index nx, Index ny)
{
    SMASH_CHECK(nx > 0 && ny > 0, "grid dimensions must be positive");
    const Index n = nx * ny;
    fmt::CooMatrix coo(n, n);
    auto node = [nx](Index i, Index j) { return i * nx + j; };
    for (Index i = 0; i < ny; ++i) {
        for (Index j = 0; j < nx; ++j) {
            const Index r = node(i, j);
            coo.add(r, r, 4.0);
            if (j > 0)
                coo.add(r, node(i, j - 1), -1.0);
            if (j + 1 < nx)
                coo.add(r, node(i, j + 1), -1.0);
            if (i > 0)
                coo.add(r, node(i - 1, j), -1.0);
            if (i + 1 < ny)
                coo.add(r, node(i + 1, j), -1.0);
        }
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genTridiagonal(Index n)
{
    fmt::CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i) {
        coo.add(i, i, Value(4));
        if (i > 0)
            coo.add(i, i - 1, Value(-1));
        if (i + 1 < n)
            coo.add(i, i + 1, Value(-1));
    }
    coo.canonicalize();
    return coo;
}

fmt::CooMatrix
genScatterDeltas(Index rows, Index cols, Index count,
                 std::uint64_t seed)
{
    Rng rng(seed);
    fmt::CooMatrix d(rows, cols);
    for (Index i = 0; i < count; ++i) {
        const auto r = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(rows)));
        const auto c = static_cast<Index>(
            rng.below(static_cast<std::uint64_t>(cols)));
        d.add(r, c, Value(0.5));
    }
    d.canonicalize();
    return d;
}

fmt::CooMatrix
genDiagDominant(Index n, Index off_diag, double margin, std::uint64_t seed)
{
    SMASH_CHECK(n > 0, "matrix dimension must be positive");
    SMASH_CHECK(off_diag >= 0 && off_diag < n,
                "off-diagonal budget must be in [0, n)");
    SMASH_CHECK(margin > 0, "dominance margin must be positive");
    Rng rng(seed);
    fmt::CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r) {
        double row_abs = 0;
        // Sample distinct off-diagonal columns by rejection; the
        // budget is far below n so collisions are rare.
        std::set<Index> cols;
        while (static_cast<Index>(cols.size()) < off_diag) {
            Index c = static_cast<Index>(
                rng.below(static_cast<std::uint64_t>(n)));
            if (c != r)
                cols.insert(c);
        }
        for (Index c : cols) {
            double v = 2.0 * rng.uniform() - 1.0;
            if (v == 0.0)
                v = 0.5;
            coo.add(r, c, v);
            row_abs += std::abs(v);
        }
        coo.add(r, r, row_abs + margin);
    }
    coo.canonicalize();
    return coo;
}

} // namespace smash::wl
