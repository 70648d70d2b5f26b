/**
 * @file
 * Cross-module property tests: algebraic identities of the kernels
 * (linearity, commutativity, distributivity), native/simulated
 * execution consistency, misuse handling (failure injection), and
 * storage-accounting invariants — the behaviours no single-module
 * test pins down.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "formats/convert.hh"
#include "isa/bmu.hh"
#include "kernels/reference.hh"
#include "kernels/spadd.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_gen.hh"

namespace smash
{
namespace
{

using core::HierarchyConfig;
using core::SmashMatrix;
using kern::padVector;
using sim::NativeExec;

std::vector<Value>
randomVector(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Value> v(static_cast<std::size_t>(n));
    for (auto& x : v)
        x = static_cast<Value>(rng.uniform()) - Value(0.5);
    return v;
}

/** SpMV is linear: A(ax + by) == a(Ax) + b(Ay). */
class SpmvLinearity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SpmvLinearity, HoldsForSmashHw)
{
    const std::uint64_t seed = GetParam();
    const Index n = 96;
    fmt::CooMatrix coo = wl::genClustered(n, n, 900, 4, seed);
    SmashMatrix m = SmashMatrix::fromCoo(
        coo, HierarchyConfig::fromPaperNotation({16, 4, 2}));
    NativeExec e;
    isa::Bmu bmu;

    std::vector<Value> u = randomVector(n, seed + 1);
    std::vector<Value> v = randomVector(n, seed + 2);
    const Value a = 2.5, b = -1.25;

    std::vector<Value> combo(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
        auto si = static_cast<std::size_t>(i);
        combo[si] = a * u[si] + b * v[si];
    }
    std::vector<Value> y_combo(static_cast<std::size_t>(n), 0);
    kern::spmvSmashHw(m, bmu, padVector(combo, m.paddedCols()), y_combo,
                      e);

    std::vector<Value> y_u(static_cast<std::size_t>(n), 0);
    std::vector<Value> y_v(static_cast<std::size_t>(n), 0);
    kern::spmvSmashHw(m, bmu, padVector(u, m.paddedCols()), y_u, e);
    kern::spmvSmashHw(m, bmu, padVector(v, m.paddedCols()), y_v, e);

    for (Index i = 0; i < n; ++i) {
        auto si = static_cast<std::size_t>(i);
        EXPECT_NEAR(y_combo[si], a * y_u[si] + b * y_v[si], 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmvLinearity,
                         ::testing::Values(11, 22, 33, 44));

/** Sparse addition commutes and agrees across encodings. */
class SpaddAlgebra : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SpaddAlgebra, CommutesAndMatchesCsr)
{
    const std::uint64_t seed = GetParam();
    fmt::CooMatrix coo_a = wl::genRunScatter(64, 64, 300, 3, seed);
    fmt::CooMatrix coo_b = wl::genClustered(64, 64, 300, 5, seed + 9);
    HierarchyConfig cfg({2, 4});
    SmashMatrix sa = SmashMatrix::fromCoo(coo_a, cfg);
    SmashMatrix sb = SmashMatrix::fromCoo(coo_b, cfg);
    NativeExec e;

    SmashMatrix ab = kern::spaddSmash(sa, sb, e);
    SmashMatrix ba = kern::spaddSmash(sb, sa, e);
    EXPECT_TRUE(ab.toDense().approxEquals(ba.toDense(), 1e-12));

    fmt::CooMatrix csr_sum = kern::spaddCsr(
        fmt::CsrMatrix::fromCoo(coo_a), fmt::CsrMatrix::fromCoo(coo_b),
        e);
    EXPECT_TRUE(ab.toDense().approxEquals(csr_sum.toDense(), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaddAlgebra,
                         ::testing::Values(5, 6, 7));

/** (A + B) x == A x + B x ties SpMV and SpAdd together. */
TEST(KernelAlgebra, AdditionDistributesOverSpmv)
{
    fmt::CooMatrix coo_a = wl::genUniform(80, 80, 600, 71);
    fmt::CooMatrix coo_b = wl::genUniform(80, 80, 600, 72);
    HierarchyConfig cfg({4, 4});
    SmashMatrix sa = SmashMatrix::fromCoo(coo_a, cfg);
    SmashMatrix sb = SmashMatrix::fromCoo(coo_b, cfg);
    NativeExec e;
    SmashMatrix sum = kern::spaddSmash(sa, sb, e);

    std::vector<Value> x = randomVector(80, 99);
    std::vector<Value> xp = padVector(x, sa.paddedCols());
    std::vector<Value> y_sum(80, 0), y_a(80, 0), y_b(80, 0);
    kern::spmvSmashSw(sum, xp, y_sum, e);
    kern::spmvSmashSw(sa, xp, y_a, e);
    kern::spmvSmashSw(sb, xp, y_b, e);
    for (std::size_t i = 0; i < 80; ++i)
        EXPECT_NEAR(y_sum[i], y_a[i] + y_b[i], 1e-9);
}

/** The same kernel template must compute identical results under
 *  NativeExec and SimExec (the hooks must not perturb semantics). */
TEST(ExecConsistency, NativeAndSimulatedResultsMatch)
{
    fmt::CooMatrix coo = wl::genPowerLaw(128, 128, 2500, 0.8, 31, 4);
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    SmashMatrix sm = SmashMatrix::fromCoo(
        coo, HierarchyConfig::fromPaperNotation({16, 4, 2}));
    std::vector<Value> x = randomVector(128, 5);
    std::vector<Value> xp = padVector(x, sm.paddedCols());

    std::vector<Value> y_native(128, 0), y_sim(128, 0);
    NativeExec ne;
    kern::spmvCsr(csr, x, y_native, ne);
    sim::Machine machine;
    sim::SimExec se(machine);
    kern::spmvCsr(csr, x, y_sim, se);
    EXPECT_EQ(y_native, y_sim);

    std::fill(y_native.begin(), y_native.end(), Value(0));
    std::fill(y_sim.begin(), y_sim.end(), Value(0));
    isa::Bmu b1, b2;
    kern::spmvSmashHw(sm, b1, xp, y_native, ne);
    kern::spmvSmashHw(sm, b2, xp, y_sim, se);
    EXPECT_EQ(y_native, y_sim);

    std::fill(y_native.begin(), y_native.end(), Value(0));
    std::fill(y_sim.begin(), y_sim.end(), Value(0));
    kern::spmvSmashSw(sm, xp, y_native, ne);
    kern::spmvSmashSw(sm, xp, y_sim, se);
    EXPECT_EQ(y_native, y_sim);
}

/** Simulation is deterministic: identical runs, identical cycles. */
TEST(ExecConsistency, SimulationIsDeterministic)
{
    fmt::CooMatrix coo = wl::genClustered(100, 100, 1200, 4, 17);
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    std::vector<Value> x = randomVector(100, 3);
    auto run = [&]() {
        sim::Machine m;
        sim::SimExec e(m);
        std::vector<Value> y(100, 0);
        kern::spmvCsr(csr, x, y, e);
        return m.core().cycles();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

// --- Failure injection: every kernel rejects malformed operands. ---

TEST(FailureInjection, SpmvRejectsShortVectors)
{
    fmt::CooMatrix coo = wl::genUniform(16, 16, 30, 1);
    fmt::CsrMatrix csr = fmt::CsrMatrix::fromCoo(coo);
    SmashMatrix sm = SmashMatrix::fromCoo(coo, HierarchyConfig({4}));
    NativeExec e;
    std::vector<Value> short_x(8, 1.0);
    std::vector<Value> y(16, 0.0);
    EXPECT_THROW(kern::spmvCsr(csr, short_x, y, e), FatalError);
    EXPECT_THROW(kern::spmvSmashSw(sm, short_x, y, e), FatalError);
    isa::Bmu bmu;
    EXPECT_THROW(kern::spmvSmashHw(sm, bmu, short_x, y, e), FatalError);
    std::vector<Value> x(16, 1.0);
    std::vector<Value> xp = padVector(x, sm.paddedCols());
    std::vector<Value> short_y(8, 0.0);
    EXPECT_THROW(kern::spmvSmashHw(sm, bmu, xp, short_y, e), FatalError);
}

TEST(FailureInjection, SpmmRejectsMismatchedShapes)
{
    fmt::CooMatrix coo_a = wl::genUniform(16, 16, 30, 1);
    fmt::CooMatrix coo_b = wl::genUniform(8, 8, 20, 2); // wrong inner
    NativeExec e;
    fmt::DenseMatrix c(16, 8);
    EXPECT_THROW(kern::spmmCsr(fmt::CsrMatrix::fromCoo(coo_a),
                               fmt::CscMatrix::fromCoo(coo_b), c, e),
                 FatalError);

    SmashMatrix sa = SmashMatrix::fromCoo(coo_a, HierarchyConfig({2}));
    SmashMatrix sb4 = SmashMatrix::fromCoo(coo_a, HierarchyConfig({4}));
    EXPECT_THROW(kern::spmmSmashSw(sa, sb4, c, e), FatalError);
}

TEST(FailureInjection, SpaddRejectsConfigMismatch)
{
    fmt::CooMatrix coo = wl::genUniform(16, 16, 30, 1);
    SmashMatrix a = SmashMatrix::fromCoo(coo, HierarchyConfig({2}));
    SmashMatrix b = SmashMatrix::fromCoo(coo, HierarchyConfig({4}));
    NativeExec e;
    EXPECT_THROW(kern::spaddSmash(a, b, e), FatalError);
}

TEST(FailureInjection, FromBlocksRejectsInconsistentNza)
{
    core::Bitmap level0(8);
    level0.set(0);
    std::vector<Value> nza(4, 1.0); // 2 blocks' worth for 1 set bit
    EXPECT_THROW(SmashMatrix::fromBlocks(2, 8, HierarchyConfig({2}),
                                         level0, nza),
                 FatalError);
}

// --- Storage invariants. ---

TEST(StorageInvariants, CompactNeverExceedsDenseBitmaps)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fmt::CooMatrix coo = wl::genRunScatter(
            128, 128, 200 + static_cast<Index>(seed) * 150, 4, seed);
        SmashMatrix m = SmashMatrix::fromCoo(
            coo, HierarchyConfig::fromPaperNotation({16, 4, 2}));
        EXPECT_LE(m.hierarchy().compactStorageBytes(),
                  m.hierarchy().denseStorageBytes() +
                      static_cast<std::size_t>(
                          m.hierarchy().levels())); // rounding slack
    }
}

TEST(StorageInvariants, NzaAccountsForAllNonZeros)
{
    fmt::CooMatrix coo = wl::genPowerLaw(64, 64, 800, 0.7, 3, 4);
    SmashMatrix m = SmashMatrix::fromCoo(coo, HierarchyConfig({2, 4}));
    Index stored_nnz = 0;
    for (Value v : m.nza()) {
        if (v != Value(0))
            ++stored_nnz;
    }
    EXPECT_EQ(stored_nnz, coo.nnz());
    EXPECT_EQ(m.nnz(), coo.nnz());
}

/** Locality metric bounds: 1/blockSize <= locality <= 1. */
class LocalityBounds : public ::testing::TestWithParam<Index>
{
};

TEST_P(LocalityBounds, WithinRange)
{
    const Index bs = GetParam();
    fmt::CooMatrix coo = wl::genUniform(64, 64, 500, 21);
    SmashMatrix m = SmashMatrix::fromCoo(coo, HierarchyConfig({bs}));
    EXPECT_GE(m.localityOfSparsity(),
              1.0 / static_cast<double>(bs) - 1e-12);
    EXPECT_LE(m.localityOfSparsity(), 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Blocks, LocalityBounds,
                         ::testing::Values<Index>(2, 4, 8, 16));

} // namespace
} // namespace smash
