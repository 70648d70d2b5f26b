/**
 * @file
 * Tests for the workload generators: requested shapes are honored,
 * structure classes have their defining properties (bandedness,
 * clustering, skew), the locality-controlled generator hits its
 * target, and the Table-3/Table-4 suites match the paper's numbers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "core/smash_matrix.hh"
#include "workloads/graph_suite.hh"
#include "workloads/matrix_gen.hh"
#include "workloads/matrix_suite.hh"

namespace smash::wl
{
namespace
{

TEST(MatrixGen, UniformHonorsNnz)
{
    auto coo = genUniform(100, 80, 500, 1);
    EXPECT_EQ(coo.rows(), 100);
    EXPECT_EQ(coo.cols(), 80);
    EXPECT_EQ(coo.nnz(), 500);
    EXPECT_TRUE(coo.isCanonical());
}

TEST(MatrixGen, UniformIsDeterministic)
{
    auto a = genUniform(64, 64, 300, 42);
    auto b = genUniform(64, 64, 300, 42);
    EXPECT_TRUE(a.toDense().approxEquals(b.toDense(), 0.0));
}

TEST(MatrixGen, UniformRejectsOverfull)
{
    EXPECT_THROW(genUniform(4, 4, 17, 1), FatalError);
}

TEST(MatrixGen, TrefethenIsBandedSymmetric)
{
    auto coo = genTrefethen(128, 1400);
    for (const auto& entry : coo.entries()) {
        Index d = std::abs(entry.row - entry.col);
        // Offsets are 0 or powers of two.
        EXPECT_TRUE(d == 0 || (d & (d - 1)) == 0) << "offset " << d;
    }
    // Structure is symmetric.
    auto dense = coo.toDense();
    for (Index i = 0; i < 128; ++i) {
        for (Index j = i + 1; j < 128; ++j) {
            EXPECT_EQ(dense.at(i, j) != 0.0, dense.at(j, i) != 0.0);
        }
    }
}

TEST(MatrixGen, ClusteredHasHigherLocalityThanUniform)
{
    const Index rows = 256, cols = 256, nnz = 3000;
    auto clustered = genClustered(rows, cols, nnz, 8, 5);
    auto uniform = genUniform(rows, cols, nnz, 5);
    core::HierarchyConfig cfg({8});
    double loc_c = core::SmashMatrix::fromCoo(clustered, cfg)
        .localityOfSparsity();
    double loc_u = core::SmashMatrix::fromCoo(uniform, cfg)
        .localityOfSparsity();
    EXPECT_GT(loc_c, 1.5 * loc_u);
}

TEST(MatrixGen, PowerLawIsSkewed)
{
    auto coo = genPowerLaw(512, 512, 20000, 0.8, 7);
    EXPECT_EQ(coo.nnz(), 20000);
    std::vector<Index> row_nnz(512, 0);
    for (const auto& entry : coo.entries())
        ++row_nnz[static_cast<std::size_t>(entry.row)];
    Index max_deg = *std::max_element(row_nnz.begin(), row_nnz.end());
    double avg = 20000.0 / 512.0;
    EXPECT_GT(static_cast<double>(max_deg), 5.0 * avg);
}

class LocalityTarget : public ::testing::TestWithParam<double>
{
};

TEST_P(LocalityTarget, GeneratorHitsRequestedLocality)
{
    const double locality = GetParam();
    const Index block = 8;
    auto coo = genWithLocality(256, 512, 6000, block, locality, 3);
    core::SmashMatrix m = core::SmashMatrix::fromCoo(
        coo, core::HierarchyConfig({block}));
    // Average non-zeros per block should match the target closely.
    EXPECT_NEAR(m.localityOfSparsity(), locality, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LocalityTarget,
                         ::testing::Values(0.125, 0.25, 0.375, 0.5,
                                           0.625, 0.75, 0.875, 1.0));

TEST(MatrixGen, LocalityRejectsBadArgs)
{
    EXPECT_THROW(genWithLocality(16, 16, 50, 8, 0.0, 1), FatalError);
    EXPECT_THROW(genWithLocality(16, 16, 50, 8, 1.5, 1), FatalError);
    EXPECT_THROW(genWithLocality(16, 4, 50, 8, 0.5, 1), FatalError);
}

TEST(MatrixGen, LocalityFitsAgreesWithGenerator)
{
    // 16 x 16 with 8-wide blocks is a 32-block grid: 50 non-zeros
    // need 25 blocks at 25% locality but 50 at 12.5%.
    EXPECT_TRUE(localityFits(16, 16, 50, 8, 0.25));
    EXPECT_NO_THROW(genWithLocality(16, 16, 50, 8, 0.25, 1));
    EXPECT_FALSE(localityFits(16, 16, 50, 8, 0.125));
    EXPECT_THROW(genWithLocality(16, 16, 50, 8, 0.125, 1), FatalError);
}

TEST(MatrixSuite, HasFifteenEntriesMatchingTable3)
{
    auto specs = table3Specs();
    ASSERT_EQ(specs.size(), 15U);
    EXPECT_EQ(specs[0].rows, 20738);   // descriptor_xingo6u
    EXPECT_EQ(specs[0].nnz, 73916);
    EXPECT_EQ(specs[12].rows, 22283);  // human_gene1
    EXPECT_EQ(specs[12].nnz, 24669643);
    // Sorted by ascending sparsity, as in the paper.
    for (std::size_t i = 1; i < specs.size(); ++i)
        EXPECT_GE(specs[i].sparsityPct, specs[i - 1].sparsityPct);
}

TEST(MatrixSuite, PaperConfigsMatchFigure10Captions)
{
    auto specs = table3Specs();
    std::vector<Index> def{16, 4, 2};
    EXPECT_EQ(specs[0].paperConfig, def);
    EXPECT_EQ(specs[10].paperConfig, (std::vector<Index>{2, 4, 2}));
    EXPECT_EQ(specs[11].paperConfig, (std::vector<Index>{8, 4, 2}));
    EXPECT_EQ(specs[13].paperConfig, (std::vector<Index>{2, 4, 2}));
}

TEST(MatrixSuite, ScaleBalancesSparsityAndRowPopulation)
{
    // nnz scales with rows^1.5 (see scaleSpec): both the sparsity%
    // inflation and the nnz/row shrinkage stay within sqrt(scale).
    auto specs = table3Specs();
    const double scale = 0.25;
    MatrixSpec scaled = scaleSpec(specs[7], scale);
    double ratio = static_cast<double>(scaled.rows) /
        static_cast<double>(specs[7].rows);
    double nnz_ratio = static_cast<double>(scaled.nnz) /
        static_cast<double>(specs[7].nnz);
    EXPECT_NEAR(nnz_ratio, std::pow(ratio, 1.5), 0.05 * nnz_ratio);

    double density_factor = nnz_ratio / (ratio * ratio);
    double row_pop_factor = nnz_ratio / ratio;
    EXPECT_LT(density_factor, 1.0 / std::sqrt(ratio) * 1.05);
    EXPECT_GT(row_pop_factor, std::sqrt(ratio) * 0.95);
}

TEST(MatrixSuite, GenerateSmallScaleWorks)
{
    for (const auto& spec : table3Specs()) {
        MatrixSpec s = scaleSpec(spec, 0.02);
        auto coo = generateMatrix(s);
        EXPECT_EQ(coo.rows(), s.rows) << s.name;
        EXPECT_GT(coo.nnz(), 0) << s.name;
        // Generators may fall slightly short only for banded
        // structure (band capacity), never overshoot.
        EXPECT_LE(coo.nnz(), s.nnz) << s.name;
        EXPECT_GE(static_cast<double>(coo.nnz()),
                  0.5 * static_cast<double>(s.nnz)) << s.name;
    }
}

TEST(MatrixSuite, BenchScaleReadsEnvironment)
{
    unsetenv("SMASH_BENCH_SCALE");
    EXPECT_DOUBLE_EQ(benchScale(0.3), 0.3);
    setenv("SMASH_BENCH_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(benchScale(0.3), 0.5);
    setenv("SMASH_BENCH_SCALE", "7", 1);
    EXPECT_DOUBLE_EQ(benchScale(0.3), 0.3); // out of range -> default
    unsetenv("SMASH_BENCH_SCALE");
}

TEST(GraphSuite, HasFourEntriesMatchingTable4)
{
    auto specs = table4Specs();
    ASSERT_EQ(specs.size(), 4U);
    EXPECT_EQ(specs[0].vertices, 1100000); // com-Youtube
    EXPECT_EQ(specs[2].structure, GraphStructure::kRoadGrid);
}

TEST(GraphSuite, GenerateSmallScaleWorks)
{
    for (const auto& spec : table4Specs()) {
        GraphSpec s = scaleSpec(spec, 0.005);
        auto g = generateGraph(s);
        EXPECT_GT(g.numVertices(), 0) << s.name;
        EXPECT_GT(g.numEdges(), 0) << s.name;
    }
}

} // namespace
} // namespace smash::wl
