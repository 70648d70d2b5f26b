/**
 * @file
 * Tests for the structure-specialized formats (DIA, ELL) and their
 * SpMV kernels: dense round-trips, structural invariants, the
 * storage behaviour that motivates the paper's generality argument
 * (§2.3), and agreement of spmvDia/spmvEll with the dense oracle.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "formats/convert.hh"
#include "formats/dia_matrix.hh"
#include "formats/ell_matrix.hh"
#include "kernels/reference.hh"
#include "kernels/spmv_structured.hh"
#include "sim/exec_model.hh"
#include "workloads/matrix_gen.hh"

namespace smash::fmt
{
namespace
{

CooMatrix
fig1Example()
{
    CooMatrix coo(4, 4);
    coo.add(0, 0, 3.2);
    coo.add(1, 0, 1.2);
    coo.add(1, 2, 4.2);
    coo.add(2, 3, 5.1);
    coo.add(3, 0, 5.3);
    coo.add(3, 1, 3.3);
    coo.canonicalize();
    return coo;
}

CooMatrix
tridiagonal(Index n)
{
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i) {
        coo.add(i, i, 2.0);
        if (i > 0)
            coo.add(i, i - 1, -1.0);
        if (i + 1 < n)
            coo.add(i, i + 1, -1.0);
    }
    coo.canonicalize();
    return coo;
}

std::vector<Value>
randomVector(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Value> v(static_cast<std::size_t>(n));
    for (auto& x : v)
        x = Value(0.25) + static_cast<Value>(rng.uniform());
    return v;
}

// ---------------------------------------------------------------- DIA

TEST(Dia, RoundTripsFig1Example)
{
    CooMatrix coo = fig1Example();
    DiaMatrix dia = DiaMatrix::fromCoo(coo);
    EXPECT_TRUE(dia.checkInvariants());
    EXPECT_TRUE(dia.toDense().approxEquals(coo.toDense(), 0.0));
}

TEST(Dia, Fig1ExampleLanes)
{
    // Fig. 1 populates offsets -3 (5.3), -2 (3.3), -1 (1.2),
    // 0 (3.2), +1 (4.2 and 5.1).
    DiaMatrix dia = DiaMatrix::fromCoo(fig1Example());
    EXPECT_EQ(dia.numDiagonals(), 5);
    EXPECT_EQ(dia.offsets(), (std::vector<Index>{-3, -2, -1, 0, 1}));
    EXPECT_EQ(dia.nnz(), 6);
}

TEST(Dia, TridiagonalStoresThreeLanes)
{
    DiaMatrix dia = DiaMatrix::fromCoo(tridiagonal(64));
    EXPECT_EQ(dia.numDiagonals(), 3);
    EXPECT_TRUE(dia.checkInvariants());
    // Only the two band end slots per off-diagonal lane are padding.
    EXPECT_GT(dia.fillEfficiency(), 0.98);
}

TEST(Dia, UniformScatterFillsPoorly)
{
    // The generality argument: uniform scatter touches many
    // diagonals, each nearly empty.
    CooMatrix coo = wl::genUniform(128, 128, 256, 7);
    DiaMatrix dia = DiaMatrix::fromCoo(coo);
    EXPECT_TRUE(dia.checkInvariants());
    EXPECT_LT(dia.fillEfficiency(), 0.10);
    EXPECT_TRUE(dia.toDense().approxEquals(coo.toDense(), 0.0));
}

TEST(Dia, EmptyMatrix)
{
    CooMatrix coo(5, 5);
    coo.canonicalize();
    DiaMatrix dia = DiaMatrix::fromCoo(coo);
    EXPECT_EQ(dia.numDiagonals(), 0);
    EXPECT_EQ(dia.nnz(), 0);
    EXPECT_TRUE(dia.checkInvariants());
    EXPECT_EQ(dia.storageBytes(), 0u);
}

TEST(Dia, RectangularTallAndWide)
{
    for (auto [r, c] : {std::pair<Index, Index>{20, 7},
                        std::pair<Index, Index>{7, 20}}) {
        CooMatrix coo = wl::genUniform(r, c, 30, 11);
        DiaMatrix dia = DiaMatrix::fromCoo(coo);
        EXPECT_TRUE(dia.checkInvariants());
        EXPECT_TRUE(dia.toDense().approxEquals(coo.toDense(), 0.0));
    }
}

TEST(Dia, LaneDataOutOfRangeThrows)
{
    DiaMatrix dia = DiaMatrix::fromCoo(tridiagonal(8));
    EXPECT_THROW(dia.laneData(-1), FatalError);
    EXPECT_THROW(dia.laneData(3), FatalError);
}

TEST(Dia, RequiresCanonicalCoo)
{
    CooMatrix coo(4, 4);
    coo.add(2, 2, 1.0);
    coo.add(0, 0, 1.0); // unsorted
    EXPECT_THROW(DiaMatrix::fromCoo(coo), FatalError);
}

TEST(Dia, StorageBeatsCsrOnBandedMatrix)
{
    CooMatrix coo = tridiagonal(512);
    DiaMatrix dia = DiaMatrix::fromCoo(coo);
    CsrMatrix csr = CsrMatrix::fromCoo(coo);
    EXPECT_LT(dia.storageBytes(), csr.storageBytes());
}

// ---------------------------------------------------------------- ELL

TEST(Ell, RoundTripsFig1Example)
{
    CooMatrix coo = fig1Example();
    EllMatrix ell = EllMatrix::fromCoo(coo);
    EXPECT_TRUE(ell.checkInvariants());
    EXPECT_EQ(ell.width(), 2); // rows 1 and 3 hold two entries
    EXPECT_TRUE(ell.toDense().approxEquals(coo.toDense(), 0.0));
}

TEST(Ell, WidthIsMaxRowDegree)
{
    CooMatrix coo(4, 8);
    for (Index c = 0; c < 6; ++c)
        coo.add(2, c, 1.0);
    coo.add(0, 0, 1.0);
    coo.canonicalize();
    EllMatrix ell = EllMatrix::fromCoo(coo);
    EXPECT_EQ(ell.width(), 6);
    // One heavy row inflates everyone: 4 rows x 6 slots for 7 nnz.
    EXPECT_NEAR(ell.fillEfficiency(), 7.0 / 24.0, 1e-12);
}

TEST(Ell, EmptyMatrix)
{
    CooMatrix coo(3, 3);
    coo.canonicalize();
    EllMatrix ell = EllMatrix::fromCoo(coo);
    EXPECT_EQ(ell.width(), 0);
    EXPECT_TRUE(ell.checkInvariants());
    EXPECT_EQ(ell.storageBytes(), 0u);
}

TEST(Ell, UniformMatrixRoundTrips)
{
    CooMatrix coo = wl::genUniform(96, 64, 512, 23);
    EllMatrix ell = EllMatrix::fromCoo(coo);
    EXPECT_TRUE(ell.checkInvariants());
    EXPECT_TRUE(ell.toDense().approxEquals(coo.toDense(), 0.0));
}

TEST(Ell, RequiresCanonicalCoo)
{
    CooMatrix coo(4, 4);
    coo.add(1, 1, 1.0);
    coo.add(1, 1, 2.0); // duplicate
    EXPECT_THROW(EllMatrix::fromCoo(coo), FatalError);
}

TEST(Ell, PaddingSlotsAreZeroValued)
{
    EllMatrix ell = EllMatrix::fromCoo(fig1Example());
    for (std::size_t s = 0; s < ell.colInd().size(); ++s) {
        if (ell.colInd()[s] == kEllPad) {
            EXPECT_EQ(ell.values()[s], Value(0));
        }
    }
}

/** fromCsr must build exactly what the COO route builds. */
void
expectSameEll(const EllMatrix& got, const EllMatrix& want)
{
    EXPECT_TRUE(got.checkInvariants());
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.cols(), want.cols());
    EXPECT_EQ(got.width(), want.width());
    EXPECT_EQ(got.nnz(), want.nnz());
    EXPECT_EQ(got.colInd(), want.colInd());
    EXPECT_EQ(got.values(), want.values());
}

TEST(Ell, FromCsrMatchesCooRoute)
{
    CooMatrix with_empty_rows(6, 9);
    for (Index c : {Index(0), Index(3), Index(8)})
        with_empty_rows.add(1, c, Value(c) + 0.5);
    with_empty_rows.add(4, 2, -1.25);
    with_empty_rows.canonicalize();
    for (const CooMatrix& coo :
         {fig1Example(), with_empty_rows, CooMatrix(5, 7),
          CooMatrix(0, 0), tridiagonal(17),
          wl::genPowerLaw(72, 72, 500, 1.8, 15)}) {
        const CsrMatrix csr = CsrMatrix::fromCoo(coo);
        const EllMatrix ell = EllMatrix::fromCsr(csr);
        expectSameEll(ell, EllMatrix::fromCoo(csr.toCoo()));
        EXPECT_TRUE(ell.toDense().approxEquals(coo.toDense(), 0.0));
    }
}

TEST(Ell, FromCsrDropsExplicitZerosLikeTheCooRoute)
{
    // Row 0: {0: 2, 2: 0}; row 1: {1: 0}; row 2: {0: 1, 1: 3}.
    const CsrMatrix csr = CsrMatrix::fromRaw(
        3, 3, {0, 2, 3, 5}, {0, 2, 1, 0, 1}, {2.0, 0.0, 0.0, 1.0, 3.0});
    const EllMatrix ell = EllMatrix::fromCsr(csr);
    expectSameEll(ell, EllMatrix::fromCoo(csr.toCoo()));
    EXPECT_EQ(ell.width(), 2);
    EXPECT_EQ(ell.nnz(), 3);
}

// ------------------------------------------------------ SpMV kernels

struct StructuredSpmvCase
{
    const char* name;
    Index rows, cols, nnz;
    int structure; // 0 uniform, 1 banded, 2 powerlaw
    std::uint64_t seed;
};

class StructuredSpmv : public ::testing::TestWithParam<StructuredSpmvCase>
{
  protected:
    CooMatrix
    make() const
    {
        const auto& p = GetParam();
        switch (p.structure) {
          case 0:
            return wl::genUniform(p.rows, p.cols, p.nnz, p.seed);
          case 1:
            return tridiagonal(p.rows);
          default:
            return wl::genPowerLaw(p.rows, p.cols, p.nnz, 1.8, p.seed);
        }
    }
};

TEST_P(StructuredSpmv, DiaMatchesDenseOracle)
{
    CooMatrix coo = make();
    DiaMatrix dia = DiaMatrix::fromCoo(coo);
    std::vector<Value> x = randomVector(coo.cols(), 3);
    std::vector<Value> y(static_cast<std::size_t>(coo.rows()), 0.5);
    std::vector<Value> y_ref = y;

    sim::NativeExec e;
    kern::spmvDia(dia, x, y, e);
    kern::denseSpmv(coo.toDense(), x, y_ref);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "row " << i;
}

TEST_P(StructuredSpmv, EllMatchesDenseOracle)
{
    CooMatrix coo = make();
    EllMatrix ell = EllMatrix::fromCoo(coo);
    std::vector<Value> x = randomVector(coo.cols(), 4);
    std::vector<Value> y(static_cast<std::size_t>(coo.rows()), -0.25);
    std::vector<Value> y_ref = y;

    sim::NativeExec e;
    kern::spmvEll(ell, x, y, e);
    kern::denseSpmv(coo.toDense(), x, y_ref);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StructuredSpmv,
    ::testing::Values(
        StructuredSpmvCase{"uniform_square", 64, 64, 400, 0, 11},
        StructuredSpmvCase{"uniform_wide", 32, 96, 300, 0, 12},
        StructuredSpmvCase{"uniform_tall", 96, 32, 300, 0, 13},
        StructuredSpmvCase{"banded", 80, 80, 0, 1, 14},
        StructuredSpmvCase{"powerlaw", 72, 72, 500, 2, 15},
        StructuredSpmvCase{"nearly_dense", 24, 24, 500, 0, 16}),
    [](const auto& info) { return info.param.name; });

} // namespace
} // namespace smash::fmt
