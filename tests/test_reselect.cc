/**
 * @file
 * Tests for the update-and-reselect subsystem: CSR master mutation
 * (COO deltas, row replacement, value scaling) against dense
 * oracles, the one-pass analyzeStructure() against a brute-force
 * profile, hysteresis in chooseFormatSticky(), the drift gate's
 * churn count, and the
 * registry/session drift path — drift deltas trigger exactly one
 * re-encode, results submitted across the swap stay bit-identical
 * (all test values are dyadic rationals, so every summation order
 * is exact), and thrash near a boundary is suppressed. The
 * measured format confirmation (eng::confirmFormat) is covered at
 * registration, per shard, and at drift re-encode.
 *
 * Thread counts: SMASH_SERVE_THREADS pins one count (the ctest
 * variants run 1, 2, and 8); unset, every count is covered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel_exec.hh"
#include "engine/autoselect.hh"
#include "engine/dispatch.hh"
#include "engine/mutate.hh"
#include "formats/dense_matrix.hh"
#include "obs/metrics.hh"
#include "serve/session.hh"
#include "shard/sharded_matrix.hh"
#include "workloads/matrix_gen.hh"

namespace smash
{
namespace
{

std::vector<int>
threadCounts()
{
    if (const char* env = std::getenv("SMASH_SERVE_THREADS"))
        return {std::atoi(env)};
    return {1, 2, 8};
}

/** Dyadic-valued operand (multiples of 2^-4): exact in any order. */
std::vector<Value>
dyadicOperand(Index n, Index kind)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] =
            Value(1) + Value((i * 5 + kind) % 9) * Value(0.0625);
    return x;
}

/** Wait until no re-encode is pending for @p name. */
bool
waitReencodeSettled(serve::MatrixRegistry& registry,
                    const std::string& name)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(5);
    while (registry.info(name).reencodePending) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/**
 * Wide clustered matrix: @p blocks aligned 8-column blocks per row,
 * 7 of 8 filled, at seeded positions, dyadic values. Block locality
 * ~7/8 makes the rules pick kSmash; at 32768 columns SMASH-SW's
 * bitmap walk costs ~15x a CSR row walk on a BMU-less host, far
 * past the probe margin.
 */
fmt::CooMatrix
wideClustered(Index rows, Index blocks, std::uint64_t seed)
{
    constexpr Index kCols = 32768;
    fmt::CooMatrix coo(rows, kCols);
    std::uint64_t state = seed;
    for (Index r = 0; r < rows; ++r)
        for (Index b = 0; b < blocks; ++b) {
            state = state * 6364136223846793005ULL +
                1442695040888963407ULL;
            const Index c0 =
                static_cast<Index>((state >> 33) % (kCols / 8)) * 8;
            for (Index j = 0; j < 7; ++j)
                coo.add(r, c0 + j,
                        Value(1) + Value((r + j) % 16) * Value(0.0625));
        }
    coo.canonicalize();
    return coo;
}

/** The Prometheus exposition of the global metrics registry. */
std::string
metricsText()
{
    std::ostringstream os;
    obs::MetricsRegistry::global().exportText(os);
    return os.str();
}

/** y = A x through a fresh serial encoding of @p coo in @p format. */
std::vector<Value>
referenceSpmv(const fmt::CooMatrix& coo, eng::Format format,
              const std::vector<Value>& x)
{
    const eng::SparseMatrixAny a =
        eng::SparseMatrixAny::fromCoo(coo, format);
    std::vector<Value> y(static_cast<std::size_t>(coo.rows()),
                         Value(0));
    sim::NativeExec e;
    eng::spmv(a.ref(), x, y, e);
    return y;
}

TEST(Mutate, ApplyUpdatesMatchesDenseOracle)
{
    const fmt::CooMatrix base = wl::genClustered(40, 40, 300, 4, 7);
    fmt::CsrMatrix m = fmt::CsrMatrix::fromCoo(base);

    fmt::CooMatrix deltas(40, 40);
    // Overlap an existing coordinate, insert fresh ones, and cancel
    // one entry exactly.
    const fmt::CooEntry first = base.entries().front();
    deltas.add(first.row, first.col, Value(0.5));
    const fmt::CooEntry last = base.entries().back();
    deltas.add(last.row, last.col, -last.value); // exact cancel
    deltas.add(0, 39, Value(2));
    deltas.add(39, 0, Value(-3));
    deltas.canonicalize();

    const eng::MutationStats stats = eng::applyUpdates(m, deltas);
    EXPECT_EQ(stats.removed, 1);
    EXPECT_GE(stats.inserted, 2);
    EXPECT_GE(stats.updated, 1);

    const fmt::DenseMatrix want = [&] {
        fmt::DenseMatrix d = base.toDense();
        for (const fmt::CooEntry& e : deltas.entries())
            d.at(e.row, e.col) += e.value;
        return d;
    }();
    const fmt::DenseMatrix got = m.toDense();
    for (Index r = 0; r < 40; ++r)
        for (Index c = 0; c < 40; ++c)
            EXPECT_EQ(got.at(r, c), want.at(r, c))
                << "(" << r << ", " << c << ")";
    EXPECT_TRUE(m.checkInvariants());
    EXPECT_EQ(m.nnz(), base.nnz() + stats.inserted - stats.removed);
}

TEST(Mutate, ReplaceRowsMatchesDenseOracle)
{
    const fmt::CooMatrix base = wl::genClustered(32, 32, 200, 4, 11);
    fmt::CsrMatrix m = fmt::CsrMatrix::fromCoo(base);

    fmt::CooMatrix repl(32, 32);
    repl.add(3, 0, Value(1.5));
    repl.add(3, 31, Value(-2.5));
    // Row 17 is listed with no entries: it becomes empty.
    repl.canonicalize();

    eng::replaceRows(m, {3, 17}, repl);

    fmt::DenseMatrix want = base.toDense();
    for (Index c = 0; c < 32; ++c) {
        want.at(3, c) = Value(0);
        want.at(17, c) = Value(0);
    }
    want.at(3, 0) = Value(1.5);
    want.at(3, 31) = Value(-2.5);
    const fmt::DenseMatrix got = m.toDense();
    for (Index r = 0; r < 32; ++r)
        for (Index c = 0; c < 32; ++c)
            EXPECT_EQ(got.at(r, c), want.at(r, c))
                << "(" << r << ", " << c << ")";
    EXPECT_TRUE(m.checkInvariants());

    // Entries outside the listed rows are rejected.
    fmt::CooMatrix bad(32, 32);
    bad.add(5, 5, Value(1));
    bad.canonicalize();
    EXPECT_THROW(eng::replaceRows(m, {3}, bad), FatalError);
}

TEST(Mutate, ScaleValuesPreservesStructure)
{
    const fmt::CooMatrix base = wl::genClustered(24, 24, 120, 4, 13);
    fmt::CsrMatrix m = fmt::CsrMatrix::fromCoo(base);
    const Index nnz = m.nnz();
    eng::scaleValues(m, Value(0.25));
    EXPECT_EQ(m.nnz(), nnz);
    for (const fmt::CooEntry& e : base.entries())
        EXPECT_EQ(m.at(e.row, e.col), e.value * Value(0.25));
    // Scaling by zero keeps explicit zeros (structure intact).
    eng::scaleValues(m, Value(0));
    EXPECT_EQ(m.nnz(), nnz);
}

/**
 * The §7.2.3 profile by brute force: std::sets of the occupied
 * diagonals and (row, block) pairs, and the StructureStats formulas
 * over them (row populations summed in row order).
 */
eng::StructureStats
bruteForceProfile(const fmt::CsrMatrix& m, Index block)
{
    eng::StructureStats s;
    s.rows = m.rows();
    s.cols = m.cols();
    s.nnz = m.nnz();
    s.localityBlock = block;
    if (s.rows == 0 || s.cols == 0 || s.nnz == 0)
        return s;
    std::vector<Index> pop(static_cast<std::size_t>(s.rows), 0);
    std::set<Index> diags;
    std::set<std::pair<Index, Index>> blocks;
    for (Index r = 0; r < s.rows; ++r) {
        for (auto k = m.rowPtr()[static_cast<std::size_t>(r)];
             k < m.rowPtr()[static_cast<std::size_t>(r) + 1]; ++k) {
            const Index c = m.colInd()[static_cast<std::size_t>(k)];
            ++pop[static_cast<std::size_t>(r)];
            diags.insert(c - r);
            blocks.insert({r, c / block});
        }
    }
    s.density = static_cast<double>(s.nnz) /
        (static_cast<double>(s.rows) * static_cast<double>(s.cols));
    s.avgNnzPerRow =
        static_cast<double>(s.nnz) / static_cast<double>(s.rows);
    double var = 0;
    for (Index p : pop) {
        const double d = static_cast<double>(p) - s.avgNnzPerRow;
        var += d * d;
        s.maxNnzPerRow = std::max(s.maxNnzPerRow, p);
    }
    var /= static_cast<double>(s.rows);
    s.rowCv = std::sqrt(var) / s.avgNnzPerRow;
    s.numDiagonals = static_cast<Index>(diags.size());
    Index capacity = 0;
    for (Index off : diags)
        capacity += off >= 0 ? std::min(s.rows, s.cols - off)
                             : std::min(s.cols, s.rows + off);
    s.diagonalFill =
        static_cast<double>(s.nnz) / static_cast<double>(capacity);
    s.blockLocality = static_cast<double>(s.nnz) /
        (static_cast<double>(blocks.size()) * static_cast<double>(block));
    return s;
}

void
expectSameProfile(const eng::StructureStats& got,
                  const eng::StructureStats& want,
                  const std::string& what)
{
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.cols, want.cols) << what;
    EXPECT_EQ(got.nnz, want.nnz) << what;
    EXPECT_EQ(got.maxNnzPerRow, want.maxNnzPerRow) << what;
    EXPECT_EQ(got.numDiagonals, want.numDiagonals) << what;
    EXPECT_EQ(got.localityBlock, want.localityBlock) << what;
    // Same formulas over the same integer counts in the same order:
    // the doubles agree to the bit, so the rules decide alike.
    EXPECT_EQ(got.density, want.density) << what;
    EXPECT_EQ(got.avgNnzPerRow, want.avgNnzPerRow) << what;
    EXPECT_EQ(got.rowCv, want.rowCv) << what;
    EXPECT_EQ(got.diagonalFill, want.diagonalFill) << what;
    EXPECT_EQ(got.blockLocality, want.blockLocality) << what;
}

/** A seeded rows x cols matrix with about @p fill of its cells set
 *  (so sparse shapes keep empty rows). */
fmt::CooMatrix
randomShape(Index rows, Index cols, double fill, std::uint64_t seed)
{
    fmt::CooMatrix coo(rows, cols);
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    for (Index r = 0; r < rows; ++r) {
        for (Index c = 0; c < cols; ++c) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if (static_cast<double>(state % 10000) < fill * 10000)
                coo.add(r, c, Value(1) + Value(c % 4) * Value(0.25));
        }
    }
    coo.canonicalize();
    return coo;
}

TEST(Profile, CsrPassMatchesBruteForce)
{
    std::vector<std::pair<std::string, fmt::CsrMatrix>> cases;
    const auto addCase = [&](std::string name, const fmt::CooMatrix& c) {
        cases.emplace_back(std::move(name), fmt::CsrMatrix::fromCoo(c));
    };
    addCase("square", randomShape(100, 100, 0.05, 1));
    addCase("tall", randomShape(300, 37, 0.08, 2));
    addCase("wide", randomShape(29, 400, 0.06, 3));
    addCase("empty rows", randomShape(200, 100, 0.003, 4));
    addCase("0 nnz", fmt::CooMatrix(40, 30));
    addCase("1xn", randomShape(1, 257, 0.3, 5));
    addCase("nx1", randomShape(257, 1, 0.3, 6));
    addCase("dense corner", randomShape(12, 9, 1.0, 7));
    addCase("tridiagonal", wl::genTridiagonal(100));
    addCase("power law", wl::genPowerLaw(64, 64, 700, 1.1, 17));

    // Explicit zeros stay stored entries of the structure.
    fmt::CsrMatrix zeros = fmt::CsrMatrix::fromCoo(randomShape(50, 70, 0.1, 8));
    eng::scaleValues(zeros, Value(0));
    cases.emplace_back("explicit zeros", std::move(zeros));

    // Content after structural churn: inserts, cancellations and a
    // row replacement.
    fmt::CsrMatrix churned =
        fmt::CsrMatrix::fromCoo(wl::genPowerLaw(64, 64, 700, 1.1, 17));
    std::uint64_t state = 99;
    for (int round = 0; round < 4; ++round)
        eng::applyUpdates(churned,
                          wl::genScatterDeltas(64, 64, 50, state++));
    fmt::CooMatrix repl(64, 64);
    repl.add(10, 3, Value(1));
    repl.add(10, 60, Value(2));
    repl.canonicalize();
    eng::replaceRows(churned, {10, 11}, repl);
    cases.emplace_back("after mutations", std::move(churned));

    // Block sizes that do not divide most of the column counts. The
    // COO overload sees what toCoo() keeps (it drops explicit zeros).
    for (const auto& [name, m] : cases) {
        const fmt::CooMatrix coo = m.toCoo();
        const fmt::CsrMatrix from_coo = fmt::CsrMatrix::fromCoo(coo);
        for (Index block : {Index(1), Index(3), Index(8), Index(64)}) {
            const std::string what =
                name + " block " + std::to_string(block);
            expectSameProfile(eng::analyzeStructure(m, block),
                              bruteForceProfile(m, block), what);
            expectSameProfile(eng::analyzeStructure(coo, block),
                              bruteForceProfile(from_coo, block),
                              what + " (COO)");
        }
    }
}

TEST(Reselect, StickyChoiceNeedsDecisiveCrossing)
{
    // A profile just past the SMASH boundary: the plain chooser
    // flips, the sticky chooser holds until the margin is beaten.
    eng::StructureStats s;
    s.rows = 100;
    s.cols = 100;
    s.nnz = 500;
    s.density = 0.05;
    s.avgNnzPerRow = 5;
    s.rowCv = 1.0; // not ELL
    s.maxNnzPerRow = 50;
    s.numDiagonals = 90; // not DIA
    s.diagonalFill = 0.05;
    s.blockLocality = 0.55;
    s.localityBlock = 8;
    EXPECT_EQ(eng::chooseFormat(s), eng::Format::kSmash);
    EXPECT_EQ(eng::chooseFormatSticky(s, eng::Format::kCsr, 0.1),
              eng::Format::kCsr);
    EXPECT_EQ(eng::chooseFormatSticky(s, eng::Format::kCsr, 0.02),
              eng::Format::kSmash);

    // Inside the band in the other direction: a DIA matrix whose
    // fill sagged below the plain boundary stays DIA.
    eng::StructureStats d = s;
    d.blockLocality = 0.1;
    d.numDiagonals = 9;
    d.diagonalFill = 0.45;
    EXPECT_EQ(eng::chooseFormat(d), eng::Format::kCsr);
    EXPECT_EQ(eng::chooseFormatSticky(d, eng::Format::kDia, 0.1),
              eng::Format::kDia);
    EXPECT_EQ(eng::chooseFormatSticky(d, eng::Format::kCsr, 0.1),
              eng::Format::kCsr);

    // The cap-style boundaries get the same band: an ELL matrix
    // whose max/avg row population pokes just past the plain cap
    // (2*avg+1 = 11 < max 12) stays ELL under the margin.
    eng::StructureStats e = s;
    e.blockLocality = 0.1;
    e.rowCv = 0.05;
    e.maxNnzPerRow = 12;
    EXPECT_EQ(eng::chooseFormat(e), eng::Format::kCsr);
    EXPECT_EQ(eng::chooseFormatSticky(e, eng::Format::kEll, 0.2),
              eng::Format::kEll);
    EXPECT_EQ(eng::chooseFormatSticky(e, eng::Format::kCsr, 0.2),
              eng::Format::kCsr);
}

TEST(Reselect, HysteresisSuppressesThrashThenMovesDecisively)
{
    // 64x64, three entries per row inside one aligned 8-block:
    // uniform rows, block locality 3/8 — auto-selects ELL.
    fmt::CooMatrix coo(64, 64);
    for (Index r = 0; r < 64; ++r)
        for (Index k = 0; k < 3; ++k)
            coo.add(r, 8 * (r % 8) + k, Value(1) + Value(k) * Value(0.5));
    coo.canonicalize();

    serve::MatrixRegistry registry;
    serve::ReselectPolicy policy;
    policy.margin = 0.2;
    policy.minChanged = 16;
    registry.setReselectPolicy(policy);
    EXPECT_EQ(registry.put("drifty", std::move(coo)),
              eng::Format::kEll);

    // +1 entry per row in the same block: locality reaches the
    // plain SMASH boundary (0.5) but not the sticky one (0.7) —
    // inside the hysteresis band, nothing may happen.
    fmt::CooMatrix band(64, 64);
    for (Index r = 0; r < 64; ++r)
        band.add(r, 8 * (r % 8) + 3, Value(0.5));
    band.canonicalize();
    serve::UpdateOutcome out = registry.applyUpdates("drifty", band);
    EXPECT_EQ(out.stats.inserted, 64);
    EXPECT_FALSE(out.reencodeScheduled);
    EXPECT_EQ(registry.reselects("drifty"), 0u);
    EXPECT_EQ(registry.format("drifty"), eng::Format::kEll);

    // +2 more per row: locality 6/8 beats the margin — exactly one
    // (synchronous, hook-less) re-encode to SMASH.
    fmt::CooMatrix decisive(64, 64);
    for (Index r = 0; r < 64; ++r) {
        decisive.add(r, 8 * (r % 8) + 4, Value(0.25));
        decisive.add(r, 8 * (r % 8) + 5, Value(0.25));
    }
    decisive.canonicalize();
    out = registry.applyUpdates("drifty", decisive);
    EXPECT_TRUE(out.reencodeScheduled);
    EXPECT_EQ(out.target, eng::Format::kSmash);
    EXPECT_EQ(registry.reselects("drifty"), 1u);
    EXPECT_EQ(registry.format("drifty"), eng::Format::kSmash);
    EXPECT_FALSE(registry.info("drifty").reencodePending);

    // Keep pushing in the same direction: already in the favoured
    // format, so no further re-encodes (no thrash).
    fmt::CooMatrix more(64, 64);
    for (Index r = 0; r < 64; ++r)
        more.add(r, 8 * (r % 8) + 6, Value(0.125));
    more.canonicalize();
    out = registry.applyUpdates("drifty", more);
    EXPECT_FALSE(out.reencodeScheduled);
    EXPECT_EQ(registry.reselects("drifty"), 1u);
}

TEST(Reselect, DriftGateOpensOnTheMutationThatReachesTheThreshold)
{
    // A 64x64 tridiagonal matrix is DIA. Every mutation lands in
    // rows [0, 32), which for K=2 is exactly shard 0. The gate needs
    // 8 structural changes; shard 0's decision.stats shows when it
    // last opened (an in-band decision rewrites it with the profile
    // it read).
    const auto at = [](std::vector<std::pair<Index, Index>> cells,
                       Value v) {
        fmt::CooMatrix d(64, 64);
        for (const auto& [r, c] : cells)
            d.add(r, c, v);
        d.canonicalize();
        return d;
    };
    eng::ReselectPolicy policy;
    policy.minChanged = 8;
    policy.minChangedFraction = 0;
    for (Index k : {Index(1), Index(2)}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        shard::ShardedMatrix sm(
            "gate", fmt::CsrMatrix::fromCoo(wl::genTridiagonal(64)), k);
        ASSERT_EQ(sm.shardFormats(),
                  std::vector<eng::Format>(static_cast<std::size_t>(k),
                                           eng::Format::kDia));
        const auto seen = [&sm] {
            return sm.shardInfo(0).decision.stats.nnz;
        };
        const Index nnz0 = sm.shardInfo(0).nnz;
        ASSERT_EQ(seen(), nnz0);

        // 3 inserts on diagonal +3, a value-only update (adds no
        // churn), then 4 more inserts: 7 changes, the gate stays shut.
        shard::ShardMutationOutcome out =
            sm.applyUpdates(at({{0, 3}, {1, 4}, {2, 5}}, 1), policy);
        EXPECT_EQ(out.stats.structural(), 3);
        out = sm.applyUpdates(at({{0, 0}}, Value(0.5)), policy);
        EXPECT_EQ(out.stats.updated, 1);
        EXPECT_EQ(out.stats.structural(), 0);
        out = sm.applyUpdates(at({{3, 6}, {4, 7}, {5, 8}, {6, 9}}, 1),
                              policy);
        EXPECT_FALSE(out.reencodeScheduled);
        EXPECT_EQ(seen(), nnz0) << "the gate opened before 8 changes";

        // The 8th change opens it. Four well-filled diagonals stay
        // DIA: an in-band decision, which restarts the count.
        out = sm.applyUpdates(at({{7, 10}}, 1), policy);
        EXPECT_FALSE(out.reencodeScheduled);
        EXPECT_EQ(seen(), nnz0 + 8) << "the gate missed the 8th change";
        EXPECT_EQ(sm.shardInfo(0).chosen, eng::Format::kDia);

        // 7 entries on 7 new diagonals sink the diagonal fill far
        // enough to leave DIA, but only 7 changes have accrued since
        // the restart; a value-only update adds none.
        out = sm.applyUpdates(at({{8, 18}, {9, 20}, {10, 22}, {11, 24},
                                  {12, 26}, {13, 28}, {14, 30}},
                                 1),
                              policy);
        EXPECT_FALSE(out.reencodeScheduled)
            << "the in-band decision did not restart the count";
        out = sm.applyUpdates(at({{0, 0}}, Value(0.5)), policy);
        EXPECT_FALSE(out.reencodeScheduled)
            << "a value-only update counted as churn";
        EXPECT_EQ(seen(), nnz0 + 8);

        // The 8th change since the restart schedules the re-encode.
        out = sm.applyUpdates(at({{15, 32}}, 1), policy);
        ASSERT_TRUE(out.reencodeScheduled);
        EXPECT_NE(out.target, eng::Format::kDia);
        EXPECT_TRUE(sm.reencodePending());
        EXPECT_EQ(seen(), nnz0 + 8) << "decision moved before the swap";

        // The swap records the profile the gate read.
        EXPECT_EQ(sm.runPendingReencodes(), 1);
        const shard::ShardInfo info = sm.shardInfo(0);
        EXPECT_EQ(info.chosen, out.target);
        EXPECT_EQ(info.decision.decidedBy, eng::DecidedBy::kRules);
        EXPECT_EQ(info.decision.stats.nnz, nnz0 + 16);
        EXPECT_EQ(info.decision.stats.numDiagonals, 12);
        expectSameProfile(info.decision.stats, sm.profile(0),
                          "stats of the swap");
    }
}

/**
 * Entries k in [k_begin, len) of each row of a 256 x 256 strided
 * pattern, scaled by @p sign, where len is 8, or @p ragged_len on
 * every 4th row. With ragged_len 32 the §7.2.3 rules pick CSR; with
 * 8 every row is uniform and they pick ELL. Values are not dyadic,
 * so summation order shows in the bits.
 */
fmt::CooMatrix
stridedRows(Index k_begin, Index ragged_len, Value sign)
{
    constexpr Index kN = 256;
    fmt::CooMatrix coo(kN, kN);
    for (Index r = 0; r < kN; ++r) {
        const Index len = r % 4 == 0 ? ragged_len : 8;
        for (Index k = k_begin; k < len; ++k) {
            const Index c = (r * 5 + k * 7) % kN;
            coo.add(r, c,
                    sign * (Value(0.1) +
                            Value((r * 257 + c) % 1000) / Value(997)));
        }
    }
    coo.canonicalize();
    return coo;
}

TEST(Reselect, CsrToEllReencodeKeepsTheBitsReadersSee)
{
    // The same content served as CSR, then (after a drift re-encode)
    // as ELL: the native kernels share one canonical row sum, so a
    // reader cannot tell the encodings apart, bit for bit.
    serve::MatrixRegistry registry;
    serve::ReselectPolicy frozen;
    frozen.enabled = false;
    registry.setReselectPolicy(frozen);
    ASSERT_EQ(registry.put("flip", stridedRows(0, 32, Value(1))),
              eng::Format::kCsr);
    serve::SessionOptions opts;
    opts.threads = 1;
    serve::Session session(registry, opts);

    // Drop the extra entries with reselection frozen: the content
    // is now uniform, still served as CSR.
    registry.applyUpdates("flip", stridedRows(8, 32, Value(-1)));
    const std::vector<Value> x = [] {
        std::vector<Value> v(256);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = Value(1) / Value(i + 3);
        return v;
    }();
    const std::vector<Value> as_csr =
        session.submit(serve::SpmvRequest{"flip", x}).get().value();
    ASSERT_EQ(registry.encoded("flip")->format(), eng::Format::kCsr);

    // Unfreeze; one insert crosses the drift gate toward ELL and
    // the matching removal restores the content.
    registry.setReselectPolicy(serve::ReselectPolicy());
    fmt::CooMatrix insert(256, 256);
    insert.add(1, 61, Value(0.5));
    insert.canonicalize();
    const serve::UpdateOutcome out =
        session.applyUpdates("flip", insert);
    ASSERT_TRUE(out.reencodeScheduled);
    EXPECT_EQ(out.target, eng::Format::kEll);
    fmt::CooMatrix remove(256, 256);
    remove.add(1, 61, Value(-0.5));
    remove.canonicalize();
    session.applyUpdates("flip", remove);
    ASSERT_TRUE(waitReencodeSettled(registry, "flip"));

    const std::vector<Value> as_ell =
        session.submit(serve::SpmvRequest{"flip", x}).get().value();
    ASSERT_EQ(registry.encoded("flip")->format(), eng::Format::kEll);
    ASSERT_EQ(as_ell.size(), as_csr.size());
    EXPECT_EQ(std::memcmp(as_ell.data(), as_csr.data(),
                          as_csr.size() * sizeof(Value)),
              0);
}

TEST(Reselect, MutationInvalidatesCachedEncodingsButNotHeldEpochs)
{
    serve::MatrixRegistry registry;
    registry.put("m", wl::genTridiagonal(64));
    const serve::MatrixRegistry::EncodingPtr before =
        registry.encoded("m");

    const std::vector<Value> x = dyadicOperand(64, 3);
    sim::NativeExec e;
    std::vector<Value> y_before(64, Value(0));
    eng::spmv(before->ref(), x, y_before, e);

    registry.scaleValues("m", Value(2));
    const serve::MatrixRegistry::EncodingPtr after =
        registry.encoded("m");
    EXPECT_NE(before.get(), after.get()); // rebuilt from new master
    // The held epoch still computes with the pre-mutation values.
    std::vector<Value> y_held(64, Value(0));
    eng::spmv(before->ref(), x, y_held, e);
    std::vector<Value> y_after(64, Value(0));
    eng::spmv(after->ref(), x, y_after, e);
    for (Index i = 0; i < 64; ++i) {
        EXPECT_EQ(y_held[static_cast<std::size_t>(i)],
                  y_before[static_cast<std::size_t>(i)]);
        EXPECT_EQ(y_after[static_cast<std::size_t>(i)],
                  y_before[static_cast<std::size_t>(i)] * Value(2));
    }
    EXPECT_EQ(registry.info("m").epoch, 1u);
}

TEST(Reselect, DriftTriggersExactlyOneAsyncReencode)
{
    const Index n = 256;
    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        ASSERT_EQ(registry.put("live", wl::genTridiagonal(n)),
                  eng::Format::kDia);

        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        // Warm the cache so the drift path starts from a served
        // steady state.
        ASSERT_TRUE(session
                        .submit(serve::SpmvRequest{
                            "live", dyadicOperand(n, 0)})
                        .get()
                        .ok());
        ASSERT_EQ(registry.format("live"), eng::Format::kDia);

        // Phase A: scattered deltas until the detector schedules
        // the re-encode (asynchronously, through the session's
        // pipeline), then a few more rounds that must NOT schedule
        // a second one while it is pending or after it lands.
        std::uint64_t state = 2026;
        bool scheduled = false;
        for (int round = 0; round < 12; ++round) {
            const serve::UpdateOutcome out = session.applyUpdates(
                "live", wl::genScatterDeltas(n, n, 64, state++));
            if (out.reencodeScheduled) {
                scheduled = true;
                break;
            }
        }
        ASSERT_TRUE(scheduled) << "drift never crossed the boundary";
        for (int round = 0; round < 3; ++round) {
            const serve::UpdateOutcome out = session.applyUpdates(
                "live", wl::genScatterDeltas(n, n, 64, state++));
            EXPECT_FALSE(out.reencodeScheduled);
        }

        // Phase B: the master is now fixed; hammer submits from
        // several client threads while the re-encode may still be
        // in flight. Every result must be bit-identical to the
        // oracle — the old and new encodings hold the same dyadic
        // content, so the swap cannot show through.
        std::vector<Value> oracle;
        {
            sim::NativeExec e;
            oracle.assign(static_cast<std::size_t>(n), Value(0));
            eng::spmv(registry.encoded("live")->ref(),
                      dyadicOperand(n, 1), oracle, e);
        }
        constexpr int kClients = 3;
        constexpr int kPerClient = 10;
        std::vector<
            std::future<serve::Result<std::vector<Value>>>>
            futures(kClients * kPerClient);
        std::atomic<std::size_t> slot{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&] {
                for (int i = 0; i < kPerClient; ++i)
                    futures[slot.fetch_add(1)] =
                        session.submit(serve::SpmvRequest{
                            "live", dyadicOperand(n, 1)});
            });
        for (std::thread& c : clients)
            c.join();
        for (auto& f : futures) {
            serve::Result<std::vector<Value>> result = f.get();
            ASSERT_TRUE(result.ok()) << result.status().toString();
            const std::vector<Value>& got = result.value();
            ASSERT_EQ(got.size(), oracle.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], oracle[i])
                    << "row " << i << " threads " << threads;
        }

        ASSERT_TRUE(waitReencodeSettled(registry, "live"));
        session.drain();
        EXPECT_EQ(registry.reselects("live"), 1u)
            << "threads " << threads;
        EXPECT_NE(registry.format("live"), eng::Format::kDia);
        EXPECT_EQ(session.stats().reencodes.load(), 1u);
        EXPECT_EQ(session.stats().failed.load(), 0u);

        // Post-swap requests serve from the re-selected encoding
        // and still agree bit-for-bit.
        const std::vector<Value> after =
            session
                .submit(serve::SpmvRequest{"live",
                                           dyadicOperand(n, 1)})
                .get()
                .value();
        for (std::size_t i = 0; i < after.size(); ++i)
            ASSERT_EQ(after[i], oracle[i]);
    }
}

TEST(Reselect, ReplaceRowsServesFreshContent)
{
    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        registry.put("m", wl::genTridiagonal(96));
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        ASSERT_TRUE(session
                        .submit(serve::SpmvRequest{
                            "m", dyadicOperand(96, 2)})
                        .get()
                        .ok());

        fmt::CooMatrix repl(96, 96);
        repl.add(7, 0, Value(8));
        repl.add(7, 95, Value(0.5));
        repl.canonicalize();
        session.replaceRows("m", {7}, repl);

        const std::vector<Value> x = dyadicOperand(96, 2);
        const std::vector<Value> y =
            session.submit(serve::SpmvRequest{"m", x}).get().value();
        EXPECT_EQ(y[7], Value(8) * x[0] + Value(0.5) * x[95]);
        session.drain();
    }
}

TEST(PlanInvalidation, MutatedMatrixBitMatchesColdPlanRun)
{
    // Plan-cache correctness across mutations: after applyUpdates /
    // replaceRows, a parallel SpMV over the registry's (re-built,
    // fresh-plan-cache) encoding must bit-match a cold run over an
    // independently constructed encoding of the same content, at
    // every thread count. A stale partition plan (cuts balanced for
    // the pre-mutation structure but also any missed invalidation)
    // would split rows differently — with dyadic values any split
    // is exact, so only genuinely wrong plans (out-of-range cuts,
    // stale word ranks) can diverge, and those diverge loudly.
    const Index n = 192;
    serve::MatrixRegistry registry;
    registry.put("m", wl::genTridiagonal(n));
    const std::vector<Value> x = dyadicOperand(n, 4);

    std::uint64_t state = 99;
    registry.applyUpdates("m", wl::genScatterDeltas(n, n, 80, state++));
    fmt::CooMatrix repl(n, n);
    repl.add(11, 0, Value(4));
    repl.add(11, n - 1, Value(0.25));
    repl.canonicalize();
    registry.replaceRows("m", {11}, repl);

    // Warm the served encoding's plan cache at one thread count,
    // then check every count against cold-plan references.
    const serve::MatrixRegistry::EncodingPtr enc =
        registry.encoded("m");
    for (int threads : threadCounts()) {
        exec::ParallelExec pe(threads);
        std::vector<Value> warm(static_cast<std::size_t>(n),
                                Value(0));
        eng::spmv(enc->ref(), x, warm, pe); // builds + caches plan
        std::vector<Value> again(static_cast<std::size_t>(n),
                                 Value(0));
        eng::spmv(enc->ref(), x, again, pe); // served from the cache
        ASSERT_EQ(warm, again) << "threads " << threads;

        // Cold reference: a fresh encoding (fresh plan cache) of
        // the mutated master, same format.
        const eng::SparseMatrixAny cold = eng::SparseMatrixAny::fromCoo(
            registry.encodedAs("m", eng::Format::kCsr)
                ->as<fmt::CsrMatrix>()
                .toCoo(),
            registry.format("m"));
        std::vector<Value> reference(static_cast<std::size_t>(n),
                                     Value(0));
        eng::spmv(cold.ref(), x, reference, pe);
        ASSERT_EQ(warm, reference) << "threads " << threads;
    }
}

TEST(PlanInvalidation, AsyncReencodeSwapNeverServesStalePlans)
{
    // Drift a DIA matrix across the format boundary while serving
    // SpMVs: every result — before, during, and after the async
    // re-encode epoch swap — must bit-match the oracle of the fixed
    // post-drift content. The swap installs a fresh SparseMatrixAny
    // (fresh plan cache); a plan leaking across epochs would index
    // the wrong structure and diverge. Served requests compute
    // serially and never build plans, so parallel SpMVs over
    // snapshots of the served encoding keep the plans in play.
    const Index n = 256;
    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        ASSERT_EQ(registry.put("live", wl::genTridiagonal(n)),
                  eng::Format::kDia);
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);
        exec::ParallelExec pe(threads);
        const auto parallelSpmv = [&] {
            std::vector<Value> y(static_cast<std::size_t>(n), Value(0));
            eng::spmv(registry.encoded("live")->ref(),
                      dyadicOperand(n, 5), y, pe);
            return y;
        };
        parallelSpmv(); // caches a plan on the pre-drift encoding

        ASSERT_TRUE(session
                        .submit(serve::SpmvRequest{
                            "live", dyadicOperand(n, 5)})
                        .get()
                        .ok());

        std::uint64_t state = 31337;
        bool scheduled = false;
        for (int round = 0; round < 12 && !scheduled; ++round)
            scheduled =
                session
                    .applyUpdates("live", wl::genScatterDeltas(
                                              n, n, 64, state++))
                    .reencodeScheduled;
        ASSERT_TRUE(scheduled);

        std::vector<Value> oracle(static_cast<std::size_t>(n),
                                  Value(0));
        {
            sim::NativeExec e;
            eng::spmv(registry.encoded("live")->ref(),
                      dyadicOperand(n, 5), oracle, e);
        }
        ASSERT_EQ(parallelSpmv(), oracle) << "threads " << threads;
        // Serve across the in-flight swap.
        for (int i = 0; i < 20; ++i) {
            const std::vector<Value> got =
                session
                    .submit(serve::SpmvRequest{"live",
                                               dyadicOperand(n, 5)})
                    .get()
                    .value();
            ASSERT_EQ(got, oracle)
                << "request " << i << " threads " << threads;
            ASSERT_EQ(parallelSpmv(), oracle)
                << "parallel " << i << " threads " << threads;
        }
        ASSERT_TRUE(waitReencodeSettled(registry, "live"));
        session.drain();
        EXPECT_NE(registry.format("live"), eng::Format::kDia);
        // Post-swap: the fresh encoding's plans serve correctly.
        const std::vector<Value> after =
            session
                .submit(serve::SpmvRequest{"live",
                                           dyadicOperand(n, 5)})
                .get()
                .value();
        ASSERT_EQ(after, oracle) << "threads " << threads;
        ASSERT_EQ(parallelSpmv(), oracle) << "threads " << threads;
    }
}

TEST(Reselect, StaleSessionDestructionKeepsNewerSessionsHook)
{
    // Two sessions share a registry: the newer one owns the
    // re-encode hook. Destroying the older session must not detach
    // it — drift after the destruction still schedules through the
    // surviving session's pipeline.
    serve::MatrixRegistry registry;
    registry.put("live", wl::genTridiagonal(128));
    auto older = std::make_unique<serve::Session>(registry);
    serve::Session newer(registry);
    older.reset(); // must not clear `newer`'s hook

    std::uint64_t state = 5;
    bool scheduled = false;
    for (int round = 0; round < 12 && !scheduled; ++round)
        scheduled = registry
                        .applyUpdates("live", wl::genScatterDeltas(
                                                  128, 128, 64, state++))
                        .reencodeScheduled;
    ASSERT_TRUE(scheduled);
    ASSERT_TRUE(waitReencodeSettled(registry, "live"));
    EXPECT_EQ(registry.reselects("live"), 1u);
    // The re-encode went through the surviving session's pipeline,
    // not the synchronous no-hook fallback.
    EXPECT_EQ(newer.stats().reencodes.load(), 1u);
}

TEST(FormatProbe, CsrPicksAndSmallMatricesKeepTheRules)
{
    // A CSR pick is never probed, however large the matrix.
    const fmt::CooMatrix large = wideClustered(2048, 4, 1);
    ASSERT_GT(large.nnz(), eng::kProbeSampleNnz);
    const eng::FormatDecision csr = eng::confirmFormat(
        fmt::CsrMatrix::fromCoo(large), eng::Format::kCsr, {});
    EXPECT_EQ(csr.format, eng::Format::kCsr);
    EXPECT_EQ(csr.decidedBy, eng::DecidedBy::kRules);
    EXPECT_EQ(csr.csrNs, 0);
    EXPECT_EQ(csr.pickNs, 0);

    // At or below one probe sample the rules decide alone: the
    // kSmash pick comes back unchanged, with no probe recorded.
    const fmt::CooMatrix small = wideClustered(64, 4, 2);
    ASSERT_LE(small.nnz(), eng::kProbeSampleNnz);
    ASSERT_EQ(eng::chooseFormat(small), eng::Format::kSmash);
    const eng::FormatDecision rules = eng::confirmFormat(
        fmt::CsrMatrix::fromCoo(small), eng::Format::kSmash, {});
    EXPECT_EQ(rules.format, eng::Format::kSmash);
    EXPECT_EQ(rules.rulePick, eng::Format::kSmash);
    EXPECT_EQ(rules.decidedBy, eng::DecidedBy::kRules);
    EXPECT_EQ(rules.pickNs, 0);

    serve::MatrixRegistry registry;
    EXPECT_EQ(registry.put("probe_small", small), eng::Format::kSmash);
    EXPECT_EQ(registry.info("probe_small").decision.decidedBy,
              eng::DecidedBy::kRules);
    EXPECT_EQ(registry.registerSharded("probe_small_k2", small, 2),
              eng::Format::kSmash);
    EXPECT_EQ(registry.sharded("probe_small_k2")
                  ->shardInfo(1)
                  .decision.decidedBy,
              eng::DecidedBy::kRules);
    // An explicit format is the caller's, never probed.
    registry.put("probe_explicit", large, eng::Format::kSmash);
    EXPECT_EQ(registry.format("probe_explicit"), eng::Format::kSmash);
    EXPECT_EQ(registry.info("probe_explicit").decision.decidedBy,
              eng::DecidedBy::kCaller);
    const std::string text = metricsText();
    for (const char* name :
         {"probe_small\"", "probe_small_k2\"", "probe_explicit\""})
        EXPECT_EQ(text.find(std::string(
                      "smash_format_probe_ns{matrix=\"") + name),
                  std::string::npos)
            << name;
}

TEST(FormatProbe, ClusteredMatrixServesCsrBitIdentically)
{
    // 4096 rows x 4 blocks: every K=2 shard is still above the
    // probe floor, so each shard is probed on its own.
    const Index rows = 4096;
    const fmt::CooMatrix coo = wideClustered(rows, 4, 3);
    ASSERT_EQ(eng::chooseFormat(coo), eng::Format::kSmash);
    const std::vector<Value> x = dyadicOperand(coo.cols(), 6);
    const std::vector<Value> want =
        referenceSpmv(coo, eng::Format::kSmash, x);

    serve::MatrixRegistry registry;
    EXPECT_EQ(registry.put("probe_put", coo), eng::Format::kCsr);
    const eng::FormatDecision d = registry.info("probe_put").decision;
    EXPECT_EQ(d.decidedBy, eng::DecidedBy::kProbe);
    EXPECT_EQ(d.rulePick, eng::Format::kSmash);
    EXPECT_GT(d.csrNs, 0);
    EXPECT_GE(d.pickNs, eng::kProbeMargin * d.csrNs);
    EXPECT_GT(obs::MetricsRegistry::global()
                  .gauge("smash_format_probe_ns{matrix=\"probe_put\","
                         "shard=\"0\",format=\"smash\"}")
                  .value(),
              0);
    for (const Index k : {1, 2}) {
        const std::string name = "probe_k" + std::to_string(k);
        EXPECT_EQ(registry.registerSharded(name, coo, k),
                  eng::Format::kCsr);
        const auto sm = registry.sharded(name);
        for (Index i = 0; i < k; ++i) {
            const shard::ShardInfo info = sm->shardInfo(i);
            EXPECT_EQ(info.chosen, eng::Format::kCsr) << name;
            EXPECT_EQ(info.decision.decidedBy, eng::DecidedBy::kProbe);
            EXPECT_EQ(info.decision.rulePick, eng::Format::kSmash);
            EXPECT_GT(obs::MetricsRegistry::global()
                          .gauge("smash_format_probe_ns{matrix=\"" +
                                 name + "\",shard=\"" +
                                 std::to_string(i) +
                                 "\",format=\"csr\"}")
                          .value(),
                      0);
        }
    }

    // The served CSR answers are bit-identical to kSmash's.
    for (int threads : threadCounts()) {
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);
        for (const char* name : {"probe_put", "probe_k1", "probe_k2"}) {
            const std::vector<Value> got =
                session.submit(serve::SpmvRequest{name, x})
                    .get()
                    .value();
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(Value)),
                      0)
                << name << " threads " << threads;
        }
    }
}

TEST(FormatProbe, DriftTowardTheRulePickIsOverridden)
{
    // A probed-CSR entry drifts while staying clustered, so the
    // sticky rules propose kSmash again; the re-encode's probe keeps
    // CSR with no swap, no conversion and no reselect.
    const Index rows = 4096;
    const fmt::CooMatrix coo = wideClustered(rows, 4, 4);
    // One fresh, fully filled block per row: ~6% of nnz inserted,
    // past the 5% churn gate of both the matrix and each shard.
    fmt::CooMatrix deltas(rows, coo.cols());
    for (Index r = 0; r < rows; ++r)
        for (Index j = 0; j < 8; ++j)
            deltas.add(r, 8 * ((r * 37) % 4096) + j, Value(0.25));
    deltas.canonicalize();

    for (int threads : threadCounts()) {
        serve::MatrixRegistry registry;
        ASSERT_EQ(registry.put("drift_put", coo), eng::Format::kCsr);
        ASSERT_EQ(registry.registerSharded("drift_k2", coo, 2),
                  eng::Format::kCsr);
        serve::SessionOptions opts;
        opts.threads = threads;
        serve::Session session(registry, opts);

        for (const char* name : {"drift_put", "drift_k2"}) {
            const serve::MatrixInfo before = registry.info(name);
            const serve::UpdateOutcome out =
                session.applyUpdates(name, deltas);
            ASSERT_GT(out.stats.inserted, 0);
            EXPECT_TRUE(out.reencodeScheduled) << name;
            EXPECT_EQ(out.target, eng::Format::kSmash) << name;
            ASSERT_TRUE(waitReencodeSettled(registry, name));
            session.drain();

            const serve::MatrixInfo after = registry.info(name);
            EXPECT_FALSE(after.reencodePending);
            EXPECT_EQ(after.chosen, eng::Format::kCsr) << name;
            EXPECT_EQ(after.decision.decidedBy, eng::DecidedBy::kProbe);
            EXPECT_EQ(after.reselects, before.reselects) << name;
            EXPECT_EQ(after.conversions, before.conversions) << name;
            // The profile was rebased: one more insertion (column
            // 15 is offset 7 of a block, which the base pattern
            // never fills) is far below the churn gate again.
            fmt::CooMatrix one(rows, coo.cols());
            one.add(0, 15, Value(0.5));
            one.canonicalize();
            const serve::UpdateOutcome again =
                session.applyUpdates(name, one);
            EXPECT_EQ(again.stats.inserted, 1);
            EXPECT_FALSE(again.reencodeScheduled) << name;
        }
        EXPECT_EQ(session.stats().failed.load(), 0u);
    }
}

} // namespace
} // namespace smash
