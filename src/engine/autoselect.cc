#include "engine/autoselect.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "engine/dispatch.hh"
#include "obs/metrics.hh"

namespace smash::eng
{

StructureStats
analyzeStructure(const fmt::CsrMatrix& m, Index block)
{
    SMASH_CHECK(block >= 1, "block must be positive");
    StructureStats s;
    s.rows = m.rows();
    s.cols = m.cols();
    s.nnz = m.nnz();
    s.localityBlock = block;
    if (s.rows == 0 || s.cols == 0 || s.nnz == 0)
        return s;

    const auto& rp = m.rowPtr();
    const auto& ci = m.colInd();
    const auto rowBegin = [&rp](Index r) {
        return static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
    };

    // Pre-pass: rows are column-sorted, so each row's first and last
    // entries bound its diagonals (col - row), and together they
    // bound the occupied range the bitmap has to cover.
    Index lo = s.cols;
    Index hi = -s.rows;
    for (Index r = 0; r < s.rows; ++r) {
        const std::size_t k0 = rowBegin(r);
        const std::size_t k1 = rowBegin(r + 1);
        if (k0 == k1)
            continue;
        lo = std::min(lo, Index(ci[k0]) - r);
        hi = std::max(hi, Index(ci[k1 - 1]) - r);
    }
    std::vector<std::uint64_t> diags(
        static_cast<std::size_t>((hi - lo) / 64 + 1), 0);

    s.density = static_cast<double>(s.nnz) /
        (static_cast<double>(s.rows) * static_cast<double>(s.cols));
    s.avgNnzPerRow = static_cast<double>(s.nnz) /
        static_cast<double>(s.rows);

    // Main pass, in row order (the variance sum depends on it): row
    // populations come from the row pointers, a row's touched
    // aligned column blocks (the NZA grid) are its runs of equal
    // col / block, and every entry marks its diagonal.
    double var = 0;
    Index blocks = 0;
    for (Index r = 0; r < s.rows; ++r) {
        const std::size_t k0 = rowBegin(r);
        const std::size_t k1 = rowBegin(r + 1);
        const auto pop = static_cast<Index>(k1 - k0);
        const double d = static_cast<double>(pop) - s.avgNnzPerRow;
        var += d * d;
        s.maxNnzPerRow = std::max(s.maxNnzPerRow, pop);
        Index block_end = 0; // first column past the current run's block
        for (std::size_t k = k0; k < k1; ++k) {
            const Index c = ci[k];
            if (c >= block_end) {
                ++blocks;
                block_end = (c / block + 1) * block;
            }
            const auto bit = static_cast<std::uint64_t>(c - r - lo);
            diags[bit / 64] |= std::uint64_t(1) << (bit % 64);
        }
    }
    var /= static_cast<double>(s.rows);
    s.rowCv = s.avgNnzPerRow > 0
        ? std::sqrt(var) / s.avgNnzPerRow
        : 0.0;

    // Every set bit is an occupied diagonal; its capacity is the
    // diagonal's length.
    Index diag_capacity = 0;
    for (std::size_t w = 0; w < diags.size(); ++w) {
        s.numDiagonals += std::popcount(diags[w]);
        for (std::uint64_t bits = diags[w]; bits != 0; bits &= bits - 1) {
            const Index off = lo + static_cast<Index>(w * 64) +
                std::countr_zero(bits);
            diag_capacity += off >= 0 ? std::min(s.rows, s.cols - off)
                                      : std::min(s.cols, s.rows + off);
        }
    }
    s.diagonalFill = static_cast<double>(s.nnz) /
        static_cast<double>(diag_capacity);

    s.blockLocality = static_cast<double>(s.nnz) /
        (static_cast<double>(blocks) * static_cast<double>(block));
    return s;
}

StructureStats
analyzeStructure(const fmt::CooMatrix& coo, Index block)
{
    return analyzeStructure(fmt::CsrMatrix::fromCoo(coo), block);
}

Format
chooseFormat(const StructureStats& s, const FormatBoundaries& b)
{
    if (s.nnz == 0)
        return Format::kCsr;
    if (s.density >= b.denseDensity)
        return Format::kDense;
    // Banded: the stored-diagonal capacity is close to the nnz and
    // there are few enough diagonals that DIA's padding stays small.
    const auto dia_cap = static_cast<Index>(
        static_cast<double>(std::max(b.diaMaxDiagonals, s.rows / 32)) *
        b.diaCapScale);
    if (s.numDiagonals > 0 && s.numDiagonals <= dia_cap &&
        s.diagonalFill >= b.diaFill) {
        return Format::kDia;
    }
    // Clustered: each fetched NZA block is at least half useful —
    // the regime where the paper's hierarchy wins (§7.2.3).
    if (s.blockLocality >= b.smashLocality)
        return Format::kSmash;
    // Uniform rows: fixed-width slabs waste little padding.
    if (s.rowCv <= b.ellRowCv &&
        s.maxNnzPerRow <=
            static_cast<Index>(b.ellMaxOverAvg * s.avgNnzPerRow + 1)) {
        return Format::kEll;
    }
    return Format::kCsr;
}

Format
chooseFormat(const StructureStats& s)
{
    return chooseFormat(s, FormatBoundaries());
}

Format
chooseFormatSticky(const StructureStats& s, Format current,
                   double margin)
{
    SMASH_CHECK(margin >= 0, "hysteresis margin must be non-negative");
    // Bias every boundary against movement: the current format's
    // thresholds loosen by the margin (easy to stay), every other
    // format's tighten (hard to enter). CSR, the fallback, has no
    // boundary of its own — tightening the others is what keeps a
    // CSR matrix CSR inside the band.
    FormatBoundaries b;
    const double toward = -margin; // loosen: keep the current format
    const double away = margin;    // tighten: block marginal entry
    b.denseDensity += current == Format::kDense ? toward : away;
    b.diaFill += current == Format::kDia ? toward : away;
    b.smashLocality += current == Format::kSmash ? toward : away;
    // ELL's boundaries are upper bounds (row CV, max/avg cap) and
    // DIA's diagonal count is a cap too, so their bias is
    // multiplicative and the signs flip: staying raises the cap,
    // entering from elsewhere lowers it.
    const double keep = 1.0 + margin;
    const double block = 1.0 - margin;
    b.ellRowCv *= current == Format::kEll ? keep : block;
    b.ellMaxOverAvg *= current == Format::kEll ? keep : block;
    // Scale the whole diagonal cap, not just the constant floor:
    // on large matrices the rows/32 half dominates, and an
    // unscaled cap would leave that boundary hysteresis-free.
    b.diaCapScale = current == Format::kDia ? keep : block;
    return chooseFormat(s, b);
}

Format
chooseFormat(const fmt::CooMatrix& coo)
{
    return chooseFormat(analyzeStructure(coo));
}

namespace
{

constexpr int kProbeReps = 3;

/** The contiguous middle row band of @p m holding about
 *  kProbeSampleNnz non-zeros (whole rows, so at least that many). */
fmt::CsrMatrix
probeBand(const fmt::CsrMatrix& m)
{
    const auto& rp = m.rowPtr();
    const auto lo =
        static_cast<fmt::CsrIndex>((m.nnz() - kProbeSampleNnz) / 2);
    const auto hi = static_cast<fmt::CsrIndex>(lo + kProbeSampleNnz);
    // Last row starting at or before lo, first boundary at or past hi.
    const auto rb = std::upper_bound(rp.begin(), rp.end(), lo) -
        rp.begin() - 1;
    const auto re = std::lower_bound(rp.begin(), rp.end(), hi) -
        rp.begin();
    return m.rowSlice(static_cast<Index>(rb), static_cast<Index>(re));
}

/**
 * Min ns over kProbeReps timed serial SpMVs of @p a after one warm
 * run. Stops after two timed reps when the min is already at or
 * past @p give_up_ns: the candidate has lost and more reps of a
 * slow format only lengthen the probe.
 */
double
minSpmvNs(const SparseMatrixAny& a, double give_up_ns)
{
    const std::vector<Value> x(static_cast<std::size_t>(a.ref().xLength()),
                               Value(1));
    std::vector<Value> y(static_cast<std::size_t>(a.ref().rows()));
    sim::NativeExec ne;
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep <= kProbeReps; ++rep) {
        std::fill(y.begin(), y.end(), Value(0));
        const auto t0 = std::chrono::steady_clock::now();
        spmv(a, x, y, ne);
        const std::chrono::duration<double, std::nano> ns =
            std::chrono::steady_clock::now() - t0;
        if (rep == 0)
            continue; // warm-up: caches, page faults
        best = std::min(best, ns.count());
        if (rep >= 2 && best >= give_up_ns)
            break;
    }
    return best;
}

} // namespace

const char*
toString(DecidedBy d)
{
    switch (d) {
    case DecidedBy::kCaller: return "caller";
    case DecidedBy::kRules: return "rules";
    case DecidedBy::kProbe: return "probe";
    }
    return "?";
}

FormatDecision
confirmFormat(const fmt::CsrMatrix& master, Format pick,
              const SparseMatrixAny::BuildOptions& build)
{
    FormatDecision d;
    d.format = pick;
    d.rulePick = pick;
    if (pick == Format::kCsr || master.nnz() <= kProbeSampleNnz)
        return d;
    // Candidates are the pick and CSR only: CSR is a copy of the
    // master that serving already keeps, and other formats built on
    // an arbitrary band (DIA, dense) can blow up memory.
    const fmt::CsrMatrix band = probeBand(master);
    d.decidedBy = DecidedBy::kProbe;
    d.csrNs = minSpmvNs(SparseMatrixAny::fromCsr(band, Format::kCsr,
                                                 build),
                        std::numeric_limits<double>::infinity());
    d.pickNs = minSpmvNs(SparseMatrixAny::fromCsr(band, pick, build),
                         kProbeMargin * d.csrNs);
    if (kProbeMargin * d.csrNs <= d.pickNs)
        d.format = Format::kCsr;
    return d;
}

void
publishProbe(const std::string& matrix, Index shard,
             const FormatDecision& decision)
{
    if (decision.decidedBy != DecidedBy::kProbe)
        return;
    const std::string prefix = "smash_format_probe_ns{matrix=\"" +
        matrix + "\",shard=\"" + std::to_string(shard) +
        "\",format=\"";
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    metrics.gauge(prefix + "csr\"}")
        .set(std::llround(decision.csrNs));
    metrics.gauge(prefix + toString(decision.rulePick) + "\"}")
        .set(std::llround(decision.pickNs));
}

SparseMatrixAny
encodeAuto(const fmt::CooMatrix& coo,
           const SparseMatrixAny::BuildOptions& opts)
{
    return SparseMatrixAny::fromCoo(coo, chooseFormat(coo), opts);
}

SparseMatrixAny
encodeAuto(const fmt::CooMatrix& coo)
{
    return encodeAuto(coo, SparseMatrixAny::BuildOptions());
}

} // namespace smash::eng
