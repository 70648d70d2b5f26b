/**
 * @file
 * Structure analysis and format auto-selection.
 *
 * analyzeStructure() computes the quantities the paper's format
 * discussion turns on — non-zeros per row (mean and skew),
 * diagonal coverage, density, and the locality of sparsity of
 * §7.2.3 (average fill of the touched fixed-size blocks) — and
 * chooseFormat() maps them to the format whose cost model they
 * favour. encodeAuto() is the one-call path from a canonical COO
 * matrix to an engine matrix in the chosen format.
 *
 * The rules model the paper's hardware, which has a BMU. The
 * serving layer therefore confirms their pick by measurement:
 * confirmFormat() times the pick against CSR on a sample row band
 * of the actual matrix and serves CSR when it is decisively faster
 * (OSKI/SMAT-style empirical selection). encodeAuto() and the
 * paper-figure benches keep the pure rules.
 *
 * Ownership/threading contract: free functions over borrowed
 * inputs, no shared state — safe to call concurrently (the probe
 * gauges are atomic metrics). For mutable served matrices,
 * chooseFormatSticky() adds the hysteresis the drift detector
 * needs, gated by a ReselectPolicy on the churn since the last
 * decision; the detector re-profiles only when that gate opens.
 */

#ifndef SMASH_ENGINE_AUTOSELECT_HH
#define SMASH_ENGINE_AUTOSELECT_HH

#include <string>

#include "engine/matrix_any.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"

namespace smash::eng
{

/** Structural profile of a sparse matrix (see analyzeStructure). */
struct StructureStats
{
    Index rows = 0;
    Index cols = 0;
    Index nnz = 0;
    double density = 0;       //!< nnz / (rows * cols)
    double avgNnzPerRow = 0;  //!< nnz / rows
    double rowCv = 0;         //!< row-population coefficient of variation
    Index maxNnzPerRow = 0;
    Index numDiagonals = 0;   //!< distinct occupied diagonals
    double diagonalFill = 0;  //!< nnz / occupied diagonal capacity
    double blockLocality = 0; //!< §7.2.3: avg fill of touched blocks
    Index localityBlock = 0;  //!< block size blockLocality refers to
};

/**
 * One linear pass over a CSR matrix, with no hash table: row
 * populations come from the row pointers, touched blocks are runs
 * of equal col / @p block within each sorted row, and occupied
 * diagonals are bits of one transient bitmap sized to their range
 * (its only heap allocation). @p block is the aligned row-segment
 * size used for the locality-of-sparsity measure (the paper sweeps
 * NZA block sizes; 8 matches the default SMASH hierarchy). Stored
 * explicit zeros count as entries.
 */
StructureStats analyzeStructure(const fmt::CsrMatrix& m,
                                Index block = 8);

/** analyzeStructure() of a canonical COO matrix (converted to CSR
 *  first). */
StructureStats analyzeStructure(const fmt::CooMatrix& coo,
                                Index block = 8);

/**
 * The §7.2.3-style decision boundaries of chooseFormat(). The
 * defaults reproduce the original fixed rules; the drift detector
 * biases copies of them to build a hysteresis band (see
 * chooseFormatSticky()).
 */
struct FormatBoundaries
{
    double denseDensity = 0.4;  //!< density at/above: dense
    double diaFill = 0.5;       //!< diagonal fill at/above: DIA
    Index diaMaxDiagonals = 16; //!< max(this, rows/32) diagonals cap
    /** Scale on the whole diagonal cap (including its rows/32
     *  half) — the hysteresis lever for large matrices, where the
     *  dynamic half dominates the constant floor. */
    double diaCapScale = 1.0;
    double smashLocality = 0.5; //!< block locality at/above: SMASH
    double ellRowCv = 0.25;     //!< row CV at/below: ELL eligible
    double ellMaxOverAvg = 2.0; //!< max/avg row population cap (ELL)
};

/**
 * Pick the format the profile favours. Rules, in order:
 *   1. density >= 0.4                      -> dense (indexing is waste)
 *   2. few diagonals, well filled          -> DIA (banded systems)
 *   3. blockLocality >= 0.5                -> SMASH (paper §7.2.3:
 *      clustered non-zeros amortize each fetched block)
 *   4. uniform row populations             -> ELL (no row_ptr walk,
 *      bounded padding)
 *   5. otherwise                           -> CSR (the general default)
 */
Format chooseFormat(const StructureStats& stats);

/** chooseFormat() against explicit boundaries. */
Format chooseFormat(const StructureStats& stats,
                    const FormatBoundaries& bounds);

/**
 * Drift-aware re-selection with hysteresis: returns the format the
 * profile favours, but biases every boundary by @p margin in favour
 * of @p current — leaving the current format requires beating the
 * §7.2.3 thresholds decisively, not grazing them. A profile sitting
 * inside the hysteresis band keeps @p current, which is what stops
 * an oscillating workload from re-encoding on every update burst.
 */
Format chooseFormatSticky(const StructureStats& stats, Format current,
                          double margin);

/** When a served matrix's drift re-selection fires: the churn gate
 *  in front of chooseFormatSticky(), and its margin. */
struct ReselectPolicy
{
    bool enabled = true;
    /** Structural changes since the last baseline, as a fraction of
     *  the current nnz, before the profile is even re-examined. */
    double minChangedFraction = 0.05;
    Index minChanged = 16; //!< absolute floor on that change count
    /** Hysteresis band on the §7.2.3 boundaries: leaving the
     *  current format must beat them by this margin. */
    double margin = 0.1;
};

/** analyzeStructure + chooseFormat. */
Format chooseFormat(const fmt::CooMatrix& coo);

/** Encode @p coo in the auto-selected format. */
SparseMatrixAny encodeAuto(const fmt::CooMatrix& coo,
                           const SparseMatrixAny::BuildOptions& opts);
SparseMatrixAny encodeAuto(const fmt::CooMatrix& coo);

/** Matrices at or below this many non-zeros skip the probe, and
 *  larger ones are timed on a middle row band of about this size. */
inline constexpr Index kProbeSampleNnz = Index(1) << 15;
/** CSR replaces the rule pick only when it is at least this many
 *  times faster on the sample band. */
inline constexpr double kProbeMargin = 2.0;

/** What settled a served matrix's format. */
enum class DecidedBy
{
    kCaller, //!< registered with an explicit format
    kRules,  //!< the §7.2.3 rules alone (no probe ran)
    kProbe,  //!< the rules' pick, confirmed or overridden by timing
};

const char* toString(DecidedBy d);

/** A served format and why it was chosen (see confirmFormat()). */
struct FormatDecision
{
    Format format = Format::kCsr;   //!< the format to serve
    Format rulePick = Format::kCsr; //!< what the rules chose
    DecidedBy decidedBy = DecidedBy::kRules;
    /** Probe timings, ns per serial SpMV on the sample band (min of
     *  the timed reps); 0 unless decidedBy is kProbe. */
    double csrNs = 0;
    double pickNs = 0;
    /** The profile the rules read for this decision: at
     *  registration, or at the latest drift check that kept or
     *  moved the format. All zero when the caller chose the format
     *  and no drift check has run since. */
    StructureStats stats;
};

/**
 * Confirm the rules' @p pick for @p master by measurement. The pick
 * comes back untouched when it is already kCsr or when @p master
 * holds at most kProbeSampleNnz non-zeros. Otherwise CSR and the
 * pick (built with @p build) are encoded on a contiguous middle row
 * band of ~kProbeSampleNnz non-zeros, each timed for one warm and
 * three serial NativeExec SpMVs (min taken; the pick stops after
 * two timed reps when both already miss the margin), and kCsr wins
 * only when it is at least kProbeMargin times faster. Only the
 * band is encoded here: the caller still builds the served
 * encoding from the full master, so results are unchanged.
 */
FormatDecision confirmFormat(const fmt::CsrMatrix& master, Format pick,
                             const SparseMatrixAny::BuildOptions& build);

/**
 * Publish a probe's timings as the gauges
 * smash_format_probe_ns{matrix,shard,format} (one per candidate).
 * No-op unless @p decision.decidedBy is kProbe.
 */
void publishProbe(const std::string& matrix, Index shard,
                  const FormatDecision& decision);

} // namespace smash::eng

#endif // SMASH_ENGINE_AUTOSELECT_HH
