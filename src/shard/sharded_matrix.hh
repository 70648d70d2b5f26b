/**
 * @file sharded_matrix.hh
 * ShardedMatrix: one logical matrix row-partitioned into K
 * independent sub-matrices.
 *
 * Each shard owns a full per-matrix stack of its own — a CSR master
 * slice (rows re-indexed to the shard, columns global), an
 * incremental StructureTracker, a §7.2.3 format decision with
 * chooseFormatSticky hysteresis (confirmed by the engine's timing
 * probe, eng::confirmFormat(), at construction and at every drift
 * re-encode), an encoded SparseMatrixAny (whose embedded PlanCache
 * is therefore per-shard), an epoch counter, and a CPU subset
 * derived from the NUMA topology probe (common/numa_topology.hh). A drifting matrix whose bands diverge
 * structurally — dense diagonals in one row band, scattered bits in
 * another — re-selects and re-encodes *per band* instead of
 * whole-matrix.
 *
 * Partitioning is nnz-balanced: cut points are chosen on the CSR
 * row-pointer prefix sums so every shard carries ~nnz/K entries
 * (each shard still gets at least one row). Because every row lands
 * in exactly one shard and every format computes a row's dot
 * product in ascending column order, scatter–gather SpMV over the
 * shards is bit-identical to the unsharded execution — regardless
 * of K, of the per-shard format choices, or of the thread count.
 *
 * NUMA placement: shard k maps to node (k mod nodes) and its CPU
 * subset; the shard's arrays are built (first-touched) on a thread
 * pinned to that subset. On a 1-node host the subsets degrade to a
 * round-robin split of the flat CPU list and placement is a no-op
 * by construction. Compute-time locality is approximate: the
 * scatter runs one pool chunk per shard, and the pool's sticky
 * chunk claiming + node-major worker pinning keep shard k on the
 * same worker (hence node) across requests.
 *
 * Threading: all entry points are thread-safe. Each shard has its
 * own mutex guarding its master/tracker/encoding; compute paths
 * grab the encoding shared_ptr and run unlocked (readers finish on
 * the epoch they hold while a re-encode swaps underneath, exactly
 * like serve::MatrixRegistry). Mutations lock only the shards their
 * deltas touch. Whole-matrix consistency (a mutation racing a
 * concat snapshot) is the caller's affair — serve::MatrixRegistry
 * serializes those on its slot lock.
 */

#ifndef SMASH_SHARD_SHARDED_MATRIX_HH
#define SMASH_SHARD_SHARDED_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/autoselect.hh"
#include "engine/matrix_any.hh"
#include "engine/mutate.hh"
#include "engine/profile.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smash::exec
{
class ThreadPool;
}

namespace smash::shard
{

/** Per-shard drift re-selection gate (mirrors serve::ReselectPolicy;
 *  duplicated here so shard/ does not depend on serve/). */
struct DriftPolicy
{
    bool enabled = true;
    double minChangedFraction = 0.05;
    Index minChanged = 16;
    double margin = 0.1;
};

/** Snapshot of one shard (stats, tests, tooling). */
struct ShardInfo
{
    Index rowBegin = 0;   //!< global first row (inclusive)
    Index rowEnd = 0;     //!< global last row (exclusive)
    Index nnz = 0;
    eng::Format chosen = eng::Format::kCsr;
    eng::FormatDecision decision; //!< why `chosen` (rules or probe)
    int node = 0;              //!< NUMA node the shard maps to
    std::vector<int> cpus;     //!< CPU subset used for first-touch
    std::uint64_t epoch = 0;   //!< bumped by every mutation landing here
    std::size_t conversions = 0;
    std::size_t reselects = 0;
    bool reencodePending = false;
};

/** Aggregated result of a mutation routed across shards. */
struct ShardMutationOutcome
{
    eng::MutationStats stats;       //!< summed over touched shards
    bool reencodeScheduled = false; //!< >= 1 shard crossed a boundary
    /** First newly-scheduled shard's target (kCsr when none). */
    eng::Format target = eng::Format::kCsr;
};

class ShardedMatrix
{
  public:
    using BuildOptions = eng::SparseMatrixAny::BuildOptions;
    using EncodingPtr = std::shared_ptr<const eng::SparseMatrixAny>;

    /**
     * Partition @p master into @p shards nnz-balanced row bands
     * (clamped to [1, rows]) and build each band's master slice,
     * profile, format choice (the rules' pick, confirmed by
     * eng::confirmFormat()), and initial encoding on a thread
     * pinned to the band's NUMA CPU subset (first-touch). @p name
     * labels the per-shard metrics.
     */
    ShardedMatrix(std::string name, const fmt::CsrMatrix& master,
                  Index shards, const BuildOptions& build = {});

    ShardedMatrix(const ShardedMatrix&) = delete;
    ShardedMatrix& operator=(const ShardedMatrix&) = delete;

    const std::string& name() const { return name_; }
    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const;
    Index shardCount() const
    {
        return static_cast<Index>(shards_.size());
    }

    /** Which shard owns global row @p row. */
    Index shardOfRow(Index row) const;

    ShardInfo shardInfo(Index shard) const;
    /** Every shard's current format, in shard order. */
    std::vector<eng::Format> shardFormats() const;
    /** Shard 0's format (the registry's "primary" for info()). */
    eng::Format primaryFormat() const;
    /** Shard @p shard's incremental §7.2.3 profile. */
    eng::StructureStats profile(Index shard) const;

    std::uint64_t epoch() const;      //!< summed shard epochs
    std::size_t conversions() const;  //!< summed over shards
    std::size_t reselects() const;    //!< summed over shards
    bool reencodePending() const;     //!< any shard pending

    /** Build any missing shard encoding (first touch converts). */
    void ensureEncoded();
    /** True when every shard's encoding is built. */
    bool allEncoded() const;

    /**
     * y += A x, scatter–gather over the shards: each shard computes
     * its row band into a local slice (first-touched by the worker
     * that computes it) which is then copied into the caller's y.
     * With a pool the shards fan out as one chunk each; without one
     * they run serially. Bit-identical to the unsharded engine call
     * for any K and thread count. @p y must hold rows() zeros (the
     * engine convention: callers own the accumulator).
     */
    void spmv(const std::vector<Value>& x, std::vector<Value>& y,
              exec::ThreadPool* pool) const;

    /**
     * Y += A X for a block of right-hand sides (one per column).
     * @p x needs only the logical height cols(); each shard pads to
     * its own format granularity internally. Serves both the
     * batched-SpMV and the dense-operand SpMM request paths.
     */
    void spmvBatch(const fmt::DenseMatrix& x, fmt::DenseMatrix& y,
                   exec::ThreadPool* pool) const;

    /**
     * this + @p other as canonical COO, computed per shard (each
     * shard merges its row band against the matching band of
     * @p other) and concatenated in row order — bit-identical to
     * the unsharded kern::spaddCsr merge. Shapes must match.
     */
    fmt::CooMatrix spadd(const fmt::CsrMatrix& other,
                         exec::ThreadPool* pool) const;

    /**
     * The whole-matrix CSR master, concatenated from the shard
     * slices. Row partitioning preserves entry order, so this is
     * bit-identical to the CSR the matrix was constructed from (as
     * mutated since). Used when a sharded matrix is the secondary
     * operand of an op that needs a monolithic view.
     */
    fmt::CsrMatrix toCsr() const;

    /**
     * Mutation API: deltas are routed to the shard that owns each
     * row; only touched shards lock, bump their epoch, drop their
     * encoding, and run the per-shard drift detector against
     * @p policy. The caller schedules runPendingReencodes() when
     * the outcome says a re-encode was crossed (the registry fires
     * its async hook).
     */
    ShardMutationOutcome applyUpdates(const fmt::CooMatrix& deltas,
                                      const DriftPolicy& policy);
    ShardMutationOutcome replaceRows(const std::vector<Index>& rows,
                                     const fmt::CooMatrix& replacement,
                                     const DriftPolicy& policy);
    ShardMutationOutcome scaleValues(Value factor);

    /**
     * Execute every pending per-shard re-encode: snapshot the shard
     * master, confirm the drift target with eng::confirmFormat(),
     * build it outside the lock, and swap it in if no mutation
     * intervened (epoch check + retries, like the registry's
     * whole-matrix path). A probe that keeps the current format
     * clears the pending flag and rebases the profile without a
     * swap. Returns the number of shards swapped.
     */
    int runPendingReencodes();

  private:
    struct Shard
    {
        Index rowBegin = 0;
        Index rowEnd = 0;
        int node = 0;
        std::vector<int> cpus;
        fmt::CsrMatrix master; //!< local rows [0, rowEnd-rowBegin)
        eng::StructureTracker profile;
        eng::FormatDecision decision; //!< format served, and why
        eng::Format pendingTarget = eng::Format::kCsr;
        EncodingPtr encoding; //!< null after a mutation invalidates
        std::uint64_t epoch = 0;
        std::size_t conversions = 0;
        std::size_t reselects = 0;
        bool reencodePending = false;
        mutable std::mutex mutex;
    };

    /** Find-or-build the shard's encoding; its mutex must be held. */
    EncodingPtr encodedLocked(Shard& sh) const;
    /** Grab (building if needed) the shard's current encoding. */
    EncodingPtr grabEncoding(Index shard) const;
    /** Shared mutation tail for one shard (mutex held): epoch bump,
     *  encoding drop, drift detection. */
    void finishShardMutation(Index shard, Shard& sh,
                             const eng::MutationStats& stats,
                             const DriftPolicy& policy,
                             ShardMutationOutcome& out);
    /** Run @p body for each shard index: one pool chunk per shard
     *  when @p pool is non-null, serially otherwise. */
    template <typename F>
    void forEachShard(exec::ThreadPool* pool, const F& body) const;
    void setFormatGauge(Index shard, eng::Format format) const;

    std::string name_;
    Index rows_ = 0;
    Index cols_ = 0;
    BuildOptions build_;
    std::vector<Index> cuts_; //!< K+1 row boundaries, cuts_[0] = 0
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace smash::shard

#endif // SMASH_SHARD_SHARDED_MATRIX_HH
