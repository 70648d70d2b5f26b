/**
 * @file sharded_matrix.hh
 * ShardedMatrix: the serving layer's one matrix stack — a logical
 * matrix row-partitioned into K independent sub-matrices. Every
 * serve::MatrixRegistry entry is one: put() registers K=1,
 * registerSharded() K>1.
 *
 * Each shard owns the whole per-matrix lifecycle — a CSR master
 * slice (rows re-indexed to the shard, columns global), a churn
 * counter of the structural changes since its last format decision,
 * a §7.2.3 format decision with chooseFormatSticky hysteresis
 * (profiled by one eng::analyzeStructure() pass over the slice at
 * construction and whenever the churn gate opens, and confirmed by
 * the engine's timing probe, eng::confirmFormat(), at construction
 * and at every drift re-encode), a lazily built SparseMatrixAny
 * encoding (whose
 * embedded PlanCache is therefore per-shard), an epoch counter,
 * and a CPU subset derived from the NUMA topology probe
 * (common/numa_topology.hh). A drifting matrix whose bands diverge
 * structurally — dense diagonals in one row band, scattered bits in
 * another — re-selects and re-encodes *per band* instead of
 * whole-matrix.
 *
 * Partitioning is nnz-balanced: cut points are chosen on the CSR
 * row-pointer prefix sums so every shard carries ~nnz/K entries
 * (each shard still gets at least one row). Every row lands in
 * exactly one shard, so a row's bits depend only on its shard's
 * format: over CSR and ELL shards, scatter–gather SpMV is
 * bit-identical to serial CSR regardless of K or of the thread
 * count. DIA, dense, BCSR and SMASH shards sum each row in their
 * own order, so their rows can differ from CSR's in the last bits
 * (inputs whose sums are exact in any order, such as dyadic
 * values, agree across every format mix).
 *
 * K=1 is the plain single-matrix path, at no extra cost: the master
 * moves into shard 0 without a slice, and SpMV runs the engine
 * straight into the caller's y (ParallelExec over the pool when one
 * is given). applyUpdates and scaleValues take the K>1 band loop
 * with one band; replaceRows applies the replacement as given.
 *
 * NUMA placement (K>1): shard k maps to node (k mod nodes) and its
 * CPU subset; the shard's slice and its first encoding are built
 * (first-touched) on a thread pinned to that subset. On a 1-node
 * host the subsets degrade to a round-robin split of the flat CPU
 * list and placement is a no-op by construction. Compute-time
 * locality holds only where a pool is passed (the benches and
 * tests): the scatter then runs one pool chunk per shard, and the
 * pool's sticky chunk claiming + node-major worker pinning keep
 * shard k on the same worker (hence node) across requests. The
 * serving pipeline passes no pool, so a served K>1 request runs its
 * shards serially on the compute worker that took it.
 *
 * Threading: all entry points are thread-safe. Each shard has its
 * own mutex guarding its master/churn/encoding; compute paths
 * grab the encoding shared_ptr and run unlocked (readers finish on
 * the epoch they hold while a re-encode swaps underneath). Mutations
 * lock only the shards their deltas touch. Whole-matrix consistency
 * (a mutation racing a concat snapshot) is the caller's affair —
 * serve::MatrixRegistry serializes those on its slot lock.
 */

#ifndef SMASH_SHARD_SHARDED_MATRIX_HH
#define SMASH_SHARD_SHARDED_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/autoselect.hh"
#include "engine/matrix_any.hh"
#include "engine/mutate.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smash::exec
{
class ThreadPool;
}

namespace smash::shard
{

/** Snapshot of one shard (stats, tests, tooling). */
struct ShardInfo
{
    Index rowBegin = 0;   //!< global first row (inclusive)
    Index rowEnd = 0;     //!< global last row (exclusive)
    Index nnz = 0;
    eng::Format chosen = eng::Format::kCsr;
    /** Why `chosen`: rules or probe, and the profile they read. */
    eng::FormatDecision decision;
    int node = 0;              //!< NUMA node the shard maps to
    std::vector<int> cpus;     //!< CPU subset used for first-touch
    std::uint64_t epoch = 0;   //!< bumped by every mutation landing here
    std::size_t conversions = 0;
    std::size_t reselects = 0;
    bool reencodePending = false;
};

/** What one mutation call changed and triggered. */
struct ShardMutationOutcome
{
    eng::MutationStats stats;       //!< summed over touched shards
    bool reencodeScheduled = false; //!< >= 1 shard crossed a boundary
    /** Where the matrix is headed: the first newly scheduled shard's
     *  rule target (its probe may still keep the current format);
     *  otherwise shard 0's pending target, or its current format
     *  when none is pending. */
    eng::Format target = eng::Format::kCsr;
};

class ShardedMatrix
{
  public:
    using BuildOptions = eng::SparseMatrixAny::BuildOptions;
    using EncodingPtr = std::shared_ptr<const eng::SparseMatrixAny>;

    /**
     * Partition @p master into @p shards nnz-balanced row bands
     * (clamped to [1, rows]) and give each band its master slice,
     * profile and format: @p format when given (decided by the
     * caller), else the rules' pick confirmed by
     * eng::confirmFormat(). No encoding is built yet (see
     * ensureEncoded()). K>1 slices on threads pinned to each band's
     * NUMA CPU subset; K=1 keeps @p master as shard 0 and works
     * inline. @p name labels the per-shard metrics.
     */
    ShardedMatrix(std::string name, fmt::CsrMatrix master,
                  Index shards, const BuildOptions& build = {},
                  std::optional<eng::Format> format = std::nullopt);

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
    /** The format of every shard encoding built right now, in
     *  shard order. */
    std::vector<eng::Format> cachedFormats() const;
    /** Shard 0's format (the registry's "primary" for info()). */
    eng::Format primaryFormat() const;
    /** Shard @p shard's §7.2.3 profile, computed now from its
     *  master (one linear pass). */
    eng::StructureStats profile(Index shard) const;

    std::uint64_t epoch() const;      //!< summed shard epochs
    std::size_t conversions() const;  //!< summed over shards
    std::size_t reselects() const;    //!< summed over shards
    bool reencodePending() const;     //!< any shard pending

    /** Build any missing shard encoding. A K>1 shard's first build
     *  runs on a thread pinned to its CPU subset; K=1 and rebuilds
     *  after a mutation run inline on the caller. A failed build
     *  throws here. */
    void ensureEncoded();

    /**
     * Shard @p shard's current encoding, converting on first use.
     * Null when @p format is given and the shard serves a
     * different one (checked under the lock of the fetch, so a
     * racing re-encode cannot hand back another format).
     */
    EncodingPtr shardEncoding(Index shard,
                              std::optional<eng::Format> format = {}) const;

    /**
     * y += A x. K=1 runs the engine straight into @p y; K>1
     * scatter–gathers: each shard computes its row band into a
     * local slice (first-touched by the worker that computes it)
     * which is then added into @p y. With a pool, K=1 uses
     * ParallelExec over it and K>1 fans the shards out as one chunk
     * each; without one everything runs serially. Bit-identical to
     * the unsharded engine call for any K and thread count. @p y
     * must hold rows() zeros (the engine convention: callers own
     * the accumulator).
     */
    void spmv(const std::vector<Value>& x, std::vector<Value>& y,
              exec::ThreadPool* pool) const;

    /**
     * Y += A X for a block of right-hand sides (one per column),
     * @p x at the logical height cols(). Each column runs the same
     * per-shard engine SpMV as spmv(), so column c of @p y is
     * spmv() of column c of @p x bit for bit. Serves the SpMM
     * request path.
     */
    void spmvBatch(const fmt::DenseMatrix& x, fmt::DenseMatrix& y,
                   exec::ThreadPool* pool) const;

    /**
     * The whole-matrix CSR master, concatenated from the shard
     * slices. Row partitioning preserves entry order, so this is
     * bit-identical to the CSR the matrix was constructed from (as
     * mutated since).
     */
    fmt::CsrMatrix toCsr() const;

    /** A whole-matrix encoding in @p format, built from the current
     *  content (shard 0's master itself for K=1, toCsr() else). */
    eng::SparseMatrixAny materialize(eng::Format format) const;

    /**
     * Mutation API: deltas are routed to the shard that owns each
     * row; only touched shards
     * lock, bump their epoch, drop their encoding, add their
     * structural changes to the band's churn, and run the drift
     * gate against @p policy: once the churn reaches
     * max(minChanged, minChangedFraction x band nnz), the band is
     * re-profiled and chooseFormatSticky() decides (a decision that
     * keeps the format restarts the churn). The caller schedules
     * runPendingReencodes() when the outcome says a re-encode was
     * crossed (the registry fires its async hook). @p deltas and
     * @p replacement must be canonical.
     */
    ShardMutationOutcome applyUpdates(const fmt::CooMatrix& deltas,
                                      const eng::ReselectPolicy& policy);
    ShardMutationOutcome replaceRows(const std::vector<Index>& rows,
                                     const fmt::CooMatrix& replacement,
                                     const eng::ReselectPolicy& policy);
    ShardMutationOutcome scaleValues(Value factor);

    /**
     * Execute every pending per-shard re-encode: snapshot the shard
     * master, confirm the drift target with eng::confirmFormat(),
     * build it outside the lock, and swap it in if no mutation
     * intervened (epoch check; a few retries chase a busy shard,
     * then the pending flag clears so later drift can re-trigger).
     * A probe that keeps the current format clears the pending flag
     * and restarts the churn without a swap. Returns the number of
     * shards swapped.
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
        /** Structural changes since the last format decision. */
        Index churn = 0;
        eng::FormatDecision decision; //!< format served, and why
        eng::Format pendingTarget = eng::Format::kCsr;
        /** The profile the drift gate read to pick pendingTarget. */
        eng::StructureStats pendingStats;
        EncodingPtr encoding; //!< null until built / after a mutation
        std::uint64_t epoch = 0;
        std::size_t conversions = 0;
        std::size_t reselects = 0;
        bool reencodePending = false;
        mutable std::mutex mutex;
    };

    /** Settle @p sh's format: explicit, or the rules' pick on a
     *  profile of its master, confirmed by the probe. */
    void settleFormat(Shard& sh, std::optional<eng::Format> format);
    /** Apply @p op (master) -> MutationStats to shard @p shard
     *  under its lock, then run the mutation tail: epoch bump,
     *  encoding drop, churn count, drift gate. */
    template <typename Op>
    void mutateShard(Index shard, const eng::ReselectPolicy& policy,
                     ShardMutationOutcome& out, const Op& op);
    /** Fill out.target when no shard newly scheduled a re-encode. */
    void settleTarget(ShardMutationOutcome& out) const;
    /** Run @p job(i) for every shard index in @p shards at once,
     *  each on a thread pinned to shard i's CPUs (first-touch
     *  placement); joins them all, then rethrows the first failure. */
    template <typename Job>
    void runPinned(const std::vector<Index>& shards,
                   const Job& job) const;
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
