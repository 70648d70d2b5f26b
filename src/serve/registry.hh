/**
 * @file
 * MatrixRegistry: the serving layer's owner of named, mutable
 * matrices.
 *
 * put() registers a matrix under a name, runs the engine's §7.2.3
 * structure analysis once to pick its primary format, confirms the
 * pick by timing it against CSR (eng::confirmFormat(): CSR replaces
 * a pick it beats by the probe margin), and keeps the content as a
 * canonical CSR *master copy*. Encodings are built lazily from the
 * master — the first encoded() call converts (the cost fig20 shows
 * can dominate short-running kernels) and later calls return the
 * cached object.
 *
 * Served matrices drift. The mutation API (applyUpdates /
 * replaceRows / scaleValues) applies deltas to the master,
 * invalidates every cached encoding (values changed), and feeds an
 * incremental StructureTracker. When enough structure has changed
 * (ReselectPolicy::minChangedFraction) and the profile has crossed
 * a §7.2.3 format boundary *decisively* (chooseFormatSticky's
 * hysteresis margin), the registry schedules one re-encode: through
 * the installed hook when a serving pipeline is attached (async, on
 * the shared ThreadPool), inline otherwise. runReencode() confirms
 * the target with the same probe, then builds the new encoding
 * from a snapshot and swaps it in atomically — or, when the probe
 * keeps the current format, clears the pending flag with no swap.
 *
 * Ownership/threading contract: all entry points are thread-safe —
 * the name table and each slot are independently locked, and
 * mutations of one matrix serialize on its slot. encoded() returns
 * shared_ptr snapshots: a reader holds whatever epoch it fetched
 * for as long as it needs (in-flight requests keep computing on the
 * old encoding while a re-encode swaps the slot underneath), and
 * the last holder frees it. The hook is invoked with no slot lock
 * held, but under the registry's hook lock — clearing the hook
 * therefore waits out in-flight invocations, so a scheduler being
 * destroyed (a dying Session's pool) can never be called into after
 * its clearReencodeHook() returns.
 */

#ifndef SMASH_SERVE_REGISTRY_HH
#define SMASH_SERVE_REGISTRY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/autoselect.hh"
#include "engine/matrix_any.hh"
#include "engine/profile.hh"
#include "formats/coo_matrix.hh"
#include "shard/sharded_matrix.hh"

namespace smash::serve
{

/** When drift re-selection fires (see MatrixRegistry). */
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

/** Snapshot of one registered matrix (for stats and tooling). */
struct MatrixInfo
{
    eng::Format chosen;            //!< current primary format
    /** Why `chosen`: caller, rules or probe, with the probe's
     *  ns/SpMV for CSR and for the rules' pick. */
    eng::FormatDecision decision;
    Index rows = 0;
    Index cols = 0;
    Index nnz = 0;
    std::size_t conversions = 0;   //!< encodings built so far
    std::size_t reselects = 0;     //!< drift-triggered format swaps
    std::uint64_t epoch = 0;       //!< bumped by every mutation
    bool reencodePending = false;  //!< a re-encode is scheduled
    std::vector<eng::Format> cached; //!< formats currently encoded
    /** Shard count for registerSharded() entries, 0 otherwise. For
     *  sharded entries `chosen` is shard 0's format and `cached`
     *  lists the distinct per-shard formats; `decision` is shard
     *  0's (see ShardedMatrix::shardInfo() for the rest). */
    Index shards = 0;
};

/** What one mutation call changed and triggered. */
struct UpdateOutcome
{
    eng::MutationStats stats;       //!< entry-level change counts
    bool reencodeScheduled = false; //!< this call crossed a boundary
    /** Format the matrix is headed for: the pending re-encode's
     *  rule target (its probe may still keep the current format),
     *  or the current primary when none is pending. */
    eng::Format target = eng::Format::kCsr;
};

/** Named-matrix store: cached encodings + drift-aware reselection. */
class MatrixRegistry
{
  public:
    /** Reader's handle on one encoding epoch. */
    using EncodingPtr = std::shared_ptr<const eng::SparseMatrixAny>;
    /** Re-encode scheduler: must eventually call runReencode(name)
     *  (the serving pipeline posts it onto the thread pool). */
    using ReencodeHook =
        std::function<void(const std::string& name, eng::Format target)>;

    MatrixRegistry() = default;
    MatrixRegistry(const MatrixRegistry&) = delete;
    MatrixRegistry& operator=(const MatrixRegistry&) = delete;

    /**
     * Register @p coo under @p name (must be unused) and analyze
     * its structure once to choose the primary format, confirmed by
     * eng::confirmFormat(). The overloads taking @p format keep the
     * caller's format as given. The content is canonicalized into
     * the CSR master copy; no encoding is built yet.
     * @return the chosen format
     */
    eng::Format put(const std::string& name, fmt::CooMatrix coo);
    eng::Format put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format);
    eng::Format put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format,
                    const eng::SparseMatrixAny::BuildOptions& build);

    /**
     * Register @p coo under @p name as a shard::ShardedMatrix
     * row-partitioned into @p shards nnz-balanced bands, each with
     * its own format selection, plan cache, drift detector, and
     * NUMA placement. Requests route to the sharded scatter–gather
     * paths transparently; mutations route deltas to the owning
     * shard, and drift re-encodes run per shard (through the same
     * async hook as whole-matrix re-encodes).
     * @return shard 0's format (the entry's "primary")
     */
    eng::Format registerSharded(const std::string& name,
                                fmt::CooMatrix coo, Index shards);
    eng::Format registerSharded(
        const std::string& name, fmt::CooMatrix coo, Index shards,
        const eng::SparseMatrixAny::BuildOptions& build);

    /** The entry's ShardedMatrix, or null when @p name was
     *  registered unsharded. */
    std::shared_ptr<shard::ShardedMatrix>
    sharded(const std::string& name) const;

    bool contains(const std::string& name) const;
    Index rows(const std::string& name) const;
    Index cols(const std::string& name) const;

    /** Current primary format (put()-time choice until a
     *  drift-triggered re-encode swaps it). */
    eng::Format format(const std::string& name) const;

    /**
     * The primary encoding; converts on first use, cached until the
     * next mutation or format swap. The returned shared_ptr pins
     * that epoch's object for as long as the caller holds it.
     */
    EncodingPtr encoded(const std::string& name);

    /** Encoding in an explicit format (same caching contract). */
    EncodingPtr encodedAs(const std::string& name, eng::Format format);

    /**
     * The primary encoding if (and only if) it is already built —
     * never converts; returns null on a cold slot. The serving
     * pipeline's fast path: a cached matrix skips the async
     * prepare hop entirely, so steady-state requests reach their
     * batcher inline, in submission order.
     */
    EncodingPtr encodedIfCached(const std::string& name);

    /** encodedIfCached() for an explicit format. */
    EncodingPtr encodedAsIfCached(const std::string& name,
                                  eng::Format format);

    /**
     * Mutation API. Each call applies to the CSR master under the
     * slot lock, invalidates the cached encodings, updates the
     * incremental profile, and runs the drift detector; results
     * served afterwards reflect the new content (the next encoded()
     * call rebuilds in the current format).
     */
    UpdateOutcome applyUpdates(const std::string& name,
                               fmt::CooMatrix deltas);
    UpdateOutcome replaceRows(const std::string& name,
                              const std::vector<Index>& rows,
                              fmt::CooMatrix replacement);
    UpdateOutcome scaleValues(const std::string& name, Value factor);

    /** Incrementally maintained structural profile. */
    eng::StructureStats profile(const std::string& name) const;

    /**
     * Execute the pending re-encode for @p name (no-op when none is
     * pending): snapshot the master, confirm the target with
     * eng::confirmFormat() (a probe that keeps the current format
     * clears the pending flag and rebases the profile, with no swap
     * and no conversion), build it outside the lock, and swap it in
     * atomically if no mutation intervened (retrying a few times
     * when one did). This is what the hook must eventually invoke;
     * with no hook installed the registry calls it inline from the
     * mutating thread.
     */
    void runReencode(const std::string& name);

    /**
     * Install (or clear, with nullptr) the re-encode scheduler.
     * serve::Session installs one that posts onto its pipeline.
     * @p owner tags the installation so clearReencodeHook() from a
     * stale owner cannot wipe a newer session's hook.
     */
    void setReencodeHook(ReencodeHook hook,
                         const void* owner = nullptr);

    /**
     * Clear the hook only if @p owner still owns it (a destroyed
     * session must not detach its successor's scheduler). Blocks
     * until any in-flight hook invocation has returned: after this
     * call, no mutation — however far past its drift detection —
     * can reach the owner's pipeline again.
     */
    void clearReencodeHook(const void* owner);

    /** Policy for every registered matrix (tunable at runtime). */
    void setReselectPolicy(const ReselectPolicy& policy);

    /** Conversions performed so far for @p name. */
    std::size_t conversions(const std::string& name) const;
    /** Drift-triggered format swaps completed so far. */
    std::size_t reselects(const std::string& name) const;

    MatrixInfo info(const std::string& name) const;
    std::vector<std::string> names() const;

  private:
    struct Slot
    {
        fmt::CsrMatrix master;     //!< canonical content, mutable
        /** Set for registerSharded() entries; the master above then
         *  stays empty (the shards own the content) and encodings
         *  in this map are whole-matrix materializations built from
         *  the concatenated shard slices (the secondary-operand
         *  path, e.g. SpAdd's CSR view). */
        std::shared_ptr<shard::ShardedMatrix> sharded;
        /** The served format and why; shard 0's for sharded entries. */
        eng::FormatDecision decision;
        eng::SparseMatrixAny::BuildOptions build;
        eng::StructureTracker profile;
        /** Guards everything above and below; held across a
         *  conversion so racing requests build each encoding
         *  exactly once, released while a re-encode builds. */
        mutable std::mutex mutex;
        std::map<eng::Format, EncodingPtr> encodings;
        std::size_t conversions = 0;
        std::size_t reselects = 0;
        std::uint64_t epoch = 0;
        bool reencodePending = false;
        eng::Format pendingTarget = eng::Format::kCsr;
    };

    Slot& slot(const std::string& name) const;
    /** Find-or-build one encoding; s.mutex must be held. */
    EncodingPtr encodedLocked(Slot& s, eng::Format format);
    /** Shared put() tail: build and insert one slot (name unused). */
    eng::Format insertSlot(const std::string& name,
                           fmt::CsrMatrix master,
                           eng::StructureTracker profile,
                           const eng::FormatDecision& decision,
                           const eng::SparseMatrixAny::BuildOptions&
                               build);
    /** Shared mutation tail: bump the epoch, drop stale encodings,
     *  and run the drift detector. Returns whether this call
     *  scheduled the re-encode — the caller fires it through
     *  fireReencode() after the slot lock is released. */
    bool finishMutation(Slot& s, bool structural, UpdateOutcome& out);
    /** The reselect policy as the shard layer's drift gate. */
    shard::DriftPolicy shardPolicy() const;
    /** Shared tail of the sharded mutation paths: fold the shard
     *  outcome into @p out and invalidate the slot's whole-matrix
     *  materializations (s.mutex must be held). Returns whether the
     *  caller must fire the re-encode hook. */
    bool finishShardedMutation(Slot& s,
                               const shard::ShardMutationOutcome& so,
                               UpdateOutcome& out);
    /** Dispatch one scheduled re-encode: through the installed hook
     *  (invoked under hook_mutex_, so clearReencodeHook() blocks
     *  until the invocation finishes — the hook target can never be
     *  torn down mid-call), inline otherwise. */
    void fireReencode(const std::string& name, eng::Format target);

    mutable std::mutex mutex_; //!< guards the name table + policy
    std::unordered_map<std::string, std::unique_ptr<Slot>> slots_;
    /** Guards the hook pair below and serializes hook invocation
     *  against install/clear: held while the hook runs, so a
     *  cleared hook has provably finished every invocation when
     *  clearReencodeHook() returns. */
    mutable std::mutex hook_mutex_;
    ReencodeHook hook_;
    const void* hookOwner_ = nullptr;
    ReselectPolicy policy_;
};

} // namespace smash::serve

#endif // SMASH_SERVE_REGISTRY_HH
