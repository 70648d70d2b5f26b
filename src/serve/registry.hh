/**
 * @file
 * MatrixRegistry: the serving layer's owner of named, mutable
 * matrices.
 *
 * Every entry is one shard::ShardedMatrix — the single matrix stack
 * that owns the content (a canonical CSR master per row band), the
 * §7.2.3 format decision confirmed by timing it against CSR
 * (eng::confirmFormat()), the lazily built encodings, the drift
 * detector and the re-encode. put() registers a 1-shard stack,
 * registerSharded() a K-shard one; K=1 computes and mutates
 * exactly as a plain single matrix would. The first request (or
 * encoded() call) converts — the cost fig20 shows can dominate
 * short-running kernels — and later calls return the cached object.
 *
 * Served matrices drift. The mutation API (applyUpdates /
 * replaceRows / scaleValues) routes deltas into the stack, which
 * invalidates the touched encodings and adds each band's structural
 * changes to its churn count. When enough structure has changed
 * (ReselectPolicy::minChangedFraction), the band is re-profiled in
 * one pass over its CSR master; when that profile has crossed a
 * §7.2.3 format boundary *decisively* (chooseFormatSticky's
 * hysteresis margin), the registry schedules one re-encode: through
 * the installed hook when a serving pipeline is attached (async, on
 * the shared ThreadPool), inline otherwise. runReencode() runs the
 * stack's per-shard re-encodes (see
 * ShardedMatrix::runPendingReencodes()).
 *
 * Beside the stack, each entry caches whole-matrix encodings the
 * stack does not serve itself: encodedAs() in another format (e.g.
 * SpAdd's CSR view) and, for K>1, encoded() — both built from the
 * current content and dropped by every mutation that changes it.
 *
 * Ownership/threading contract: all entry points are thread-safe —
 * the name table and each slot are independently locked, and
 * mutations of one matrix serialize on its slot. encoded() returns
 * shared_ptr snapshots: a reader holds whatever epoch it fetched
 * for as long as it needs (in-flight requests keep computing on the
 * old encoding while a re-encode swaps the shard underneath), and
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
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/autoselect.hh"
#include "engine/matrix_any.hh"
#include "formats/coo_matrix.hh"
#include "shard/sharded_matrix.hh"

namespace smash::serve
{

/** When drift re-selection fires (one type for every entry). */
using ReselectPolicy = eng::ReselectPolicy;

/** Snapshot of one registered matrix (for stats and tooling). */
struct MatrixInfo
{
    eng::Format chosen;            //!< shard 0's current format
    /** Why `chosen`: caller, rules or probe, with the profile the
     *  rules read and the probe's ns/SpMV for CSR and for the
     *  rules' pick (shard 0's; see ShardedMatrix::shardInfo() for
     *  the other shards). */
    eng::FormatDecision decision;
    Index rows = 0;
    Index cols = 0;
    Index nnz = 0;
    std::size_t conversions = 0;   //!< encodings built so far
    std::size_t reselects = 0;     //!< drift-triggered format swaps
    std::uint64_t epoch = 0;       //!< summed shard mutation epochs
    bool reencodePending = false;  //!< a re-encode is scheduled
    /** Distinct formats currently encoded, shard encodings and
     *  whole-matrix encodings together. */
    std::vector<eng::Format> cached;
    Index shards = 1; //!< 1 for put() entries
};

/** What one mutation call changed and triggered (see
 *  shard::ShardMutationOutcome). */
using UpdateOutcome = shard::ShardMutationOutcome;

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
     * Register @p coo under @p name (must be unused) as a 1-shard
     * stack: its structure is analyzed once to choose the format,
     * confirmed by eng::confirmFormat(). The overloads taking
     * @p format keep the caller's format as given. The content is
     * canonicalized into the CSR master copy; no encoding is built
     * yet.
     * @return the chosen format
     */
    eng::Format put(const std::string& name, fmt::CooMatrix coo);
    eng::Format put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format);
    eng::Format put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format,
                    const eng::SparseMatrixAny::BuildOptions& build);

    /**
     * Register @p coo under @p name as a stack row-partitioned into
     * @p shards nnz-balanced bands, each with its own format
     * selection, plan cache, drift detector, and NUMA placement.
     * Requests take the scatter–gather paths transparently;
     * mutations route deltas to the owning shard, and drift
     * re-encodes run per shard. No encoding is built yet.
     * @return shard 0's format (the entry's "primary")
     */
    eng::Format registerSharded(const std::string& name,
                                fmt::CooMatrix coo, Index shards);
    eng::Format registerSharded(
        const std::string& name, fmt::CooMatrix coo, Index shards,
        const eng::SparseMatrixAny::BuildOptions& build);

    /** The entry's matrix stack (1 shard for put() entries). */
    std::shared_ptr<shard::ShardedMatrix>
    sharded(const std::string& name) const;

    bool contains(const std::string& name) const;
    Index rows(const std::string& name) const;
    Index cols(const std::string& name) const;

    /** Shard 0's current format (the registration-time choice
     *  until a drift-triggered re-encode swaps it). */
    eng::Format format(const std::string& name) const;

    /**
     * The primary encoding: the stack's own shard encoding for K=1,
     * a whole-matrix encoding in shard 0's format for K>1. Converts
     * on first use, cached until the next mutation or format swap.
     * The returned shared_ptr pins that epoch's object for as long
     * as the caller holds it.
     */
    EncodingPtr encoded(const std::string& name);

    /** Encoding in an explicit format (same caching contract). */
    EncodingPtr encodedAs(const std::string& name, eng::Format format);

    /**
     * Mutation API. Each call applies to the stack under the slot
     * lock (see ShardedMatrix::applyUpdates()), drops the
     * whole-matrix encodings when content changed, and fires the
     * re-encode hook when a shard's drift crossed a boundary;
     * results served afterwards reflect the new content.
     */
    UpdateOutcome applyUpdates(const std::string& name,
                               fmt::CooMatrix deltas);
    UpdateOutcome replaceRows(const std::string& name,
                              const std::vector<Index>& rows,
                              fmt::CooMatrix replacement);
    UpdateOutcome scaleValues(const std::string& name, Value factor);

    /** Shard 0's structural profile of its current content. */
    eng::StructureStats profile(const std::string& name) const;

    /**
     * Execute the pending re-encodes for @p name (no-op when none is
     * pending; see ShardedMatrix::runPendingReencodes()). This is
     * what the hook must eventually invoke; with no hook installed
     * the registry calls it inline from the mutating thread.
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
        explicit Slot(std::shared_ptr<shard::ShardedMatrix> m)
            : stack(std::move(m))
        {}
        /** The matrix itself; set once, so readable without a lock. */
        const std::shared_ptr<shard::ShardedMatrix> stack;
        /** Guards the cache below; held across a whole-matrix
         *  conversion so racing requests build each one exactly
         *  once, and across every mutation so none mixes epochs. */
        mutable std::mutex mutex;
        /** Whole-matrix encodings the stack does not serve itself
         *  (see the file comment). */
        std::map<eng::Format, EncodingPtr> encodings;
        std::size_t conversions = 0; //!< whole-matrix encodings built
    };

    Slot& slot(const std::string& name) const;
    /** Register @p coo as a @p shards-way stack (name unused). */
    eng::Format add(const std::string& name, fmt::CooMatrix coo,
                    Index shards,
                    const eng::SparseMatrixAny::BuildOptions& build,
                    std::optional<eng::Format> format);
    /** Encoding in @p format (shard 0's when unset): the stack's
     *  own for K=1 when the formats match, a whole-matrix one
     *  otherwise — built on a miss. */
    EncodingPtr lookup(Slot& s, std::optional<eng::Format> format);
    /** Run @p apply(stack, policy) under the slot lock, drop the
     *  whole-matrix encodings if content changed, and fire the
     *  re-encode hook when a shard scheduled one. */
    template <typename F>
    UpdateOutcome mutate(const std::string& name, const F& apply);
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
