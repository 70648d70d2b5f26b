#include "serve/registry.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "engine/autoselect.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace smash::serve
{

eng::Format
MatrixRegistry::insertSlot(const std::string& name,
                           fmt::CsrMatrix master,
                           eng::StructureTracker profile,
                           const eng::FormatDecision& decision,
                           const eng::SparseMatrixAny::BuildOptions&
                               build)
{
    auto slot = std::make_unique<Slot>();
    slot->master = std::move(master);
    slot->profile = std::move(profile);
    slot->decision = decision;
    slot->pendingTarget = decision.format;
    slot->build = build;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const bool inserted =
            slots_.emplace(name, std::move(slot)).second;
        SMASH_CHECK(inserted, "registry already holds a matrix named '",
                    name, "'");
    }
    eng::publishProbe(name, 0, decision);
    return decision.format;
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    // §7.2.3-style structure analysis, run exactly once per matrix
    // (the tracker's one-pass scan doubles as the initial profile),
    // and its pick confirmed by timing it against CSR.
    fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    eng::StructureTracker profile(master);
    const eng::SparseMatrixAny::BuildOptions build;
    const eng::FormatDecision decision = eng::confirmFormat(
        master, eng::chooseFormat(profile.stats()), build);
    return insertSlot(name, std::move(master), std::move(profile),
                      decision, build);
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format)
{
    return put(name, std::move(coo), format,
               eng::SparseMatrixAny::BuildOptions());
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format,
                    const eng::SparseMatrixAny::BuildOptions& build)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    eng::StructureTracker profile(master);
    return insertSlot(name, std::move(master), std::move(profile),
                      {format, format, eng::DecidedBy::kCaller}, build);
}

eng::Format
MatrixRegistry::registerSharded(const std::string& name,
                                fmt::CooMatrix coo, Index shards)
{
    return registerSharded(name, std::move(coo), shards,
                           eng::SparseMatrixAny::BuildOptions());
}

eng::Format
MatrixRegistry::registerSharded(
    const std::string& name, fmt::CooMatrix coo, Index shards,
    const eng::SparseMatrixAny::BuildOptions& build)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    const fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    auto slot = std::make_unique<Slot>();
    // The ShardedMatrix owns the content (per-shard masters,
    // profiles, format choices, encodings); the slot's own master
    // stays empty and its encodings map only caches whole-matrix
    // materializations.
    slot->sharded = std::make_shared<shard::ShardedMatrix>(
        name, master, shards, build);
    slot->decision = slot->sharded->shardInfo(0).decision;
    slot->pendingTarget = slot->decision.format;
    slot->build = build;
    const eng::Format chosen = slot->decision.format;
    std::lock_guard<std::mutex> lock(mutex_);
    const bool inserted =
        slots_.emplace(name, std::move(slot)).second;
    SMASH_CHECK(inserted, "registry already holds a matrix named '",
                name, "'");
    return chosen;
}

std::shared_ptr<shard::ShardedMatrix>
MatrixRegistry::sharded(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sharded;
}

bool
MatrixRegistry::contains(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.count(name) != 0;
}

MatrixRegistry::Slot&
MatrixRegistry::slot(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(name);
    SMASH_CHECK(it != slots_.end(), "registry has no matrix named '",
                name, "'");
    return *it->second;
}

Index
MatrixRegistry::rows(const std::string& name) const
{
    // The master is mutable now: even shape reads take the slot
    // lock (adopt() move-assigns the whole CsrMatrix).
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sharded ? s.sharded->rows() : s.master.rows();
}

Index
MatrixRegistry::cols(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sharded ? s.sharded->cols() : s.master.cols();
}

eng::Format
MatrixRegistry::format(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sharded ? s.sharded->primaryFormat() : s.decision.format;
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedLocked(Slot& s, eng::Format format)
{
    auto it = s.encodings.find(format);
    if (it == s.encodings.end()) {
        // Sharded entries build whole-matrix views from the
        // concatenated shard slices (bit-identical to the content
        // the matrix was registered with, as mutated since); these
        // serve ops that need a monolithic operand, e.g. SpAdd.
        const fmt::CsrMatrix source =
            s.sharded ? s.sharded->toCsr() : fmt::CsrMatrix();
        it = s.encodings
                 .emplace(format,
                          std::make_shared<const eng::SparseMatrixAny>(
                              eng::SparseMatrixAny::fromCsr(
                                  s.sharded ? source : s.master,
                                  format, s.build)))
                 .first;
        ++s.conversions;
    }
    return it->second;
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encoded(const std::string& name)
{
    // Resolve the current format and the encoding under one
    // critical section: reading chosen, dropping the lock, and
    // re-locking would let a concurrent re-encode swap land in
    // between — and this call would then rebuild and cache the
    // just-retired format.
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return encodedLocked(s, s.decision.format);
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedAs(const std::string& name, eng::Format format)
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return encodedLocked(s, format);
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedIfCached(const std::string& name)
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.encodings.find(s.decision.format);
    return it != s.encodings.end() ? it->second : nullptr;
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedAsIfCached(const std::string& name,
                                  eng::Format format)
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.encodings.find(format);
    return it != s.encodings.end() ? it->second : nullptr;
}

bool
MatrixRegistry::finishMutation(Slot& s, bool structural,
                               UpdateOutcome& out)
{
    out.target = s.reencodePending ? s.pendingTarget : s.decision.format;
    if (out.stats.inserted + out.stats.removed + out.stats.updated ==
        0) {
        // Nothing changed (empty deltas, scale by 1): keep the
        // cached encodings — invalidation would force a pointless
        // reconversion (the fig20 cost) on the next request.
        return false;
    }
    // Values changed: every cached encoding is stale. In-flight
    // readers keep their shared_ptr epochs; the next encoded() call
    // rebuilds from the new master.
    ++s.epoch;
    s.encodings.clear();
    if (!structural)
        return false; // value-only change cannot move a boundary

    ReselectPolicy policy;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        policy = policy_;
    }
    if (!policy.enabled || s.reencodePending)
        return false;
    // Cheap gate first: don't even snapshot the profile until the
    // accumulated structural churn is worth a decision.
    const Index changed = s.profile.changedSinceRebase();
    const Index need = std::max(
        policy.minChanged,
        static_cast<Index>(policy.minChangedFraction *
                           static_cast<double>(
                               std::max<Index>(1, s.profile.nnz()))));
    if (changed < need)
        return false;
    const eng::Format target = eng::chooseFormatSticky(
        s.profile.stats(), s.decision.format, policy.margin);
    if (target == s.decision.format) {
        // Inside the hysteresis band: stay put, and restart the
        // drift accumulation so the next check needs fresh churn.
        s.profile.rebase();
        return false;
    }
    s.reencodePending = true;
    s.pendingTarget = target;
    out.reencodeScheduled = true;
    out.target = target;
    return true;
}

shard::DriftPolicy
MatrixRegistry::shardPolicy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    shard::DriftPolicy policy;
    policy.enabled = policy_.enabled;
    policy.minChangedFraction = policy_.minChangedFraction;
    policy.minChanged = policy_.minChanged;
    policy.margin = policy_.margin;
    return policy;
}

bool
MatrixRegistry::finishShardedMutation(
    Slot& s, const shard::ShardMutationOutcome& so,
    UpdateOutcome& out)
{
    out.stats = so.stats;
    out.reencodeScheduled = so.reencodeScheduled;
    out.target = so.reencodeScheduled ? so.target : s.decision.format;
    if (so.stats.inserted + so.stats.removed + so.stats.updated >
        0) {
        // The shards already invalidated their own encodings; drop
        // the slot's whole-matrix materializations too.
        ++s.epoch;
        s.encodings.clear();
    }
    return so.reencodeScheduled;
}

void
MatrixRegistry::fireReencode(const std::string& name,
                             eng::Format target)
{
    {
        // Invoke the scheduler under the hook lock: a session
        // tearing down blocks in clearReencodeHook() until this
        // call returns, so the hook can never post onto a pool
        // whose teardown has already been allowed to proceed. The
        // hook body is cheap (it posts one task), so the critical
        // section is short.
        std::lock_guard<std::mutex> lock(hook_mutex_);
        if (hook_) {
            hook_(name, target);
            return;
        }
    }
    // No scheduler attached: re-encode synchronously on the
    // mutating thread (standalone registry use).
    runReencode(name);
}

UpdateOutcome
MatrixRegistry::applyUpdates(const std::string& name,
                             fmt::CooMatrix deltas)
{
    if (!deltas.isCanonical())
        deltas.canonicalize();
    Slot& s = slot(name);
    UpdateOutcome out;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.sharded) {
            fire = finishShardedMutation(
                s, s.sharded->applyUpdates(deltas, shardPolicy()),
                out);
        } else {
            eng::StructureTracker& tracker = s.profile;
            out.stats = eng::applyUpdates(
                s.master, deltas,
                [&tracker](Index r, Index c, bool inserted) {
                    tracker.onStructureChange(r, c, inserted);
                });
            fire =
                finishMutation(s, out.stats.structural() > 0, out);
        }
    }
    if (fire)
        fireReencode(name, out.target);
    return out;
}

UpdateOutcome
MatrixRegistry::replaceRows(const std::string& name,
                            const std::vector<Index>& rows,
                            fmt::CooMatrix replacement)
{
    if (!replacement.isCanonical())
        replacement.canonicalize();
    Slot& s = slot(name);
    UpdateOutcome out;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.sharded) {
            fire = finishShardedMutation(
                s,
                s.sharded->replaceRows(rows, replacement,
                                       shardPolicy()),
                out);
        } else {
            eng::StructureTracker& tracker = s.profile;
            out.stats = eng::replaceRows(
                s.master, rows, replacement,
                [&tracker](Index r, Index c, bool inserted) {
                    tracker.onStructureChange(r, c, inserted);
                });
            fire =
                finishMutation(s, out.stats.structural() > 0, out);
        }
    }
    if (fire)
        fireReencode(name, out.target);
    return out;
}

UpdateOutcome
MatrixRegistry::scaleValues(const std::string& name, Value factor)
{
    Slot& s = slot(name);
    UpdateOutcome out;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.sharded) {
            finishShardedMutation(s, s.sharded->scaleValues(factor),
                                  out);
        } else {
            out.stats = eng::scaleValues(s.master, factor);
            finishMutation(s, false, out);
        }
    }
    return out;
}

eng::StructureStats
MatrixRegistry::profile(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    // Sharded entries profile per band; shard 0 stands in for the
    // whole-matrix view (use sharded()->profile(k) for the rest).
    return s.sharded ? s.sharded->profile(0) : s.profile.stats();
}

void
MatrixRegistry::runReencode(const std::string& name)
{
    Slot& s = slot(name);
    {
        // Sharded entries re-encode per shard: only the bands whose
        // drift crossed a boundary rebuild, each under its own
        // epoch check.
        std::shared_ptr<shard::ShardedMatrix> sharded;
        {
            std::lock_guard<std::mutex> lock(s.mutex);
            sharded = s.sharded;
        }
        if (sharded) {
            sharded->runPendingReencodes();
            const eng::FormatDecision primary =
                sharded->shardInfo(0).decision;
            std::lock_guard<std::mutex> lock(s.mutex);
            s.decision = primary;
            return;
        }
    }
    // A mutation may land while the new encoding builds (the build
    // runs with no lock held, so serving and updates continue). The
    // epoch check detects that; a few retries chase a busy matrix,
    // after which the pending flag clears so a later mutation can
    // re-trigger the reselection.
    for (int attempt = 0; attempt < 4; ++attempt) {
        fmt::CsrMatrix snapshot;
        eng::Format current;
        eng::Format target;
        eng::SparseMatrixAny::BuildOptions build;
        std::uint64_t epoch;
        {
            std::lock_guard<std::mutex> lock(s.mutex);
            if (!s.reencodePending)
                return;
            snapshot = s.master;
            current = s.decision.format;
            target = s.pendingTarget;
            build = s.build;
            epoch = s.epoch;
        }
        // Confirm the rules' target by timing before paying for its
        // build. A probe that keeps the current format (a matrix the
        // probe moved to CSR, which the sticky rules would send back
        // to their pick) ends the re-encode: no swap, no conversion,
        // and the drift gate starts over.
        const eng::FormatDecision decision =
            eng::confirmFormat(snapshot, target, build);
        eng::publishProbe(name, 0, decision);
        if (decision.format == current) {
            std::lock_guard<std::mutex> lock(s.mutex);
            s.decision = decision;
            s.reencodePending = false;
            s.profile.rebase();
            return;
        }
        auto built = std::make_shared<const eng::SparseMatrixAny>(
            eng::SparseMatrixAny::fromCsr(snapshot, decision.format,
                                          build));
        {
            std::lock_guard<std::mutex> lock(s.mutex);
            if (s.epoch != epoch)
                continue; // master moved underneath: rebuild
            // Atomic swap: the new epoch becomes the primary; any
            // reader still holding the old shared_ptr finishes on
            // the old encoding.
            s.decision = decision;
            s.encodings.clear();
            s.encodings.emplace(decision.format, std::move(built));
            ++s.conversions;
            ++s.reselects;
            s.reencodePending = false;
            s.profile.rebase();
            static obs::Counter& swaps =
                obs::MetricsRegistry::global().counter(
                    "smash_registry_epoch_swaps_total");
            swaps.inc();
            SMASH_TRACE_EVENT(obs::EventKind::kEpochSwap,
                              static_cast<std::uint32_t>(
                                  decision.format));
            return;
        }
    }
    std::lock_guard<std::mutex> lock(s.mutex);
    s.reencodePending = false;
}

void
MatrixRegistry::setReencodeHook(ReencodeHook hook, const void* owner)
{
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_ = std::move(hook);
    hookOwner_ = hook_ ? owner : nullptr;
}

void
MatrixRegistry::clearReencodeHook(const void* owner)
{
    // Taking hook_mutex_ waits out any in-flight fireReencode()
    // invocation: when this returns, the owner's scheduler has
    // provably been called for the last time.
    std::lock_guard<std::mutex> lock(hook_mutex_);
    if (hookOwner_ != owner)
        return; // a newer owner installed its own hook: keep it
    hook_ = nullptr;
    hookOwner_ = nullptr;
}

void
MatrixRegistry::setReselectPolicy(const ReselectPolicy& policy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    policy_ = policy;
}

std::size_t
MatrixRegistry::conversions(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sharded ? s.conversions + s.sharded->conversions()
                     : s.conversions;
}

std::size_t
MatrixRegistry::reselects(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.sharded ? s.reselects + s.sharded->reselects()
                     : s.reselects;
}

MatrixInfo
MatrixRegistry::info(const std::string& name) const
{
    Slot& s = slot(name);
    std::lock_guard<std::mutex> lock(s.mutex);
    MatrixInfo out;
    if (s.sharded) {
        const shard::ShardInfo primary = s.sharded->shardInfo(0);
        out.chosen = primary.chosen;
        out.decision = primary.decision;
        out.rows = s.sharded->rows();
        out.cols = s.sharded->cols();
        out.nnz = s.sharded->nnz();
        out.conversions = s.conversions + s.sharded->conversions();
        out.reselects = s.reselects + s.sharded->reselects();
        out.epoch = s.epoch;
        out.reencodePending = s.sharded->reencodePending();
        out.shards = s.sharded->shardCount();
        // The distinct formats currently live across the shards.
        std::vector<eng::Format> formats = s.sharded->shardFormats();
        std::sort(formats.begin(), formats.end());
        formats.erase(std::unique(formats.begin(), formats.end()),
                      formats.end());
        out.cached = std::move(formats);
        return out;
    }
    out.chosen = s.decision.format;
    out.decision = s.decision;
    out.rows = s.master.rows();
    out.cols = s.master.cols();
    out.nnz = s.master.nnz();
    out.conversions = s.conversions;
    out.reselects = s.reselects;
    out.epoch = s.epoch;
    out.reencodePending = s.reencodePending;
    out.cached.reserve(s.encodings.size());
    for (const auto& [format, encoding] : s.encodings)
        out.cached.push_back(format);
    return out;
}

std::vector<std::string>
MatrixRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(slots_.size());
    for (const auto& [name, slot] : slots_)
        out.push_back(name);
    return out;
}

} // namespace smash::serve
