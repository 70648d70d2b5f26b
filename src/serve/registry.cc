#include "serve/registry.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace smash::serve
{

eng::Format
MatrixRegistry::add(const std::string& name, fmt::CooMatrix coo,
                    Index shards,
                    const eng::SparseMatrixAny::BuildOptions& build,
                    std::optional<eng::Format> format)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    // §7.2.3-style structure analysis, one linear pass per band,
    // and its pick confirmed by timing it against CSR.
    auto slot = std::make_unique<Slot>(
        std::make_shared<shard::ShardedMatrix>(
            name, fmt::CsrMatrix::fromCoo(coo), shards, build, format));
    const eng::Format chosen = slot->stack->primaryFormat();
    std::lock_guard<std::mutex> lock(mutex_);
    const bool inserted = slots_.emplace(name, std::move(slot)).second;
    SMASH_CHECK(inserted, "registry already holds a matrix named '",
                name, "'");
    return chosen;
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo)
{
    return add(name, std::move(coo), 1, {}, std::nullopt);
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format)
{
    return add(name, std::move(coo), 1, {}, format);
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format,
                    const eng::SparseMatrixAny::BuildOptions& build)
{
    return add(name, std::move(coo), 1, build, format);
}

eng::Format
MatrixRegistry::registerSharded(const std::string& name,
                                fmt::CooMatrix coo, Index shards)
{
    return add(name, std::move(coo), shards, {}, std::nullopt);
}

eng::Format
MatrixRegistry::registerSharded(
    const std::string& name, fmt::CooMatrix coo, Index shards,
    const eng::SparseMatrixAny::BuildOptions& build)
{
    return add(name, std::move(coo), shards, build, std::nullopt);
}

std::shared_ptr<shard::ShardedMatrix>
MatrixRegistry::sharded(const std::string& name) const
{
    return slot(name).stack;
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
    return slot(name).stack->rows();
}

Index
MatrixRegistry::cols(const std::string& name) const
{
    return slot(name).stack->cols();
}

eng::Format
MatrixRegistry::format(const std::string& name) const
{
    return slot(name).stack->primaryFormat();
}

MatrixRegistry::EncodingPtr
MatrixRegistry::lookup(Slot& s, std::optional<eng::Format> format)
{
    const shard::ShardedMatrix& m = *s.stack;
    if (m.shardCount() == 1) {
        // The stack's own encoding is the one it serves: pointer-
        // equal to what requests compute on, never a second copy.
        EncodingPtr own = m.shardEncoding(0, format);
        if (own || !format)
            return own;
    }
    // Resolve the format and the cache entry under one critical
    // section with the mutations, so a materialization never mixes
    // content epochs.
    std::lock_guard<std::mutex> lock(s.mutex);
    const eng::Format f = format ? *format : m.primaryFormat();
    auto it = s.encodings.find(f);
    if (it != s.encodings.end())
        return it->second;
    ++s.conversions;
    return s.encodings
        .emplace(f, std::make_shared<const eng::SparseMatrixAny>(
                        m.materialize(f)))
        .first->second;
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encoded(const std::string& name)
{
    return lookup(slot(name), std::nullopt);
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedAs(const std::string& name, eng::Format format)
{
    return lookup(slot(name), format);
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

template <typename F>
UpdateOutcome
MatrixRegistry::mutate(const std::string& name, const F& apply)
{
    Slot& s = slot(name);
    ReselectPolicy policy;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        policy = policy_;
    }
    UpdateOutcome out;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        out = apply(*s.stack, policy);
        if (out.stats.inserted + out.stats.removed + out.stats.updated >
            0)
            s.encodings.clear();
    }
    if (out.reencodeScheduled)
        fireReencode(name, out.target);
    return out;
}

UpdateOutcome
MatrixRegistry::applyUpdates(const std::string& name,
                             fmt::CooMatrix deltas)
{
    if (!deltas.isCanonical())
        deltas.canonicalize();
    return mutate(name, [&](shard::ShardedMatrix& m,
                            const ReselectPolicy& policy) {
        return m.applyUpdates(deltas, policy);
    });
}

UpdateOutcome
MatrixRegistry::replaceRows(const std::string& name,
                            const std::vector<Index>& rows,
                            fmt::CooMatrix replacement)
{
    if (!replacement.isCanonical())
        replacement.canonicalize();
    return mutate(name, [&](shard::ShardedMatrix& m,
                            const ReselectPolicy& policy) {
        return m.replaceRows(rows, replacement, policy);
    });
}

UpdateOutcome
MatrixRegistry::scaleValues(const std::string& name, Value factor)
{
    return mutate(name, [&](shard::ShardedMatrix& m,
                            const ReselectPolicy&) {
        return m.scaleValues(factor);
    });
}

eng::StructureStats
MatrixRegistry::profile(const std::string& name) const
{
    return slot(name).stack->profile(0);
}

void
MatrixRegistry::runReencode(const std::string& name)
{
    slot(name).stack->runPendingReencodes();
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
    return s.conversions + s.stack->conversions();
}

std::size_t
MatrixRegistry::reselects(const std::string& name) const
{
    return slot(name).stack->reselects();
}

MatrixInfo
MatrixRegistry::info(const std::string& name) const
{
    Slot& s = slot(name);
    const shard::ShardedMatrix& m = *s.stack;
    std::lock_guard<std::mutex> lock(s.mutex);
    const shard::ShardInfo primary = m.shardInfo(0);
    MatrixInfo out;
    out.chosen = primary.chosen;
    out.decision = primary.decision;
    out.rows = m.rows();
    out.cols = m.cols();
    out.nnz = m.nnz();
    out.conversions = s.conversions + m.conversions();
    out.reselects = m.reselects();
    out.epoch = m.epoch();
    out.reencodePending = m.reencodePending();
    out.shards = m.shardCount();
    out.cached = m.cachedFormats();
    for (const auto& [format, encoding] : s.encodings)
        out.cached.push_back(format);
    std::sort(out.cached.begin(), out.cached.end());
    out.cached.erase(std::unique(out.cached.begin(), out.cached.end()),
                     out.cached.end());
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
