#include "shard/sharded_matrix.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/numa_topology.hh"
#include "common/parallel_exec.hh"
#include "common/thread_pool.hh"
#include "engine/dispatch.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace smash::shard
{

namespace
{

/**
 * Set the calling thread's affinity (best-effort) to @p cpus, so
 * every page it faults in afterwards is first-touched on those
 * CPUs' node. A restricted cpuset may reject the mask; the work then
 * runs wherever the scheduler puts it — placement is an
 * optimization, never a correctness requirement.
 */
void
pinTo(const std::vector<int>& cpus)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    bool any = false;
    for (int c : cpus) {
        if (c >= 0 && c < CPU_SETSIZE) {
            CPU_SET(c, &set);
            any = true;
        }
    }
    if (any)
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)cpus;
#endif
}

/** Run @p body with ParallelExec over @p pool, or with NativeExec
 *  when there is none. */
template <typename F>
void
withExec(exec::ThreadPool* pool, const F& body)
{
    if (pool != nullptr) {
        exec::ParallelExec pe(*pool);
        body(pe);
    } else {
        sim::NativeExec ne;
        body(ne);
    }
}

} // namespace

template <typename Job>
void
ShardedMatrix::runPinned(const std::vector<Index>& shards,
                         const Job& job) const
{
    // A job's exception is carried to the caller: escaping its
    // thread would terminate the process.
    std::vector<std::exception_ptr> errors(shards.size());
    std::vector<std::thread> threads;
    threads.reserve(shards.size());
    const auto joinAll = [&threads] {
        for (std::thread& t : threads)
            t.join();
    };
    try {
        for (std::size_t j = 0; j < shards.size(); ++j)
            threads.emplace_back([&, j] {
                const Index i = shards[j];
                pinTo(shards_[static_cast<std::size_t>(i)]->cpus);
                try {
                    job(i);
                } catch (...) {
                    errors[j] = std::current_exception();
                }
            });
    } catch (...) {
        joinAll();
        throw;
    }
    joinAll();
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
}

ShardedMatrix::ShardedMatrix(std::string name, fmt::CsrMatrix master,
                             Index shards, const BuildOptions& build,
                             std::optional<eng::Format> format)
    : name_(std::move(name)),
      rows_(master.rows()),
      cols_(master.cols()),
      build_(build)
{
    const Index k =
        std::max<Index>(1, std::min<Index>(shards, rows_));

    // nnz-balanced cuts on the row-pointer prefix sums: cut i lands
    // where the running nnz crosses i/K of the total, nudged so
    // every shard keeps at least one row.
    const auto& rp = master.rowPtr();
    const auto total = static_cast<std::int64_t>(master.nnz());
    cuts_.assign(static_cast<std::size_t>(k) + 1, 0);
    cuts_[static_cast<std::size_t>(k)] = rows_;
    for (Index i = 1; i < k; ++i) {
        const auto target = static_cast<fmt::CsrIndex>(
            total * i / k);
        auto it = std::lower_bound(rp.begin(), rp.end(), target);
        Index cut = static_cast<Index>(it - rp.begin());
        cut = std::max(cut, cuts_[static_cast<std::size_t>(i) - 1] + 1);
        cut = std::min(cut, rows_ - (k - i));
        cuts_[static_cast<std::size_t>(i)] = cut;
    }

    const sys::NumaTopology& topo = sys::NumaTopology::probe();
    shards_.reserve(static_cast<std::size_t>(k));
    for (Index i = 0; i < k; ++i) {
        auto sh = std::make_unique<Shard>();
        sh->rowBegin = cuts_[static_cast<std::size_t>(i)];
        sh->rowEnd = cuts_[static_cast<std::size_t>(i) + 1];
        sh->node = topo.shardNode(static_cast<int>(i));
        sh->cpus = topo.shardCpus(static_cast<int>(i),
                                  static_cast<int>(k));
        shards_.push_back(std::move(sh));
    }

    if (k == 1) {
        shards_.front()->master = std::move(master);
        settleFormat(*shards_.front(), format);
    } else {
        // Slice and profile every band on a thread pinned to its
        // CPU subset so the slice is first-touched on the shard's
        // node.
        std::vector<Index> all(static_cast<std::size_t>(k));
        for (Index i = 0; i < k; ++i)
            all[static_cast<std::size_t>(i)] = i;
        runPinned(all, [&](Index i) {
            Shard& sh = *shards_[static_cast<std::size_t>(i)];
            sh.master = master.rowSlice(sh.rowBegin, sh.rowEnd);
            settleFormat(sh, format);
        });
    }
    for (Index i = 0; i < k; ++i) {
        const eng::FormatDecision& d =
            shards_[static_cast<std::size_t>(i)]->decision;
        eng::publishProbe(name_, i, d);
        setFormatGauge(i, d.format);
    }
}

void
ShardedMatrix::settleFormat(Shard& sh, std::optional<eng::Format> format)
{
    if (format) {
        sh.decision.format = *format;
        sh.decision.rulePick = *format;
        sh.decision.decidedBy = eng::DecidedBy::kCaller;
    } else {
        const eng::StructureStats stats =
            eng::analyzeStructure(sh.master);
        sh.decision = eng::confirmFormat(
            sh.master, eng::chooseFormat(stats), build_);
        sh.decision.stats = stats;
    }
    sh.pendingTarget = sh.decision.format;
}

Index
ShardedMatrix::nnz() const
{
    Index n = 0;
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        n += sh->master.nnz();
    }
    return n;
}

Index
ShardedMatrix::shardOfRow(Index row) const
{
    SMASH_CHECK(row >= 0 && row < rows_, "row ", row,
                " outside [0, ", rows_, ")");
    const auto it =
        std::upper_bound(cuts_.begin(), cuts_.end(), row);
    return static_cast<Index>(it - cuts_.begin()) - 1;
}

ShardInfo
ShardedMatrix::shardInfo(Index shard) const
{
    const Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    ShardInfo out;
    out.rowBegin = sh.rowBegin;
    out.rowEnd = sh.rowEnd;
    out.nnz = sh.master.nnz();
    out.chosen = sh.decision.format;
    out.decision = sh.decision;
    out.node = sh.node;
    out.cpus = sh.cpus;
    out.epoch = sh.epoch;
    out.conversions = sh.conversions;
    out.reselects = sh.reselects;
    out.reencodePending = sh.reencodePending;
    return out;
}

std::vector<eng::Format>
ShardedMatrix::shardFormats() const
{
    std::vector<eng::Format> out;
    out.reserve(shards_.size());
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        out.push_back(sh->decision.format);
    }
    return out;
}

std::vector<eng::Format>
ShardedMatrix::cachedFormats() const
{
    std::vector<eng::Format> out;
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        if (sh->encoding)
            out.push_back(sh->encoding->format());
    }
    return out;
}

eng::Format
ShardedMatrix::primaryFormat() const
{
    const Shard& sh = *shards_.front();
    std::lock_guard<std::mutex> lock(sh.mutex);
    return sh.decision.format;
}

eng::StructureStats
ShardedMatrix::profile(Index shard) const
{
    const Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    return eng::analyzeStructure(sh.master);
}

std::uint64_t
ShardedMatrix::epoch() const
{
    std::uint64_t e = 0;
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        e += sh->epoch;
    }
    return e;
}

std::size_t
ShardedMatrix::conversions() const
{
    std::size_t n = 0;
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        n += sh->conversions;
    }
    return n;
}

std::size_t
ShardedMatrix::reselects() const
{
    std::size_t n = 0;
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        n += sh->reselects;
    }
    return n;
}

bool
ShardedMatrix::reencodePending() const
{
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        if (sh->reencodePending)
            return true;
    }
    return false;
}

ShardedMatrix::EncodingPtr
ShardedMatrix::shardEncoding(Index shard,
                             std::optional<eng::Format> format) const
{
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    if (format && *format != sh.decision.format)
        return nullptr;
    if (!sh.encoding) {
        sh.encoding = std::make_shared<const eng::SparseMatrixAny>(
            eng::SparseMatrixAny::fromCsr(sh.master, sh.decision.format,
                                          build_));
        ++sh.conversions;
    }
    return sh.encoding;
}

void
ShardedMatrix::ensureEncoded()
{
    // A K>1 shard's first encoding builds on a thread pinned to its
    // CPU subset (first-touch placement), all first builds at once.
    // A rebuild after a mutation runs inline, so a request after
    // each update starts no threads.
    std::vector<Index> first;
    for (Index i = 0; i < shardCount(); ++i) {
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        bool pin = false;
        {
            std::lock_guard<std::mutex> lock(sh.mutex);
            if (sh.encoding)
                continue;
            pin = shardCount() > 1 && sh.conversions == 0;
        }
        if (pin)
            first.push_back(i);
        else
            shardEncoding(i);
    }
    if (!first.empty())
        runPinned(first, [this](Index i) { shardEncoding(i); });
}

template <typename F>
void
ShardedMatrix::forEachShard(exec::ThreadPool* pool,
                            const F& body) const
{
    const Index k = shardCount();
    if (pool != nullptr) {
        // One chunk per shard: sticky chunk claiming hands shard i
        // to the same worker across calls, which with node-major
        // pinning keeps a shard's traffic on its node.
        pool->parallelFor(0, k, 1, [&](Index cb, Index ce) {
            for (Index i = cb; i < ce; ++i)
                body(i);
        });
    } else {
        for (Index i = 0; i < k; ++i)
            body(i);
    }
}

void
ShardedMatrix::spmv(const std::vector<Value>& x,
                    std::vector<Value>& y,
                    exec::ThreadPool* pool) const
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= cols_,
                "x operand too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= rows_,
                "y operand too short");
    if (shardCount() == 1) {
        const EncodingPtr enc = shardEncoding(0);
        withExec(pool, [&](auto& e) { eng::spmv(enc->ref(), x, y, e); });
        return;
    }
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    forEachShard(pool, [&](Index i) {
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        const EncodingPtr enc = shardEncoding(i);
        const Index n = sh.rowEnd - sh.rowBegin;
        // The shard's slice of y, computed locally so the engine's
        // y-accumulate convention stays intact, then gathered into
        // the caller's vector. The local buffer is first-touched by
        // the worker that computes the shard.
        std::vector<Value> local(static_cast<std::size_t>(n),
                                 Value(0));
        sim::NativeExec ne;
        eng::spmv(enc->ref(), x, local, ne);
        for (Index r = 0; r < n; ++r)
            y[static_cast<std::size_t>(sh.rowBegin + r)] +=
                local[static_cast<std::size_t>(r)];
        SMASH_TRACE_EVENT(obs::EventKind::kShardGather,
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(n));
    });
    SMASH_TRACE_SPAN(obs::EventKind::kShardScatter, t0,
                     static_cast<std::uint32_t>(shardCount()), 1);
}

void
ShardedMatrix::spmvBatch(const fmt::DenseMatrix& x,
                         fmt::DenseMatrix& y,
                         exec::ThreadPool* pool) const
{
    SMASH_CHECK(x.rows() >= cols_, "X block too short");
    SMASH_CHECK(y.rows() >= rows_, "Y block too short");
    SMASH_CHECK(x.cols() == y.cols(), "X/Y width mismatch");
    if (x.cols() == 0)
        return;
    if (shardCount() == 1) {
        const EncodingPtr enc = shardEncoding(0);
        withExec(pool,
                 [&](auto& e) { eng::spmvBatch(enc->ref(), x, y, e); });
        return;
    }
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    const Index nrhs = x.cols();
    forEachShard(pool, [&](Index i) {
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        const EncodingPtr enc = shardEncoding(i);
        const Index n = sh.rowEnd - sh.rowBegin;
        fmt::DenseMatrix local(n, nrhs);
        sim::NativeExec ne;
        eng::spmvBatch(enc->ref(), x, local, ne);
        for (Index r = 0; r < n; ++r)
            for (Index c = 0; c < nrhs; ++c)
                y.at(sh.rowBegin + r, c) += local.at(r, c);
        SMASH_TRACE_EVENT(obs::EventKind::kShardGather,
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(n));
    });
    SMASH_TRACE_SPAN(obs::EventKind::kShardScatter, t0,
                     static_cast<std::uint32_t>(shardCount()),
                     static_cast<std::uint32_t>(nrhs));
}

fmt::CsrMatrix
ShardedMatrix::toCsr() const
{
    std::vector<fmt::CsrIndex> rowPtr;
    std::vector<fmt::CsrIndex> colInd;
    std::vector<Value> values;
    rowPtr.reserve(static_cast<std::size_t>(rows_) + 1);
    rowPtr.push_back(0);
    for (const auto& shp : shards_) {
        const Shard& sh = *shp;
        std::lock_guard<std::mutex> lock(sh.mutex);
        const auto& rp = sh.master.rowPtr();
        const fmt::CsrIndex base = rowPtr.back();
        for (std::size_t r = 1; r < rp.size(); ++r)
            rowPtr.push_back(base + rp[r]);
        colInd.insert(colInd.end(), sh.master.colInd().begin(),
                      sh.master.colInd().end());
        values.insert(values.end(), sh.master.values().begin(),
                      sh.master.values().end());
    }
    return fmt::CsrMatrix::fromRaw(rows_, cols_, std::move(rowPtr),
                                   std::move(colInd),
                                   std::move(values));
}

eng::SparseMatrixAny
ShardedMatrix::materialize(eng::Format format) const
{
    if (shardCount() > 1)
        return eng::SparseMatrixAny::fromCsr(toCsr(), format, build_);
    const Shard& sh = *shards_.front();
    std::lock_guard<std::mutex> lock(sh.mutex);
    return eng::SparseMatrixAny::fromCsr(sh.master, format, build_);
}

template <typename Op>
void
ShardedMatrix::mutateShard(Index shard,
                           const eng::ReselectPolicy& policy,
                           ShardMutationOutcome& out, const Op& op)
{
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    const eng::MutationStats st = op(sh.master);
    sh.churn += st.structural();
    out.stats.inserted += st.inserted;
    out.stats.removed += st.removed;
    out.stats.updated += st.updated;
    if (st.inserted + st.removed + st.updated == 0) {
        // Nothing changed (empty deltas, scale by 1): keep the
        // encoding — invalidation would force a pointless
        // reconversion (the fig20 cost) on the next request.
        return;
    }
    // Values changed: the encoding is stale. In-flight readers keep
    // their shared_ptr epochs; the next use rebuilds from the master.
    ++sh.epoch;
    sh.encoding.reset();
    if (st.structural() == 0 || !policy.enabled || sh.reencodePending)
        return;
    // Cheap gate first: don't profile the band until its
    // accumulated structural churn is worth a decision (a band can
    // cross a boundary long before the whole matrix would).
    const Index need = std::max(
        policy.minChanged,
        static_cast<Index>(policy.minChangedFraction *
                           static_cast<double>(std::max<Index>(
                               1, sh.master.nnz()))));
    if (sh.churn < need)
        return;
    const eng::StructureStats stats = eng::analyzeStructure(sh.master);
    const eng::Format target = eng::chooseFormatSticky(
        stats, sh.decision.format, policy.margin);
    if (target == sh.decision.format) {
        // Inside the hysteresis band: stay put, and restart the
        // drift accumulation so the next check needs fresh churn.
        sh.decision.stats = stats;
        sh.churn = 0;
        return;
    }
    sh.reencodePending = true;
    sh.pendingTarget = target;
    sh.pendingStats = stats;
    if (!out.reencodeScheduled) {
        out.reencodeScheduled = true;
        out.target = target;
    }
}

void
ShardedMatrix::settleTarget(ShardMutationOutcome& out) const
{
    if (out.reencodeScheduled)
        return;
    const Shard& sh = *shards_.front();
    std::lock_guard<std::mutex> lock(sh.mutex);
    out.target =
        sh.reencodePending ? sh.pendingTarget : sh.decision.format;
}

ShardMutationOutcome
ShardedMatrix::applyUpdates(const fmt::CooMatrix& deltas,
                            const eng::ReselectPolicy& policy)
{
    SMASH_CHECK(deltas.isCanonical(),
                "deltas must be canonical");
    SMASH_CHECK(deltas.rows() == rows_ && deltas.cols() == cols_,
                "delta shape differs");
    ShardMutationOutcome out;
    const auto& es = deltas.entries();
    std::size_t i = 0;
    while (i < es.size()) {
        const Index k = shardOfRow(es[i].row);
        const Shard& sh = *shards_[static_cast<std::size_t>(k)];
        // Canonical deltas are row-sorted, so each shard's share is
        // one contiguous run; rebase its rows to shard-local.
        fmt::CooMatrix local(sh.rowEnd - sh.rowBegin, cols_);
        for (; i < es.size() && es[i].row < sh.rowEnd; ++i)
            local.add(es[i].row - sh.rowBegin, es[i].col, es[i].value);
        local.canonicalize();
        mutateShard(k, policy, out, [&](fmt::CsrMatrix& m) {
            return eng::applyUpdates(m, local);
        });
    }
    settleTarget(out);
    return out;
}

ShardMutationOutcome
ShardedMatrix::replaceRows(const std::vector<Index>& rows,
                           const fmt::CooMatrix& replacement,
                           const eng::ReselectPolicy& policy)
{
    SMASH_CHECK(replacement.isCanonical(),
                "replacement must be canonical");
    SMASH_CHECK(replacement.rows() == rows_ &&
                    replacement.cols() == cols_,
                "replacement shape differs");
    ShardMutationOutcome out;
    if (shardCount() == 1) {
        // One band takes the replacement as given: the band copy
        // below would hold a second copy of a whole-matrix
        // replacement at the merge's peak.
        mutateShard(0, policy, out, [&](fmt::CsrMatrix& m) {
            return eng::replaceRows(m, rows, replacement);
        });
        settleTarget(out);
        return out;
    }
    const Index k = shardCount();
    std::vector<std::vector<Index>> rowsByShard(
        static_cast<std::size_t>(k));
    for (Index r : rows)
        rowsByShard[static_cast<std::size_t>(shardOfRow(r))]
            .push_back(r);
    const auto& es = replacement.entries();
    std::size_t next = 0;
    for (Index i = 0; i < k; ++i) {
        auto& local_rows = rowsByShard[static_cast<std::size_t>(i)];
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        // Replacement entries are row-sorted; consume this band's
        // contiguous run (every entry names a listed row, so a band
        // with entries always has listed rows too).
        fmt::CooMatrix local(sh.rowEnd - sh.rowBegin, cols_);
        for (; next < es.size() && es[next].row < sh.rowEnd; ++next)
            local.add(es[next].row - sh.rowBegin, es[next].col,
                      es[next].value);
        if (local_rows.empty()) {
            SMASH_CHECK(local.nnz() == 0,
                        "replacement entry names an unlisted row");
            continue;
        }
        for (Index& r : local_rows)
            r -= sh.rowBegin;
        local.canonicalize();
        mutateShard(i, policy, out, [&](fmt::CsrMatrix& m) {
            return eng::replaceRows(m, local_rows, local);
        });
    }
    settleTarget(out);
    return out;
}

ShardMutationOutcome
ShardedMatrix::scaleValues(Value factor)
{
    // Value-only: no structural change, so the drift gate never
    // runs and the policy is moot.
    ShardMutationOutcome out;
    for (Index i = 0; i < shardCount(); ++i)
        mutateShard(i, {}, out, [&](fmt::CsrMatrix& m) {
            return eng::scaleValues(m, factor);
        });
    settleTarget(out);
    return out;
}

void
ShardedMatrix::setFormatGauge(Index shard, eng::Format format) const
{
    obs::MetricsRegistry::global()
        .gauge("smash_shard_format{matrix=\"" + name_ +
               "\",shard=\"" + std::to_string(shard) + "\"}")
        .set(static_cast<std::int64_t>(format));
}

int
ShardedMatrix::runPendingReencodes()
{
    int swapped = 0;
    for (Index i = 0; i < shardCount(); ++i) {
        Shard& sh = *shards_[static_cast<std::size_t>(i)];
        // A mutation may land while the new encoding builds (the
        // build runs with no lock held, so serving and updates
        // continue). The epoch check detects that and rebuilds.
        bool done = false;
        for (int attempt = 0; attempt < 4 && !done; ++attempt) {
            fmt::CsrMatrix snapshot;
            eng::Format current;
            eng::Format target;
            eng::StructureStats stats;
            std::uint64_t epoch;
            {
                std::lock_guard<std::mutex> lock(sh.mutex);
                if (!sh.reencodePending) {
                    done = true;
                    break;
                }
                snapshot = sh.master;
                current = sh.decision.format;
                target = sh.pendingTarget;
                stats = sh.pendingStats;
                epoch = sh.epoch;
            }
            // Confirm the rules' target by timing before paying for
            // its build. A probe that keeps the current format (a
            // CSR shard the sticky rules would send back to their
            // pick) ends the re-encode: no swap, no conversion, and
            // the drift gate starts over.
            eng::FormatDecision decision =
                eng::confirmFormat(snapshot, target, build_);
            decision.stats = stats;
            eng::publishProbe(name_, i, decision);
            if (decision.format == current) {
                std::lock_guard<std::mutex> lock(sh.mutex);
                sh.decision = decision;
                sh.reencodePending = false;
                sh.churn = 0;
                done = true;
                break;
            }
            auto built =
                std::make_shared<const eng::SparseMatrixAny>(
                    eng::SparseMatrixAny::fromCsr(
                        snapshot, decision.format, build_));
            {
                std::lock_guard<std::mutex> lock(sh.mutex);
                if (sh.epoch != epoch)
                    continue; // a mutation landed: rebuild
                // Atomic swap: readers still holding the old
                // shared_ptr finish on the old encoding.
                sh.decision = decision;
                sh.encoding = std::move(built);
                ++sh.conversions;
                ++sh.reselects;
                sh.reencodePending = false;
                sh.churn = 0;
                done = true;
                ++swapped;
            }
            obs::MetricsRegistry::global()
                .counter("smash_shard_reencodes_total{matrix=\"" +
                         name_ + "\",shard=\"" + std::to_string(i) +
                         "\"}")
                .inc();
            setFormatGauge(i, decision.format);
            SMASH_TRACE_EVENT(obs::EventKind::kShardReencode,
                              static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(
                                  decision.format));
        }
        if (!done) {
            // Retries exhausted on a busy shard: clear the flag so a
            // later mutation can re-trigger the reselection.
            std::lock_guard<std::mutex> lock(sh.mutex);
            sh.reencodePending = false;
        }
    }
    return swapped;
}

} // namespace smash::shard
