#include "shard/sharded_matrix.hh"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/numa_topology.hh"
#include "common/thread_pool.hh"
#include "engine/autoselect.hh"
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
 * Run @p fn on a fresh thread whose affinity is set (best-effort)
 * to @p cpus first, so every page @p fn faults in is first-touched
 * on those CPUs' node. A restricted cpuset may reject the mask; the
 * build then runs wherever the scheduler puts it — placement is an
 * optimization, never a correctness requirement.
 */
void
runFirstTouch(const std::vector<int>& cpus,
              const std::function<void()>& fn)
{
    std::thread th([&] {
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
#endif
        fn();
    });
    th.join();
}

void
accumulate(eng::MutationStats& into, const eng::MutationStats& st)
{
    into.inserted += st.inserted;
    into.removed += st.removed;
    into.updated += st.updated;
}

obs::Counter&
shardReencodeCounter(Index shard)
{
    return obs::MetricsRegistry::global().counter(
        "smash_shard_reencodes_total{shard=\"" +
        std::to_string(shard) + "\"}");
}

} // namespace

ShardedMatrix::ShardedMatrix(std::string name,
                             const fmt::CsrMatrix& master,
                             Index shards, const BuildOptions& build)
    : name_(std::move(name)),
      rows_(master.rows()),
      cols_(master.cols()),
      build_(build)
{
    SMASH_CHECK(rows_ > 0 && cols_ > 0,
                "cannot shard an empty matrix");
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

    // Build every shard's arrays on a thread pinned to its CPU
    // subset so the slice, the profile, and the initial encoding
    // are first-touched on the shard's node.
    std::vector<std::thread> builders;
    builders.reserve(shards_.size());
    for (Index i = 0; i < k; ++i) {
        builders.emplace_back([this, i, &master] {
            Shard& sh = *shards_[static_cast<std::size_t>(i)];
            runFirstTouch(sh.cpus, [this, &sh, &master] {
                sh.master = master.rowSlice(sh.rowBegin, sh.rowEnd);
                sh.profile = eng::StructureTracker(sh.master);
                sh.decision = eng::confirmFormat(
                    sh.master, eng::chooseFormat(sh.profile.stats()),
                    build_);
                sh.pendingTarget = sh.decision.format;
                sh.encoding =
                    std::make_shared<const eng::SparseMatrixAny>(
                        eng::SparseMatrixAny::fromCsr(
                            sh.master, sh.decision.format, build_));
                ++sh.conversions;
            });
            eng::publishProbe(name_, i, sh.decision);
            setFormatGauge(i, sh.decision.format);
        });
    }
    for (std::thread& t : builders)
        t.join();
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
    return sh.profile.stats();
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
ShardedMatrix::encodedLocked(Shard& sh) const
{
    if (!sh.encoding) {
        sh.encoding = std::make_shared<const eng::SparseMatrixAny>(
            eng::SparseMatrixAny::fromCsr(sh.master, sh.decision.format,
                                          build_));
        ++sh.conversions;
    }
    return sh.encoding;
}

ShardedMatrix::EncodingPtr
ShardedMatrix::grabEncoding(Index shard) const
{
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    return encodedLocked(sh);
}

void
ShardedMatrix::ensureEncoded()
{
    for (Index i = 0; i < shardCount(); ++i)
        grabEncoding(i);
}

bool
ShardedMatrix::allEncoded() const
{
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->mutex);
        if (!sh->encoding)
            return false;
    }
    return true;
}

template <typename F>
void
ShardedMatrix::forEachShard(exec::ThreadPool* pool,
                            const F& body) const
{
    const Index k = shardCount();
    if (pool != nullptr && k > 1) {
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
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    forEachShard(pool, [&](Index i) {
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        const EncodingPtr enc = grabEncoding(i);
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
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    const Index nrhs = x.cols();
    forEachShard(pool, [&](Index i) {
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        const EncodingPtr enc = grabEncoding(i);
        const Index n = sh.rowEnd - sh.rowBegin;
        fmt::DenseMatrix local(n, nrhs);
        sim::NativeExec ne;
        // Each shard pads X to its own format granularity
        // (per-shard formats diverge, so the needed operand length
        // differs per shard); spmmBatch copies only when the
        // logical height falls short.
        eng::spmmBatch(enc->ref(), x, local, ne);
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

fmt::CooMatrix
ShardedMatrix::spadd(const fmt::CsrMatrix& other,
                     exec::ThreadPool* pool) const
{
    SMASH_CHECK(other.rows() == rows_ && other.cols() == cols_,
                "operand shapes differ");
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    std::vector<fmt::CooMatrix> parts(
        static_cast<std::size_t>(shardCount()));
    forEachShard(pool, [&](Index i) {
        const Shard& sh = *shards_[static_cast<std::size_t>(i)];
        fmt::CooMatrix part(rows_, cols_);
        std::lock_guard<std::mutex> lock(sh.mutex);
        // Two-pointer merge of the shard's local rows against the
        // matching global rows of `other` — the same merge (same
        // order, same sums, same zero-cancellation rule) as
        // kern::spaddCsrRange, emitting global row indices.
        const auto& arp = sh.master.rowPtr();
        const auto& aci = sh.master.colInd();
        const auto& av = sh.master.values();
        const auto& brp = other.rowPtr();
        const auto& bci = other.colInd();
        const auto& bv = other.values();
        const fmt::CsrIndex sentinel =
            static_cast<fmt::CsrIndex>(cols_);
        for (Index lr = 0; lr < sh.rowEnd - sh.rowBegin; ++lr) {
            const Index gr = sh.rowBegin + lr;
            fmt::CsrIndex ka = arp[static_cast<std::size_t>(lr)];
            fmt::CsrIndex kb = brp[static_cast<std::size_t>(gr)];
            const fmt::CsrIndex aEnd =
                arp[static_cast<std::size_t>(lr) + 1];
            const fmt::CsrIndex bEnd =
                brp[static_cast<std::size_t>(gr) + 1];
            while (ka < aEnd || kb < bEnd) {
                const fmt::CsrIndex ca =
                    ka < aEnd ? aci[static_cast<std::size_t>(ka)]
                              : sentinel;
                const fmt::CsrIndex cb =
                    kb < bEnd ? bci[static_cast<std::size_t>(kb)]
                              : sentinel;
                Value v;
                Index col;
                if (ca == cb) {
                    v = av[static_cast<std::size_t>(ka)] +
                        bv[static_cast<std::size_t>(kb)];
                    col = ca;
                    ++ka;
                    ++kb;
                } else if (ca < cb) {
                    v = av[static_cast<std::size_t>(ka)];
                    col = ca;
                    ++ka;
                } else {
                    v = bv[static_cast<std::size_t>(kb)];
                    col = cb;
                    ++kb;
                }
                if (v != Value(0))
                    part.add(gr, col, v);
            }
        }
        parts[static_cast<std::size_t>(i)] = std::move(part);
    });
    // Shards hold disjoint ascending row bands, so concatenating in
    // shard order reproduces the unsharded merge's entry order.
    fmt::CooMatrix out(rows_, cols_);
    for (const fmt::CooMatrix& part : parts)
        for (const fmt::CooEntry& e : part.entries())
            out.add(e.row, e.col, e.value);
    SMASH_TRACE_SPAN(obs::EventKind::kShardScatter, t0,
                     static_cast<std::uint32_t>(shardCount()), 1);
    return out;
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

void
ShardedMatrix::finishShardMutation(Index shard, Shard& sh,
                                   const eng::MutationStats& stats,
                                   const DriftPolicy& policy,
                                   ShardMutationOutcome& out)
{
    if (stats.inserted + stats.removed + stats.updated == 0)
        return;
    ++sh.epoch;
    sh.encoding.reset();
    if (stats.structural() == 0 || !policy.enabled ||
        sh.reencodePending)
        return;
    // Same gate as the registry's whole-matrix drift detector, but
    // against the shard's own churn and nnz — a band can cross a
    // boundary long before the whole matrix would.
    const Index changed = sh.profile.changedSinceRebase();
    const Index need = std::max(
        policy.minChanged,
        static_cast<Index>(policy.minChangedFraction *
                           static_cast<double>(std::max<Index>(
                               1, sh.profile.nnz()))));
    if (changed < need)
        return;
    const eng::Format target = eng::chooseFormatSticky(
        sh.profile.stats(), sh.decision.format, policy.margin);
    if (target == sh.decision.format) {
        sh.profile.rebase();
        return;
    }
    sh.reencodePending = true;
    sh.pendingTarget = target;
    if (!out.reencodeScheduled) {
        out.reencodeScheduled = true;
        out.target = target;
    }
    (void)shard;
}

ShardMutationOutcome
ShardedMatrix::applyUpdates(const fmt::CooMatrix& deltas,
                            const DriftPolicy& policy)
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
        Shard& sh = *shards_[static_cast<std::size_t>(k)];
        const Index bandEnd = cuts_[static_cast<std::size_t>(k) + 1];
        // Canonical deltas are row-sorted, so each shard's share is
        // one contiguous run; rebase its rows to shard-local.
        fmt::CooMatrix local(sh.rowEnd - sh.rowBegin, cols_);
        std::size_t j = i;
        while (j < es.size() && es[j].row < bandEnd) {
            local.add(es[j].row - sh.rowBegin, es[j].col,
                      es[j].value);
            ++j;
        }
        local.canonicalize();
        {
            std::lock_guard<std::mutex> lock(sh.mutex);
            eng::StructureTracker& tracker = sh.profile;
            const eng::MutationStats st = eng::applyUpdates(
                sh.master, local,
                [&tracker](Index r, Index c, bool inserted) {
                    tracker.onStructureChange(r, c, inserted);
                });
            accumulate(out.stats, st);
            finishShardMutation(k, sh, st, policy, out);
        }
        i = j;
    }
    return out;
}

ShardMutationOutcome
ShardedMatrix::replaceRows(const std::vector<Index>& rows,
                           const fmt::CooMatrix& replacement,
                           const DriftPolicy& policy)
{
    SMASH_CHECK(replacement.isCanonical(),
                "replacement must be canonical");
    ShardMutationOutcome out;
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
        Shard& sh = *shards_[static_cast<std::size_t>(i)];
        // Replacement entries are row-sorted; consume this band's
        // contiguous run (every entry names a listed row, so a band
        // with entries always has listed rows too).
        fmt::CooMatrix local(sh.rowEnd - sh.rowBegin, cols_);
        while (next < es.size() &&
               es[next].row < cuts_[static_cast<std::size_t>(i) + 1]) {
            local.add(es[next].row - sh.rowBegin, es[next].col,
                      es[next].value);
            ++next;
        }
        if (local_rows.empty()) {
            SMASH_CHECK(local.nnz() == 0,
                        "replacement entry names an unlisted row");
            continue;
        }
        for (Index& r : local_rows)
            r -= sh.rowBegin;
        local.canonicalize();
        {
            std::lock_guard<std::mutex> lock(sh.mutex);
            eng::StructureTracker& tracker = sh.profile;
            const eng::MutationStats st = eng::replaceRows(
                sh.master, local_rows, local,
                [&tracker](Index r, Index c, bool inserted) {
                    tracker.onStructureChange(r, c, inserted);
                });
            accumulate(out.stats, st);
            finishShardMutation(i, sh, st, policy, out);
        }
    }
    return out;
}

ShardMutationOutcome
ShardedMatrix::scaleValues(Value factor)
{
    ShardMutationOutcome out;
    const DriftPolicy off{false, 0, 0, 0};
    for (Index i = 0; i < shardCount(); ++i) {
        Shard& sh = *shards_[static_cast<std::size_t>(i)];
        std::lock_guard<std::mutex> lock(sh.mutex);
        const eng::MutationStats st =
            eng::scaleValues(sh.master, factor);
        accumulate(out.stats, st);
        finishShardMutation(i, sh, st, off, out);
    }
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
        bool done = false;
        // Same snapshot / probe / build-unlocked / epoch-checked-swap
        // loop as the registry's whole-matrix runReencode(), per shard.
        for (int attempt = 0; attempt < 4 && !done; ++attempt) {
            fmt::CsrMatrix snapshot;
            eng::Format current;
            eng::Format target;
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
                epoch = sh.epoch;
            }
            const eng::FormatDecision decision =
                eng::confirmFormat(snapshot, target, build_);
            eng::publishProbe(name_, i, decision);
            if (decision.format == current) {
                // The probe keeps the current format (a CSR shard
                // the sticky rules would send back to their pick):
                // no swap, and the drift gate starts over.
                std::lock_guard<std::mutex> lock(sh.mutex);
                sh.decision = decision;
                sh.reencodePending = false;
                sh.profile.rebase();
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
                sh.decision = decision;
                sh.encoding = std::move(built);
                ++sh.conversions;
                ++sh.reselects;
                sh.reencodePending = false;
                sh.profile.rebase();
                done = true;
                ++swapped;
            }
            shardReencodeCounter(i).inc();
            setFormatGauge(i, decision.format);
            SMASH_TRACE_EVENT(obs::EventKind::kShardReencode,
                              static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(
                                  decision.format));
        }
        if (!done) {
            std::lock_guard<std::mutex> lock(sh.mutex);
            sh.reencodePending = false;
        }
    }
    return swapped;
}

} // namespace smash::shard
