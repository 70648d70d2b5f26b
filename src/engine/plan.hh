/**
 * @file
 * Cached execution plans for the parallel dispatch drivers.
 *
 * Every parallel SpMV/SpMM/SpAdd dispatch needs a partition of the
 * matrix: nnz-balanced row (or block-row / column) cuts for the
 * gather formats, and the Bitmap-0 word partition with its NZA base
 * ranks for the SMASH word walk. Computing these is O(log nnz) per
 * cut at best and O(words) for the SMASH rank pre-scan — setup cost
 * paid on *every* call, exactly the overhead the paper's fig20
 * analysis warns dominates short-running kernels. A PartitionPlan
 * captures one such partition; a PlanCache memoizes them per
 * (kind, chunk count) so the steady-state request path reuses the
 * plan computed on the first call.
 *
 * Plans depend only on the matrix *structure* (the prefix arrays /
 * bitmap population), never on values. SparseMatrixAny owns one
 * cache per instance and never changes its structure; the serving
 * layer's mutations and re-encodes produce fresh SparseMatrixAny
 * objects (and therefore fresh, empty caches), so a mutated or
 * re-encoded matrix can never serve a stale plan.
 *
 * Ownership/threading contract: PlanCache is internally
 * synchronized — concurrent get() calls are safe and a cache hit
 * performs no heap allocation. get() returns shared_ptr snapshots:
 * a reader holds whatever plan it fetched for the duration of its
 * dispatch.
 * Racing cold get()s may build the same plan twice; the first
 * insert wins and the duplicate is discarded (plans for one key are
 * deterministic, so either copy is correct).
 */

#ifndef SMASH_ENGINE_PLAN_HH
#define SMASH_ENGINE_PLAN_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace smash::eng
{

/** One reusable partition of a matrix for a parallel driver. */
struct PartitionPlan
{
    /** Range cuts, size chunks + 1 (rows, block rows, or columns
     *  depending on the PlanKind). Empty for word-walk plans. */
    std::vector<Index> cuts;

    // --- SMASH word-walk fields (PlanKind::kWordWalk only). ---
    Index words = 0; //!< Bitmap-0 word count
    Index grain = 0; //!< words per chunk
    /** Bitmap-0 rank (NZA base) before each chunk, size chunks+1. */
    std::vector<Index> base;

    /** Number of chunks this plan partitions into. */
    Index
    chunks() const
    {
        const std::vector<Index>& v = cuts.empty() ? base : cuts;
        return static_cast<Index>(v.size()) - 1;
    }
};

/** Partition families one cache distinguishes (together with the
 *  chunk count, the lookup key). */
enum class PlanKind : int
{
    kRowCuts,  //!< nnz-balanced row / block-row cuts (SpMV, SpMM A)
    kColCuts,  //!< nnz-balanced column cuts (SpMM B bands)
    kSpaddCuts, //!< row cuts of the parallel SpAdd merge
    kWordWalk, //!< SMASH Bitmap-0 word partition + base ranks
};

/** Memoized PartitionPlans, keyed by (kind, chunk count). */
class PlanCache
{
  public:
    using PlanPtr = std::shared_ptr<const PartitionPlan>;

    PlanCache() = default;
    PlanCache(const PlanCache&) = delete;
    PlanCache& operator=(const PlanCache&) = delete;

    /**
     * The plan for (kind, chunks), building it with @p build on the
     * first request. @p build runs with no cache lock held (it may
     * itself fan out over a thread pool); a racing duplicate build
     * is discarded in favour of the first insert.
     */
    template <typename Build>
    PlanPtr
    get(PlanKind kind, Index chunks, const Build& build) const
    {
        const std::pair<int, Index> key(static_cast<int>(kind),
                                        chunks);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = plans_.find(key);
            if (it != plans_.end()) {
                ++hits_;
                noteLookup(kind, /*hit=*/true);
                return it->second;
            }
        }
        noteLookup(kind, /*hit=*/false);
        auto built = std::make_shared<const PartitionPlan>(build());
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = plans_.emplace(key, std::move(built));
        if (inserted)
            ++builds_;
        else
            ++hits_;
        return it->second;
    }

    /** Plans built so far (cold calls; includes discarded racing
     *  duplicates' winners only). */
    std::uint64_t
    builds() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return builds_;
    }

    /** Lookups served from the cache so far. */
    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    /** Plans currently cached. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return plans_.size();
    }

  private:
    /** Process-global hit/miss accounting + trace (the per-cache
     *  hits()/builds() counters stay per-instance). */
    static void
    noteLookup(PlanKind kind, bool hit)
    {
        static obs::Counter& hit_total =
            obs::MetricsRegistry::global().counter(
                "smash_plan_cache_lookups_total{result=\"hit\"}");
        static obs::Counter& miss_total =
            obs::MetricsRegistry::global().counter(
                "smash_plan_cache_lookups_total{result=\"miss\"}");
        (hit ? hit_total : miss_total).inc();
        if (hit)
            SMASH_TRACE_EVENT(obs::EventKind::kPlanCacheHit,
                              static_cast<std::uint32_t>(kind));
        else
            SMASH_TRACE_EVENT(obs::EventKind::kPlanCacheMiss,
                              static_cast<std::uint32_t>(kind));
    }

    mutable std::mutex mutex_;
    mutable std::map<std::pair<int, Index>, PlanPtr> plans_;
    mutable std::uint64_t builds_ = 0;
    mutable std::uint64_t hits_ = 0;
};

} // namespace smash::eng

#endif // SMASH_ENGINE_PLAN_HH
