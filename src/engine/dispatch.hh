/**
 * @file
 * The engine's single entry point for sparse operations:
 *
 *   eng::spmv(A, x, y, exec [, options])   y := y + A x
 *   eng::spmm(A, B, C, exec [, options])   C := C + A B
 *   eng::spadd(A, B, exec [, algo])        returns A + B
 *
 * A is a MatrixRef — any concrete format converts implicitly — and
 * exec is any execution model: NativeExec (serial, full speed),
 * SimExec (serial, cost-accurate; dispatch forwards to exactly the
 * kernel the hand-wired call sites used, so billing is unchanged),
 * or ParallelExec (the multi-threaded drivers below: row-range
 * partitioning for gather formats, per-thread y accumulators merged
 * at the barrier for scatter formats and the SMASH word walk).
 *
 * The capability registry (engine/format.hh) gates every route, so
 * unsupported (format, op) pairs fail with a clear error instead of
 * a template blizzard.
 *
 * Steady-state fast path: when the MatrixRef carries a PlanCache
 * (refs from SparseMatrixAny / the serving registry's encodings do;
 * see engine/plan.hh), the parallel drivers fetch their partition —
 * nnz-balanced cuts, the SMASH word walk's base ranks — from the
 * cache instead of recomputing it per call, and all per-call
 * scratch (the padded x operand, scatter accumulators) comes from
 * the calling thread's ScratchArena. A warmed dispatch therefore
 * performs no heap allocation.
 *
 * Ownership/threading contract: dispatch borrows the matrix and
 * operand storage for the duration of one call and keeps no
 * per-call state between calls (the plan cache is the matrix's,
 * the scratch the thread's). Concurrent dispatches over the same
 * (immutable) matrix are safe, including from pipeline worker
 * tasks; the y/C output must be private to each call.
 */

#ifndef SMASH_ENGINE_DISPATCH_HH
#define SMASH_ENGINE_DISPATCH_HH

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/bitops.hh"
#include "common/cpu_features.hh"
#include "common/parallel_exec.hh"
#include "common/scratch_arena.hh"
#include "engine/matrix_any.hh"
#include "engine/plan.hh"
#include "isa/bmu.hh"
#include "kernels/simd/simd_kernels.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "kernels/spadd.hh"
#include "kernels/spgemm.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "kernels/spmv_structured.hh"
#include "kernels/util.hh"
#include "sim/exec_model.hh"

namespace smash::eng
{

/** Kernel variant to run for one format (paper's scheme axis). */
enum class SpmvAlgo
{
    kAuto,     //!< plain kernel; BMU path when a Bmu is supplied
    kPlain,    //!< the format's baseline kernel
    kUnrolled, //!< CSR only: MKL-like unrolled loop (§7.1)
    kIdeal,    //!< CSR only: free-indexing idealism (Fig. 3)
    kHw,       //!< SMASH only: BMU-accelerated scan (§5.1)
};

/** Options of one spmv()/spmm() dispatch. */
struct SpmvOptions
{
    SpmvAlgo algo = SpmvAlgo::kAuto;
    isa::Bmu* bmu = nullptr; //!< required by (and implies) kHw
};

template <typename E>
void spmv(const MatrixRef& a, const std::vector<Value>& x,
          std::vector<Value>& y, E& e, const SpmvOptions& opts = {});

namespace detail
{

/**
 * One dispatch selection: bump the per-ISA kernel-invocation
 * counter and the per-path counter, and (when tracing) record a
 * kDispatch event carrying (format, active ISA level, path shape).
 * Called once per engine-level dispatch, not per chunk — the cost
 * is three relaxed atomic adds on the hot path.
 */
inline void
noteDispatch(Format f, obs::DispatchPath path)
{
    static obs::Counter* by_isa[3] = {
        &obs::MetricsRegistry::global().counter(
            "smash_kernel_invocations_total{isa=\"scalar\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_kernel_invocations_total{isa=\"avx2\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_kernel_invocations_total{isa=\"avx512\"}"),
    };
    static obs::Counter* by_path[7] = {
        &obs::MetricsRegistry::global().counter(
            "smash_dispatch_total{path=\"serial\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_dispatch_total{path=\"rows\"}"),
        nullptr, // 2: retired (no DispatchPath carries it)
        &obs::MetricsRegistry::global().counter(
            "smash_dispatch_total{path=\"word_walk\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_dispatch_total{path=\"scatter\"}"),
        nullptr, // 5: retired (no DispatchPath carries it)
        &obs::MetricsRegistry::global().counter(
            "smash_dispatch_total{path=\"row_col_tiles\"}"),
    };
    const auto isa =
        static_cast<std::size_t>(simd::activeIsaLevel());
    by_isa[isa % 3]->inc();
    by_path[static_cast<std::size_t>(path) % 7]->inc();
    SMASH_TRACE_EVENT(obs::EventKind::kDispatch,
                      static_cast<std::uint32_t>(f),
                      static_cast<std::uint32_t>(isa),
                      static_cast<std::uint32_t>(path));
}

/** Resolve kAuto and validate the (format, algo) pair. */
inline SpmvAlgo
resolveAlgo(Format f, const SpmvOptions& opts)
{
    SpmvAlgo algo = opts.algo;
    if (algo == SpmvAlgo::kAuto) {
        algo = (f == Format::kSmash && opts.bmu != nullptr)
            ? SpmvAlgo::kHw
            : SpmvAlgo::kPlain;
    }
    if (algo == SpmvAlgo::kUnrolled || algo == SpmvAlgo::kIdeal) {
        SMASH_CHECK(f == Format::kCsr, "algo ",
                    algo == SpmvAlgo::kUnrolled ? "unrolled" : "ideal",
                    " applies to CSR only, matrix is ", toString(f));
    }
    if (algo == SpmvAlgo::kHw) {
        SMASH_CHECK(f == Format::kSmash,
                    "the BMU path applies to SMASH only, matrix is ",
                    toString(f));
        SMASH_CHECK(opts.bmu != nullptr,
                    "the BMU path needs SpmvOptions::bmu");
    }
    return algo;
}

/**
 * x, zero-extended into @p scratch when shorter than the format's
 * required operand length. Callers that pre-pad (the benches, so
 * simulation bills no copy) pass through untouched. @p scratch is
 * grown but never shrunk (it is an arena buffer — kernels only
 * read the operand-length prefix).
 */
inline const std::vector<Value>&
paddedX(const MatrixRef& a, const std::vector<Value>& x,
        std::vector<Value>& scratch)
{
    const Index need = a.xLength();
    if (static_cast<Index>(x.size()) >= need)
        return x;
    if (static_cast<Index>(scratch.size()) < need)
        scratch.resize(static_cast<std::size_t>(need));
    std::copy(x.begin(), x.end(), scratch.begin());
    std::fill(scratch.begin() + static_cast<std::ptrdiff_t>(x.size()),
              scratch.begin() + static_cast<std::ptrdiff_t>(need),
              Value(0));
    return scratch;
}

/**
 * Boundaries splitting [0, n) into @p chunks ranges balanced by the
 * monotone prefix array @p ptr (row_ptr/colPtr): each range holds
 * roughly the same number of non-zeros, so threads get even work
 * even on power-law matrices.
 */
template <typename PtrVec>
std::vector<Index>
balancedCuts(const PtrVec& ptr, Index n, Index chunks)
{
    using Elem = typename PtrVec::value_type;
    chunks = std::max<Index>(1, std::min(chunks, n));
    std::vector<Index> cuts(static_cast<std::size_t>(chunks) + 1, 0);
    const auto total = static_cast<std::uint64_t>(
        ptr[static_cast<std::size_t>(n)]);
    for (Index c = 1; c < chunks; ++c) {
        const Elem target = static_cast<Elem>(
            total * static_cast<std::uint64_t>(c) /
            static_cast<std::uint64_t>(chunks));
        const auto it = std::upper_bound(
            ptr.begin(), ptr.begin() + static_cast<std::ptrdiff_t>(n),
            target);
        cuts[static_cast<std::size_t>(c)] = std::clamp<Index>(
            static_cast<Index>(it - ptr.begin()) - 1,
            cuts[static_cast<std::size_t>(c) - 1], n);
    }
    cuts[static_cast<std::size_t>(chunks)] = n;
    return cuts;
}

/**
 * Chunk count the row-partitioned parallel drivers aim for. Four
 * chunks per worker gives the sticky claiming slack to absorb skew
 * while the pool fits the machine; an oversubscribed pool (more
 * workers than hardware threads) gets two per worker — its workers
 * already time-slice shared cores, so extra chunks only multiply
 * claim traffic and cache hand-offs (the cause of the BENCH_5
 * 8-thread CSR regression on small hosts; see docs/performance.md).
 */
inline Index
chunkGoal(exec::ParallelExec& e)
{
    const Index threads = static_cast<Index>(e.threads());
    static const Index hw = static_cast<Index>(
        std::max(1u, std::thread::hardware_concurrency()));
    return threads <= hw ? threads * 4 : threads * 2;
}

/**
 * Fetch-or-build the nnz-balanced cuts of (kind, chunks) through
 * the matrix's plan cache when one is attached (steady-state: no
 * recomputation, no allocation), else build a fresh plan.
 */
template <typename PtrVec>
PlanCache::PlanPtr
cutsPlan(const MatrixRef& a, PlanKind kind, const PtrVec& ptr, Index n,
         Index chunks)
{
    const auto build = [&] {
        PartitionPlan plan;
        plan.cuts = balancedCuts(ptr, n, chunks);
        return plan;
    };
    if (const PlanCache* cache = a.plans())
        return cache->get(kind, chunks, build);
    return std::make_shared<const PartitionPlan>(build());
}

/**
 * Scatter-format helper: partition the item space [0, n) into
 * disjoint ranges and run fn(range_begin, range_end, y_local) for
 * each, accumulating into private y copies merged at the barrier
 * (the merge itself is row-parallel). The private copies live in
 * the calling thread's ScratchArena — workers write them, the
 * parallelFor barrier publishes the writes back to this thread.
 * Contract: every item index in [0, n) reaches fn exactly once;
 * callers may key per-item state (e.g. the SMASH driver's
 * per-range NZA base ranks) off the item index regardless of how
 * ranges are grouped into tasks. fn must not recurse into another
 * scatterParallel on the calling thread (arena slots are keyed by
 * chunk, not by nesting depth).
 */
template <typename RangeFn>
void
scatterParallel(exec::ParallelExec& e, Index n, std::vector<Value>& y,
                const RangeFn& fn)
{
    const Index chunks =
        std::max<Index>(1, std::min<Index>(n, e.threads()));
    if (chunks == 1) {
        // One worker: accumulate straight into y (the += kernels
        // preserve its contents), skipping the merge entirely.
        e.parallelFor(0, 1, 1,
                      [&](Index, Index) { fn(0, n, y); });
        return;
    }
    const std::size_t ysize = y.size();
    exec::ScratchArena& arena = exec::ScratchArena::local();
    std::vector<std::vector<Value>*>& locals =
        arena.pointers(static_cast<std::size_t>(chunks));
    for (Index c = 0; c < chunks; ++c)
        locals[static_cast<std::size_t>(c)] = &arena.values(
            exec::ScratchArena::kScatterBase +
                static_cast<std::size_t>(c),
            ysize);
    const Index grain = (n + chunks - 1) / chunks;
    e.parallelFor(0, chunks, 1, [&](Index cb, Index ce) {
        for (Index c = cb; c < ce; ++c) {
            const Index b = c * grain;
            const Index end = std::min(n, b + grain);
            if (b < end) {
                std::vector<Value>& local =
                    *locals[static_cast<std::size_t>(c)];
                std::fill(
                    local.begin(),
                    local.begin() + static_cast<std::ptrdiff_t>(ysize),
                    Value(0));
                fn(b, end, local);
            }
        }
    });
    e.parallelFor(0, static_cast<Index>(ysize), 1024,
                  [&](Index rb, Index re) {
        for (Index c = 0; c < chunks; ++c) {
            const Index b = c * grain;
            if (b >= n)
                break; // empty tail chunk: never zeroed or written
            const std::vector<Value>& local =
                *locals[static_cast<std::size_t>(c)];
            for (Index r = rb; r < re; ++r)
                y[static_cast<std::size_t>(r)] +=
                    local[static_cast<std::size_t>(r)];
        }
    });
}

/**
 * Word partition of a SMASH Bitmap-0 for the parallel drivers:
 * [0, words) split into per-thread chunks, with the NZA base rank
 * (number of set bits before the chunk) of each. The rank pre-scan
 * runs over the same chunks in parallel. Counting goes through the
 * ISA dispatch table's popcountWords entry: the scalar variant
 * keeps the bit-clearing loop (without -mpopcnt std::popcount is a
 * libcall, ~3 ns/word measured, while clearing costs one test per
 * empty word plus one iteration per set bit — cheaper on sparse
 * bitmaps), and the AVX2+ variant runs hardware popcnt. The result
 * is memoized through the matrix's plan cache when one is attached
 * — the O(words) pre-scan is the dominant per-call setup of the
 * SMASH drivers.
 */
inline PlanCache::PlanPtr
wordWalkPlan(const MatrixRef& a, const core::SmashMatrix& m,
             exec::ParallelExec& e)
{
    const Index threads = static_cast<Index>(e.threads());
    const auto build = [&] {
        PartitionPlan part;
        const core::Bitmap& level0 = m.hierarchy().level(0);
        const BitWord* wp = level0.words().data();
        part.words = level0.numWords();
        const Index chunks =
            std::max<Index>(1, std::min<Index>(part.words, threads));
        part.grain = (part.words + chunks - 1) / chunks;
        part.base.assign(static_cast<std::size_t>(chunks) + 1, 0);
        if (chunks > 1) {
            const simd::KernelTable& kt = simd::kernels();
            e.parallelFor(0, chunks, 1, [&](Index cb, Index ce) {
                for (Index c = cb; c < ce; ++c) {
                    const Index wb = c * part.grain;
                    const Index we =
                        std::min(part.words, wb + part.grain);
                    part.base[static_cast<std::size_t>(c) + 1] =
                        kt.popcountWords(wp + wb, we - wb);
                }
            });
        }
        for (Index c = 0; c < chunks; ++c)
            part.base[static_cast<std::size_t>(c) + 1] +=
                part.base[static_cast<std::size_t>(c)];
        return part;
    };
    if (const PlanCache* cache = a.plans())
        return cache->get(PlanKind::kWordWalk, threads, build);
    return std::make_shared<const PartitionPlan>(build());
}

/** Multi-threaded SpMV drivers, one per format family. */
inline void
parallelSpmv(const MatrixRef& a, const std::vector<Value>& x,
             std::vector<Value>& y, exec::ParallelExec& e)
{
    const Index chunk_goal = chunkGoal(e);
    switch (a.format()) {
      case Format::kCsr: {
        // nnz-balanced row cuts; disjoint rows write y directly.
        // Each row runs serial CSR's kernel whole, so the answer
        // equals serial CSR's bit for bit at any thread count.
        const auto& m = a.as<fmt::CsrMatrix>();
        noteDispatch(Format::kCsr, obs::DispatchPath::kRows);
        const PlanCache::PlanPtr plan = cutsPlan(
            a, PlanKind::kRowCuts, m.rowPtr(), m.rows(), chunk_goal);
        const std::vector<Index>& cuts = plan->cuts;
        const simd::KernelTable& kt = simd::kernels();
        e.parallelFor(0, static_cast<Index>(cuts.size()) - 1, 1,
                      [&](Index cb, Index ce) {
            for (Index c = cb; c < ce; ++c)
                kt.csrSpmvRange(m, x, y,
                                cuts[static_cast<std::size_t>(c)],
                                cuts[static_cast<std::size_t>(c) + 1]);
        });
        return;
      }
      case Format::kBcsr: {
        const auto& m = a.as<fmt::BcsrMatrix>();
        noteDispatch(Format::kBcsr, obs::DispatchPath::kRows);
        const PlanCache::PlanPtr plan =
            cutsPlan(a, PlanKind::kRowCuts, m.blockRowPtr(),
                     m.numBlockRows(), chunk_goal);
        const std::vector<Index>& cuts = plan->cuts;
        e.parallelFor(0, static_cast<Index>(cuts.size()) - 1, 1,
                      [&](Index cb, Index ce) {
            sim::NativeExec ne;
            for (Index c = cb; c < ce; ++c)
                kern::spmvBcsrRange(
                    m, x, y, cuts[static_cast<std::size_t>(c)],
                    cuts[static_cast<std::size_t>(c) + 1], ne);
        });
        return;
      }
      case Format::kEll: {
        // Row-independent slabs: any row split gives the serial bits.
        const auto& m = a.as<fmt::EllMatrix>();
        noteDispatch(Format::kEll, obs::DispatchPath::kRows);
        const simd::KernelTable& kt = simd::kernels();
        e.parallelFor(0, m.rows(), 64, [&](Index rb, Index re) {
            kt.ellSpmvRange(m, x, y, rb, re);
        });
        return;
      }
      case Format::kDia: {
        const auto& m = a.as<fmt::DiaMatrix>();
        noteDispatch(Format::kDia, obs::DispatchPath::kRows);
        e.parallelFor(0, m.rows(), 64, [&](Index rb, Index re) {
            sim::NativeExec ne;
            kern::spmvDiaRange(m, x, y, rb, re, ne);
        });
        return;
      }
      case Format::kDense: {
        const auto& m = a.as<fmt::DenseMatrix>();
        noteDispatch(Format::kDense, obs::DispatchPath::kRows);
        e.parallelFor(0, m.rows(), 16, [&](Index rb, Index re) {
            sim::NativeExec ne;
            kern::spmvDenseRange(m, x, y, rb, re, ne);
        });
        return;
      }
      case Format::kSmash: {
        // §4.4 word walk over Bitmap-0, word-partitioned. Words can
        // straddle rows, so each worker accumulates into a private y
        // merged at the barrier; the per-range NZA base comes from
        // the (cached) parallel rank pre-scan.
        const auto& m = a.as<core::SmashMatrix>();
        noteDispatch(Format::kSmash, obs::DispatchPath::kWordWalk);
        const PlanCache::PlanPtr plan = wordWalkPlan(a, m, e);
        const PartitionPlan& part = *plan;
        const simd::KernelTable& kt = simd::kernels();
        scatterParallel(
            e, part.chunks(), y,
            [&](Index cb, Index ce, std::vector<Value>& local) {
                for (Index c = cb; c < ce; ++c) {
                    const Index wb = c * part.grain;
                    const Index we =
                        std::min(part.words, wb + part.grain);
                    kt.smashSpmvWords(
                        m, x, local, wb, we,
                        part.base[static_cast<std::size_t>(c)]);
                }
            });
        return;
      }
      case Format::kCoo: {
        const auto& m = a.as<fmt::CooMatrix>();
        noteDispatch(Format::kCoo, obs::DispatchPath::kScatter);
        scatterParallel(
            e, m.nnz(), y,
            [&](Index b, Index end, std::vector<Value>& local) {
                sim::NativeExec ne;
                kern::spmvCooRange(m, x, local, b, end, ne);
            });
        return;
      }
      case Format::kCsc: {
        const auto& m = a.as<fmt::CscMatrix>();
        noteDispatch(Format::kCsc, obs::DispatchPath::kScatter);
        scatterParallel(
            e, m.cols(), y,
            [&](Index b, Index end, std::vector<Value>& local) {
                sim::NativeExec ne;
                kern::spmvCscRange(m, x, local, b, end, ne);
            });
        return;
      }
    }
    SMASH_PANIC("unknown format tag");
}

/**
 * Multi-threaded CSR x CSC SpMM: the output is partitioned into
 * nnz-balanced row-range x column-band tiles (rows balanced by A's
 * row populations, bands by B's column populations) and each tile
 * runs the serial merge kernel — tiles write disjoint C regions, so
 * no synchronization is needed and work stealing absorbs skew.
 */
inline void
parallelSpmmCsr(const MatrixRef& aref, const MatrixRef& bref,
                fmt::DenseMatrix& c, exec::ParallelExec& e)
{
    const auto& a = aref.as<fmt::CsrMatrix>();
    const auto& b = bref.as<fmt::CscMatrix>();
    noteDispatch(Format::kCsr, obs::DispatchPath::kRowColTiles);
    // Row cuts from A's cache, column-band cuts from B's: both
    // operands may be long-lived registry encodings.
    const PlanCache::PlanPtr row_plan =
        cutsPlan(aref, PlanKind::kRowCuts, a.rowPtr(), a.rows(),
                 static_cast<Index>(e.threads()) * 2);
    const PlanCache::PlanPtr col_plan =
        cutsPlan(bref, PlanKind::kColCuts, b.colPtr(), b.cols(),
                 std::min<Index>(b.cols(), 2));
    const std::vector<Index>& row_cuts = row_plan->cuts;
    const std::vector<Index>& col_cuts = col_plan->cuts;
    const Index n_rows = static_cast<Index>(row_cuts.size()) - 1;
    const Index n_cols = static_cast<Index>(col_cuts.size()) - 1;
    e.parallelFor(0, n_rows * n_cols, 1, [&](Index tb, Index te) {
        sim::NativeExec ne;
        for (Index t = tb; t < te; ++t) {
            const auto ri = static_cast<std::size_t>(t / n_cols);
            const auto ci = static_cast<std::size_t>(t % n_cols);
            kern::spmmCsrRange(a, b, c, row_cuts[ri], row_cuts[ri + 1],
                               col_cuts[ci], col_cuts[ci + 1], ne);
        }
    });
}

/**
 * Multi-threaded CSR SpAdd: nnz-balanced row ranges merge into
 * per-thread scatter accumulators (private COO matrices), which
 * concatenate in range order — rows are disjoint and ascending, so
 * the result is canonical without a sort.
 */
inline fmt::CooMatrix
parallelSpaddCsr(const MatrixRef& aref, const fmt::CsrMatrix& b,
                 exec::ParallelExec& e)
{
    const auto& a = aref.as<fmt::CsrMatrix>();
    const PlanCache::PlanPtr plan = cutsPlan(
        aref, PlanKind::kSpaddCuts, a.rowPtr(), a.rows(),
        std::max<Index>(1, static_cast<Index>(e.threads())));
    const std::vector<Index>& cuts = plan->cuts;
    const auto n_ranges = static_cast<Index>(cuts.size()) - 1;
    std::vector<fmt::CooMatrix> locals(
        static_cast<std::size_t>(n_ranges));
    e.parallelFor(0, n_ranges, 1, [&](Index cb, Index ce) {
        sim::NativeExec ne;
        for (Index c = cb; c < ce; ++c)
            locals[static_cast<std::size_t>(c)] = kern::spaddCsrRange(
                a, b, cuts[static_cast<std::size_t>(c)],
                cuts[static_cast<std::size_t>(c) + 1], ne);
    });
    fmt::CooMatrix out(a.rows(), a.cols());
    for (const fmt::CooMatrix& local : locals)
        for (const fmt::CooEntry& entry : local.entries())
            out.add(entry.row, entry.col, entry.value);
    return out;
}

} // namespace detail

/**
 * y := y + A x through the format-agnostic dispatch layer.
 *
 * x may be given at logical length (cols); the engine pads it to
 * the format's operand length when needed. Under ParallelExec the
 * multi-threaded drivers run; any other execution model reaches
 * exactly the serial kernel the format/algo pair names.
 */
template <typename E>
void
spmv(const MatrixRef& a, const std::vector<Value>& x,
     std::vector<Value>& y, E& e, const SpmvOptions& opts)
{
    SMASH_CHECK(capabilities(a.format()).spmv, toString(a.format()),
                " has no SpMV kernel");
    const SpmvAlgo algo = detail::resolveAlgo(a.format(), opts);
    // Pad through the calling thread's arena: the buffer persists
    // across calls, so a warmed steady-state pad allocates nothing.
    std::vector<Value>& scratch = exec::ScratchArena::local().values(
        exec::ScratchArena::kPaddedX, 0);
    const std::vector<Value>& xp = detail::paddedX(a, x, scratch);

    if constexpr (std::is_same_v<std::decay_t<E>, exec::ParallelExec>) {
        // The parallel drivers run the formats' plain native
        // kernels. Explicitly requested serial-only variants are
        // rejected rather than silently downgraded; kAuto resolves
        // to the plain path even when a Bmu is supplied (the BMU is
        // a single serial scan unit).
        SMASH_CHECK(opts.algo == SpmvAlgo::kAuto ||
                        opts.algo == SpmvAlgo::kPlain,
                    "algo variants (unrolled/ideal/hw) are serial-only;"
                    " ParallelExec runs the plain native drivers");
        detail::parallelSpmv(a, xp, y, e);
        return;
    } else {
        if constexpr (!E::kSimulated)
            detail::noteDispatch(a.format(), obs::DispatchPath::kSerial);
        switch (a.format()) {
          case Format::kCoo:
            kern::spmvCoo(a.as<fmt::CooMatrix>(), xp, y, e);
            return;
          case Format::kCsr: {
            const auto& m = a.as<fmt::CsrMatrix>();
            if (algo == SpmvAlgo::kUnrolled) {
                kern::spmvCsrUnrolled(m, xp, y, e);
            } else if (algo == SpmvAlgo::kIdeal) {
                kern::spmvCsrIdeal(m, xp, y, e);
            } else if constexpr (!E::kSimulated) {
                // Native plain path: the ISA dispatch table (same
                // kernel the parallel driver runs per chunk, so
                // serial and parallel CSR results stay
                // bit-identical).
                simd::kernels().csrSpmvRange(m, xp, y, 0, m.rows());
            } else {
                kern::spmvCsr(m, xp, y, e);
            }
            return;
          }
          case Format::kCsc:
            kern::spmvCsc(a.as<fmt::CscMatrix>(), xp, y, e);
            return;
          case Format::kBcsr:
            kern::spmvBcsr(a.as<fmt::BcsrMatrix>(), xp, y, e);
            return;
          case Format::kEll: {
            const auto& m = a.as<fmt::EllMatrix>();
            if constexpr (!E::kSimulated) {
                // The table's canonical row sum, as for CSR: native
                // ELL and CSR answers agree bit for bit.
                simd::kernels().ellSpmvRange(m, xp, y, 0, m.rows());
            } else {
                kern::spmvEll(m, xp, y, e);
            }
            return;
          }
          case Format::kDia:
            kern::spmvDia(a.as<fmt::DiaMatrix>(), xp, y, e);
            return;
          case Format::kDense:
            kern::spmvDense(a.as<fmt::DenseMatrix>(), xp, y, e);
            return;
          case Format::kSmash: {
            const auto& m = a.as<core::SmashMatrix>();
            if (algo == SpmvAlgo::kHw) {
                kern::spmvSmashHw(m, *opts.bmu, xp, y, e);
            } else if constexpr (!E::kSimulated) {
                // Native software walk: the ISA dispatch table's
                // BMI2/popcnt word walk over the whole Bitmap-0.
                simd::kernels().smashSpmvWords(
                    m, xp, y, 0, m.hierarchy().level(0).numWords(),
                    0);
            } else {
                kern::spmvSmashSw(m, xp, y, e);
            }
            return;
          }
        }
        SMASH_PANIC("unknown format tag");
    }
}

/**
 * Batched SpMV through the dispatch layer: Y := Y + A X for a block
 * of right-hand sides, one per column of X and Y (A.rows() rows).
 * X may be given at the logical height A.cols() or padded up to
 * A.xLength(). Each column is staged in the calling thread's arena
 * and runs spmv() under the same execution model, so a batched
 * column equals the unbatched answer bit for bit, whatever the
 * format, the batch width or the thread count. This is the serving
 * layer's SpMM request path (one logical SpMV per column of B).
 */
template <typename E>
void
spmvBatch(const MatrixRef& a, const fmt::DenseMatrix& x,
          fmt::DenseMatrix& y, E& e)
{
    SMASH_CHECK(x.rows() >= a.cols(), "X block has ", x.rows(),
                " rows, the matrix has ", a.cols(), " columns");
    SMASH_CHECK(y.rows() >= a.rows(), "Y block too short");
    SMASH_CHECK(x.cols() == y.cols(), "X carries ", x.cols(),
                " right-hand sides, Y carries ", y.cols());
    const Index xlen = std::max(x.rows(), a.xLength());
    exec::ScratchArena& arena = exec::ScratchArena::local();
    std::vector<Value>& xr = arena.values(
        exec::ScratchArena::kBatchXr, static_cast<std::size_t>(xlen));
    std::vector<Value>& yr = arena.values(
        exec::ScratchArena::kBatchYr,
        static_cast<std::size_t>(y.rows()));
    // The arena only grows: an earlier, taller call can leave stale
    // values in the operand tail the format reads past x.rows().
    std::fill(xr.begin() + static_cast<std::ptrdiff_t>(x.rows()),
              xr.begin() + static_cast<std::ptrdiff_t>(xlen), Value(0));
    for (Index r = 0; r < x.cols(); ++r) {
        for (Index j = 0; j < x.rows(); ++j)
            xr[static_cast<std::size_t>(j)] = x.at(j, r);
        for (Index i = 0; i < y.rows(); ++i)
            yr[static_cast<std::size_t>(i)] = y.at(i, r);
        spmv(a, xr, yr, e);
        for (Index i = 0; i < y.rows(); ++i)
            y.at(i, r) = yr[static_cast<std::size_t>(i)];
    }
}

/**
 * C := C + A B through the dispatch layer. The B operand's
 * expected encoding follows A's format (the kernels' operand
 * pairing): CSR takes B as CSC; BCSR and SMASH take B-transposed in
 * their own format; dense takes dense.
 */
template <typename E>
void
spmm(const MatrixRef& a, const MatrixRef& b, fmt::DenseMatrix& c, E& e,
     const SpmvOptions& opts = {})
{
    SMASH_CHECK(capabilities(a.format()).spmm, toString(a.format()),
                " has no SpMM kernel");
    const SpmvAlgo algo = detail::resolveAlgo(a.format(), opts);
    if constexpr (std::is_same_v<std::decay_t<E>, exec::ParallelExec>) {
        // The ROADMAP's parallel SpMM driver: row-range x
        // column-band output tiles for the CSR merge kernel. Other
        // formats (and the serial-only algo variants) run their
        // serial kernels on the calling thread — ParallelExec's
        // hooks are no-ops, so results are identical.
        if (a.format() == Format::kCsr && algo == SpmvAlgo::kPlain) {
            detail::parallelSpmmCsr(a, b, c, e);
            return;
        }
    }
    switch (a.format()) {
      case Format::kCsr: {
        const auto& bm = b.as<fmt::CscMatrix>();
        if (algo == SpmvAlgo::kIdeal)
            kern::spmmCsrIdeal(a.as<fmt::CsrMatrix>(), bm, c, e);
        else
            kern::spmmCsr(a.as<fmt::CsrMatrix>(), bm, c, e);
        return;
      }
      case Format::kBcsr:
        kern::spmmBcsr(a.as<fmt::BcsrMatrix>(), b.as<fmt::BcsrMatrix>(),
                       c, e);
        return;
      case Format::kDense:
        kern::spmmDense(a.as<fmt::DenseMatrix>(),
                        b.as<fmt::DenseMatrix>(), c, e);
        return;
      case Format::kSmash: {
        const auto& am = a.as<core::SmashMatrix>();
        const auto& bm = b.as<core::SmashMatrix>();
        if (algo == SpmvAlgo::kHw)
            kern::spmmSmashHw(am, bm, *opts.bmu, c, e);
        else
            kern::spmmSmashSw(am, bm, c, e);
        return;
      }
      default:
        SMASH_PANIC("capability table out of sync with spmm dispatch");
    }
}

/**
 * C := A B as sparse output (CSR) through the dispatch layer — the
 * SpGEMM family, where A's format picks the traversal (Gustavson
 * row-merge for CSR, outer-product for CSC, bitmap scan for SMASH)
 * and B is always row-major CSR.
 */
template <typename E>
fmt::CsrMatrix
spgemm(const MatrixRef& a, const fmt::CsrMatrix& b, E& e,
       const SpmvOptions& opts = {})
{
    SMASH_CHECK(capabilities(a.format()).spgemm, toString(a.format()),
                " has no SpGEMM kernel");
    const SpmvAlgo algo = detail::resolveAlgo(a.format(), opts);
    switch (a.format()) {
      case Format::kCsr:
        return kern::spgemmGustavson(a.as<fmt::CsrMatrix>(), b, e);
      case Format::kCsc:
        return kern::spgemmOuter(a.as<fmt::CscMatrix>(), b, e);
      case Format::kSmash: {
        const auto& am = a.as<core::SmashMatrix>();
        if (algo == SpmvAlgo::kHw)
            return kern::spgemmSmashHw(am, *opts.bmu, b, e);
        return kern::spgemmSmashSw(am, b, e);
      }
      default:
        SMASH_PANIC("capability table out of sync with spgemm dispatch");
    }
}

/** Variant selector of spadd(). */
enum class SpaddAlgo
{
    kPlain, //!< the format's baseline kernel
    kIdeal, //!< CSR only: free-indexing idealism (Fig. 3)
};

/**
 * A + B through the dispatch layer. Operands must share a format
 * with SpAdd capability (CSR, SMASH, dense); the result is returned
 * in that format family (CSR addition yields canonical COO, the
 * kernels' native output).
 */
template <typename E>
SparseMatrixAny
spadd(const MatrixRef& a, const MatrixRef& b, E& e,
      SpaddAlgo algo = SpaddAlgo::kPlain)
{
    SMASH_CHECK(a.format() == b.format(),
                "spadd operands must share a format, got ",
                toString(a.format()), " + ", toString(b.format()));
    SMASH_CHECK(capabilities(a.format()).spadd, toString(a.format()),
                " has no SpAdd kernel");
    SMASH_CHECK(algo == SpaddAlgo::kPlain || a.format() == Format::kCsr,
                "the ideal SpAdd variant applies to CSR only");
    if constexpr (std::is_same_v<std::decay_t<E>, exec::ParallelExec>) {
        // Parallel SpAdd drivers: CSR merges nnz-balanced row
        // ranges into per-thread accumulators; dense adds
        // element-parallel. SMASH (a serial bitmap-union walk) and
        // the ideal variant fall through to the serial kernels.
        if (a.format() == Format::kCsr && algo == SpaddAlgo::kPlain) {
            return SparseMatrixAny(detail::parallelSpaddCsr(
                a, b.as<fmt::CsrMatrix>(), e));
        }
        if (a.format() == Format::kDense) {
            const auto& am = a.as<fmt::DenseMatrix>();
            const auto& bm = b.as<fmt::DenseMatrix>();
            SMASH_CHECK(am.rows() == bm.rows() && am.cols() == bm.cols(),
                        "operand shapes differ");
            fmt::DenseMatrix c(am.rows(), am.cols());
            const auto n = static_cast<Index>(c.data().size());
            e.parallelFor(0, n, 4096, [&](Index eb, Index ee) {
                for (Index i = eb; i < ee; ++i) {
                    auto si = static_cast<std::size_t>(i);
                    c.data()[si] = am.data()[si] + bm.data()[si];
                }
            });
            return SparseMatrixAny(std::move(c));
        }
    }
    switch (a.format()) {
      case Format::kCsr: {
        const auto& am = a.as<fmt::CsrMatrix>();
        const auto& bm = b.as<fmt::CsrMatrix>();
        return SparseMatrixAny(algo == SpaddAlgo::kIdeal
                                   ? kern::spaddCsrIdeal(am, bm, e)
                                   : kern::spaddCsr(am, bm, e));
      }
      case Format::kSmash:
        return SparseMatrixAny(kern::spaddSmash(
            a.as<core::SmashMatrix>(), b.as<core::SmashMatrix>(), e));
      case Format::kDense: {
        fmt::DenseMatrix c(a.rows(), a.cols());
        kern::spaddDense(a.as<fmt::DenseMatrix>(),
                         b.as<fmt::DenseMatrix>(), c, e);
        return SparseMatrixAny(std::move(c));
      }
      default:
        SMASH_PANIC("capability table out of sync with spadd dispatch");
    }
}

} // namespace smash::eng

#endif // SMASH_ENGINE_DISPATCH_HH
