/**
 * @file
 * Sparse Matrix-Vector multiplication (y := y + A x) in every
 * scheme the paper evaluates:
 *
 *  - spmvCsr          TACO-style CSR loop (paper Code Listing 1)
 *  - spmvCsrIdeal     CSR with free indexing (the Fig. 3 idealism)
 *  - spmvCsrUnrolled  software-optimized CSR (the MKL-like point)
 *  - spmvBcsr         register-blocked BCSR
 *  - spmvSmashSw      Software-only SMASH (§4.4: CLZ/AND scanning)
 *  - spmvSmashHw      SMASH with the BMU (§5.1, Algorithm 1)
 *
 * Every kernel is a template over the execution model E (NativeExec
 * or SimExec): identical source computes the real result and, under
 * SimExec, charges the cost model. Loads whose address depends on a
 * just-loaded value (x[col_ind[j]] in CSR) are tagged kDependent —
 * the pointer-chasing the paper identifies as the key bottleneck.
 * There is no second native copy: the engine's native CSR and SMASH
 * SpMV run the ISA-dispatched simd::kernels() table instead.
 */

#ifndef SMASH_KERNELS_SPMV_HH
#define SMASH_KERNELS_SPMV_HH

#include <vector>

#include "common/logging.hh"
#include "core/block_cursor.hh"
#include "core/smash_matrix.hh"
#include "formats/bcsr_matrix.hh"
#include "formats/coo_matrix.hh"
#include "formats/csc_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"
#include "isa/bmu.hh"
#include "kernels/costs.hh"
#include "kernels/util.hh"
#include "sim/core_model.hh"

namespace smash::kern
{

/**
 * COO SpMV over the entry range [entry_begin, entry_end): the
 * engine's parallel driver hands disjoint entry ranges to worker
 * threads (scattered y updates force per-thread accumulators).
 */
template <typename E>
void
spmvCooRange(const fmt::CooMatrix& a, const std::vector<Value>& x,
             std::vector<Value>& y, Index entry_begin, Index entry_end,
             E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& entries = a.entries();
    for (Index i = entry_begin; i < entry_end; ++i) {
        const fmt::CooEntry& entry = entries[static_cast<std::size_t>(i)];
        e.load(&entry, sizeof(fmt::CooEntry));
        e.load(&x[static_cast<std::size_t>(entry.col)], sizeof(Value),
               sim::Dep::kDependent);
        // The y update is a read-modify-write at a just-loaded row
        // index: bill the dependent load before the FMA it feeds.
        e.load(&y[static_cast<std::size_t>(entry.row)], sizeof(Value),
               sim::Dep::kDependent);
        y[static_cast<std::size_t>(entry.row)] +=
            entry.value * x[static_cast<std::size_t>(entry.col)];
        e.store(&y[static_cast<std::size_t>(entry.row)], sizeof(Value));
        e.op(cost::kFma + cost::kLoop);
    }
}

/**
 * COO SpMV: stream (row, col, value) triples. No pointer chasing,
 * but one extra index load per non-zero and a scattered y update —
 * the simplest general baseline (paper §2 cites COO among the
 * general formats).
 */
template <typename E>
void
spmvCoo(const fmt::CooMatrix& a, const std::vector<Value>& x,
        std::vector<Value>& y, E& e)
{
    spmvCooRange(a, x, y, 0, a.nnz(), e);
}

/**
 * CSC SpMV over the column range [col_begin, col_end). Columns
 * scatter into y, so parallel callers combine disjoint column
 * ranges with per-thread y accumulators.
 */
template <typename E>
void
spmvCscRange(const fmt::CscMatrix& a, const std::vector<Value>& x,
             std::vector<Value>& y, Index col_begin, Index col_end, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& col_ptr = a.colPtr();
    const auto& row_ind = a.rowInd();
    const auto& values = a.values();
    for (Index c = col_begin; c < col_end; ++c) {
        auto sc = static_cast<std::size_t>(c);
        e.load(&col_ptr[sc + 1], sizeof(fmt::CsrIndex));
        e.load(&x[sc], sizeof(Value));
        const Value xv = x[sc];
        for (fmt::CsrIndex j = col_ptr[sc]; j < col_ptr[sc + 1]; ++j) {
            auto sj = static_cast<std::size_t>(j);
            e.load(&row_ind[sj], sizeof(fmt::CsrIndex));
            e.load(&values[sj], sizeof(Value));
            fmt::CsrIndex row = row_ind[sj];
            y[static_cast<std::size_t>(row)] += values[sj] * xv;
            // The y update is a read-modify-write at a loaded index:
            // a dependent access, the CSC analogue of the chase.
            e.load(&y[static_cast<std::size_t>(row)], sizeof(Value),
                   sim::Dep::kDependent);
            e.store(&y[static_cast<std::size_t>(row)], sizeof(Value));
            e.op(cost::kFma + cost::kLoop);
        }
        e.op(cost::kOuterLoop);
    }
}

/**
 * CSC SpMV: column-major traversal; every column's contribution
 * scatters into y (gather from x becomes scatter to y).
 */
template <typename E>
void
spmvCsc(const fmt::CscMatrix& a, const std::vector<Value>& x,
        std::vector<Value>& y, E& e)
{
    spmvCscRange(a, x, y, 0, a.cols(), e);
}

/**
 * TACO-style CSR SpMV restricted to rows [row_begin, row_end).
 * Disjoint row ranges touch disjoint y entries, so the parallel
 * driver runs one range per worker with no synchronization.
 */
template <typename E>
void
spmvCsrRange(const fmt::CsrMatrix& a, const std::vector<Value>& x,
             std::vector<Value>& y, Index row_begin, Index row_end, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& row_ptr = a.rowPtr();
    const auto& col_ind = a.colInd();
    const auto& values = a.values();

    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        // row_ptr[i] is carried in a register from the last iteration.
        e.load(&row_ptr[si + 1], sizeof(fmt::CsrIndex));
        Value acc = 0;
        for (fmt::CsrIndex j = row_ptr[si]; j < row_ptr[si + 1]; ++j) {
            auto sj = static_cast<std::size_t>(j);
            // Indexing: stream col_ind, then chase into x.
            e.load(&col_ind[sj], sizeof(fmt::CsrIndex));
            fmt::CsrIndex col = col_ind[sj];
            e.load(&x[static_cast<std::size_t>(col)], sizeof(Value),
                   sim::Dep::kDependent);
            e.load(&values[sj], sizeof(Value));
            acc += values[sj] * x[static_cast<std::size_t>(col)];
            e.op(cost::kFma + cost::kLoop);
        }
        y[si] += acc;
        e.store(&y[si], sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/** TACO-style CSR SpMV (Code Listing 1). */
template <typename E>
void
spmvCsr(const fmt::CsrMatrix& a, const std::vector<Value>& x,
        std::vector<Value>& y, E& e)
{
    spmvCsrRange(a, x, y, 0, a.rows(), e);
}

/**
 * Idealized CSR SpMV (Fig. 3): discovering non-zero positions costs
 * nothing — no row_ptr/col_ind loads, no indexing arithmetic, and
 * the x access is no longer a pointer chase. Only the intrinsic
 * work remains: load the value, load x, multiply-accumulate.
 */
template <typename E>
void
spmvCsrIdeal(const fmt::CsrMatrix& a, const std::vector<Value>& x,
             std::vector<Value>& y, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& row_ptr = a.rowPtr();
    const auto& col_ind = a.colInd();
    const auto& values = a.values();

    for (Index i = 0; i < a.rows(); ++i) {
        auto si = static_cast<std::size_t>(i);
        Value acc = 0;
        for (fmt::CsrIndex j = row_ptr[si]; j < row_ptr[si + 1]; ++j) {
            auto sj = static_cast<std::size_t>(j);
            fmt::CsrIndex col = col_ind[sj]; // position known for free
            e.load(&x[static_cast<std::size_t>(col)], sizeof(Value));
            e.load(&values[sj], sizeof(Value));
            acc += values[sj] * x[static_cast<std::size_t>(col)];
            e.op(cost::kFma);
        }
        y[si] += acc;
        e.store(&y[si], sizeof(Value));
        e.op(1); // residual row-loop branch
    }
}

/**
 * Software-optimized CSR SpMV: 4-way unrolled inner loop with two
 * independent accumulators — the class of (format-orthogonal)
 * optimization closed-source MKL applies on top of CSR (§7.1).
 * Under simulation the indexing work per non-zero is identical to
 * spmvCsr; the unrolling shows up as reduced loop overhead.
 */
template <typename E>
void
spmvCsrUnrolled(const fmt::CsrMatrix& a, const std::vector<Value>& x,
                std::vector<Value>& y, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& row_ptr = a.rowPtr();
    const auto& col_ind = a.colInd();
    const auto& values = a.values();

    for (Index i = 0; i < a.rows(); ++i) {
        auto si = static_cast<std::size_t>(i);
        e.load(&row_ptr[si + 1], sizeof(fmt::CsrIndex));
        const fmt::CsrIndex begin = row_ptr[si];
        const fmt::CsrIndex end = row_ptr[si + 1];
        Value acc0 = 0, acc1 = 0;
        fmt::CsrIndex j = begin;
        for (; j + 4 <= end; j += 4) {
            for (int u = 0; u < 4; ++u) {
                auto sj = static_cast<std::size_t>(j + u);
                e.load(&col_ind[sj], sizeof(fmt::CsrIndex));
                fmt::CsrIndex col = col_ind[sj];
                e.load(&x[static_cast<std::size_t>(col)], sizeof(Value),
                       sim::Dep::kDependent);
                e.load(&values[sj], sizeof(Value));
                if (u & 1) {
                    acc1 += values[sj] * x[static_cast<std::size_t>(col)];
                } else {
                    acc0 += values[sj] * x[static_cast<std::size_t>(col)];
                }
                e.op(cost::kFma);
            }
            e.op(cost::kLoop); // one loop check per 4 elements
        }
        for (; j < end; ++j) {
            auto sj = static_cast<std::size_t>(j);
            e.load(&col_ind[sj], sizeof(fmt::CsrIndex));
            fmt::CsrIndex col = col_ind[sj];
            e.load(&x[static_cast<std::size_t>(col)], sizeof(Value),
                   sim::Dep::kDependent);
            e.load(&values[sj], sizeof(Value));
            acc0 += values[sj] * x[static_cast<std::size_t>(col)];
            e.op(cost::kFma + cost::kLoop);
        }
        y[si] += acc0 + acc1;
        e.store(&y[si], sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/**
 * BCSR SpMV over the block-row range [brow_begin, brow_end). Block
 * rows cover disjoint y row bands, so the parallel driver assigns
 * one range per worker without synchronization.
 */
template <typename E>
void
spmvBcsrRange(const fmt::BcsrMatrix& a, const std::vector<Value>& x,
              std::vector<Value>& y, Index brow_begin, Index brow_end,
              E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >=
                static_cast<Index>(
                    roundUp(static_cast<std::uint64_t>(a.cols()),
                            static_cast<std::uint64_t>(a.blockCols()))),
                "x must be padded to a block multiple");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& brow_ptr = a.blockRowPtr();
    const auto& bcol = a.blockCol();
    const auto& bval = a.blockValues();
    const Index br = a.blockRows();
    const Index bc = a.blockCols();
    const int x_vops = cost::vectorOps(bc);

    for (Index i = brow_begin; i < brow_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        e.load(&brow_ptr[si + 1], sizeof(fmt::CsrIndex));
        for (fmt::CsrIndex b = brow_ptr[si]; b < brow_ptr[si + 1]; ++b) {
            auto sb = static_cast<std::size_t>(b);
            e.load(&bcol[sb], sizeof(fmt::CsrIndex));
            const Index col0 = static_cast<Index>(bcol[sb]) * bc;
            const std::size_t base = sb * static_cast<std::size_t>(br * bc);
            // x slice is contiguous: one vector load per lane group.
            e.load(&x[static_cast<std::size_t>(col0)],
                   static_cast<std::size_t>(bc) * sizeof(Value),
                   sim::Dep::kDependent);
            e.op(x_vops - 1 + cost::kAddrCalc);
            for (Index lr = 0; lr < br; ++lr) {
                Index row = i * br + lr;
                if (row >= a.rows())
                    break;
                Value acc = 0;
                const Value* tile_row =
                    &bval[base + static_cast<std::size_t>(lr * bc)];
                e.load(tile_row,
                       static_cast<std::size_t>(bc) * sizeof(Value));
                for (Index lc = 0; lc < bc; ++lc)
                    acc += tile_row[lc] * x[static_cast<std::size_t>(
                        col0 + lc)];
                // One vector FMA per lane group + horizontal reduce.
                e.op(x_vops + cost::kHorizontalReduce);
                y[static_cast<std::size_t>(row)] += acc;
                e.store(&y[static_cast<std::size_t>(row)], sizeof(Value));
            }
            e.op(cost::kLoop);
        }
        e.op(cost::kOuterLoop);
    }
}

/**
 * BCSR SpMV: one column index per tile; tile payloads multiply a
 * contiguous (vectorizable) slice of x. Wasted work on the zeros
 * inside stored tiles is charged faithfully.
 */
template <typename E>
void
spmvBcsr(const fmt::BcsrMatrix& a, const std::vector<Value>& x,
         std::vector<Value>& y, E& e)
{
    spmvBcsrRange(a, x, y, 0, a.numBlockRows(), e);
}

/**
 * Software-only SMASH SpMV (§4.4): the bitmap hierarchy is walked
 * with explicit word loads and CLZ/AND register operations (charged
 * via the cursor's counters); block payloads are dense and
 * contiguous, so the multiply is vectorized, and the x slice
 * address comes from register arithmetic — no pointer chase.
 *
 * @param x must be padded to matrix.paddedCols() (see padVector()).
 */
template <typename E>
void
spmvSmashSw(const core::SmashMatrix& a, const std::vector<Value>& x,
            std::vector<Value>& y, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.paddedCols(),
                "x must be padded to paddedCols");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const Index bs = a.blockSize();
    const int vops = cost::vectorOps(bs);

    core::BlockCursor cursor(a);
    cursor.setRecordTouches(E::kSimulated);
    core::BlockPosition pos;
    ScanBiller biller(ScanBiller::kSoftwareStreamBase);
    while (cursor.next(pos)) {
        // Bill the scan work this step performed: each bitmap word
        // fetched is a load (from the compact bitmap stream); each
        // CLZ/AND is one instruction.
        biller.charge(cursor, e);
        // Index arithmetic: bit -> (row, colStart).
        e.op(2 + cost::kAddrCalc);

        const Value* block = a.blockData(pos.nzaBlock);
        e.load(block, static_cast<std::size_t>(bs) * sizeof(Value));
        e.load(&x[static_cast<std::size_t>(pos.colStart)],
               static_cast<std::size_t>(bs) * sizeof(Value));
        Value acc = 0;
        for (Index k = 0; k < bs; ++k)
            acc += block[k] * x[static_cast<std::size_t>(pos.colStart + k)];
        // One vector FMA per lane group, accumulator merges, reduce.
        e.op(2 * vops);
        y[static_cast<std::size_t>(pos.row)] += acc;
        e.store(&y[static_cast<std::size_t>(pos.row)], sizeof(Value));
        e.op(cost::kLoop);
    }
}

/**
 * Dense (uncompressed) SpMV over rows [row_begin, row_end): every
 * element is streamed and multiplied, zeros included — the paper's
 * dense baseline, here so the dispatch layer covers the full format
 * spectrum. Disjoint row ranges are parallel-safe.
 */
template <typename E>
void
spmvDenseRange(const fmt::DenseMatrix& a, const std::vector<Value>& x,
               std::vector<Value>& y, Index row_begin, Index row_end,
               E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const Index cols = a.cols();
    const int vops = cost::vectorOps(cols);
    for (Index r = row_begin; r < row_end; ++r) {
        const Value* row = a.rowData(r);
        e.load(row, static_cast<std::size_t>(cols) * sizeof(Value));
        e.load(x.data(), static_cast<std::size_t>(cols) * sizeof(Value));
        Value acc = 0;
        for (Index c = 0; c < cols; ++c)
            acc += row[c] * x[static_cast<std::size_t>(c)];
        e.op(vops + cost::kHorizontalReduce);
        auto sr = static_cast<std::size_t>(r);
        y[sr] += acc;
        e.store(&y[sr], sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/** Dense SpMV over the whole matrix. */
template <typename E>
void
spmvDense(const fmt::DenseMatrix& a, const std::vector<Value>& x,
          std::vector<Value>& y, E& e)
{
    spmvDenseRange(a, x, y, 0, a.rows(), e);
}

/**
 * Hardware-accelerated SMASH SpMV (§5.1, Algorithm 1): the BMU
 * walks the hierarchy; the core issues PBMAP/RDIND per non-zero
 * block and computes on dense block payloads. Bitmap traffic is the
 * BMU's own (overlapped) buffer refills.
 *
 * @param x must be padded to matrix.paddedCols().
 */
template <typename E>
void
spmvSmashHw(const core::SmashMatrix& a, isa::Bmu& bmu,
            const std::vector<Value>& x, std::vector<Value>& y, E& e,
            int grp = 0)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.paddedCols(),
                "x must be padded to paddedCols");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const Index bs = a.blockSize();
    const int vops = cost::vectorOps(bs);
    const core::HierarchyConfig& cfg = a.config();

    // --- Configuration phase (Algorithm 1, lines 2-8). ---
    bmu.clearGroup(grp);
    bmu.matinfo(a.rows(), a.paddedCols(), grp, e);
    for (int lvl = 0; lvl < cfg.levels(); ++lvl)
        bmu.bmapinfo(cfg.ratio(lvl), lvl, grp, e);
    for (int lvl = 0; lvl < cfg.levels(); ++lvl)
        bmu.rdbmap(&a.hierarchy().level(lvl), lvl, grp, e);

    // --- Scan + compute phase (lines 10-18). ---
    Index row = 0, col0 = 0;
    Index ctr_nz = 0;
    while (bmu.pbmap(grp, e)) {
        bmu.rdind(row, col0, grp, e);
        const Value* block = a.blockData(ctr_nz);
        e.load(block, static_cast<std::size_t>(bs) * sizeof(Value));
        // Address from the BMU output register: not a pointer chase.
        e.load(&x[static_cast<std::size_t>(col0)],
               static_cast<std::size_t>(bs) * sizeof(Value));
        Value acc = 0;
        for (Index k = 0; k < bs; ++k)
            acc += block[k] * x[static_cast<std::size_t>(col0 + k)];
        // One vector FMA per lane group, accumulator merges, reduce.
        e.op(2 * vops);
        y[static_cast<std::size_t>(row)] += acc;
        e.store(&y[static_cast<std::size_t>(row)], sizeof(Value));
        e.op(cost::kLoop);
        ++ctr_nz;
    }
    SMASH_CHECK(ctr_nz == a.numBlocks(),
                "BMU scan produced ", ctr_nz, " blocks, expected ",
                a.numBlocks());
}

} // namespace smash::kern

#endif // SMASH_KERNELS_SPMV_HH
