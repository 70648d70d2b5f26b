/**
 * @file
 * Batched SpMV: Y := Y + A X for a block of right-hand sides held
 * column-per-request in a dense operand (X is xLength x nrhs, Y is
 * rows x nrhs, both row-major). One traversal of the sparse operand
 * serves every RHS — the serving-throughput path the ROADMAP names:
 * the per-non-zero indexing work (row_ptr walks, column loads, the
 * x pointer chase, bitmap scans) is paid once and the inner
 * nrhs-wide update is a contiguous, vectorizable row of X against a
 * contiguous row of Y.
 *
 * Kernels mirror the single-RHS row-range entry points in spmv.hh:
 * disjoint row ranges touch disjoint Y rows, so the engine's
 * parallel driver hands one range per worker with no
 * synchronization. As in spmv.hh, one source serves NativeExec and
 * SimExec; the engine's native CSR and SMASH batches run the
 * simd::kernels() table instead.
 */

#ifndef SMASH_KERNELS_SPMV_BATCH_HH
#define SMASH_KERNELS_SPMV_BATCH_HH

#include <vector>

#include "common/logging.hh"
#include "core/block_cursor.hh"
#include "core/smash_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"
#include "formats/dia_matrix.hh"
#include "formats/ell_matrix.hh"
#include "kernels/costs.hh"
#include "kernels/util.hh"
#include "sim/core_model.hh"

namespace smash::kern
{

namespace detail
{

/** Shared operand checks of every batched kernel. */
inline Index
batchWidth(Index a_rows, Index a_x_len, const fmt::DenseMatrix& x,
           const fmt::DenseMatrix& y)
{
    SMASH_CHECK(x.cols() == y.cols(), "X carries ", x.cols(),
                " right-hand sides, Y carries ", y.cols());
    SMASH_CHECK(x.rows() >= a_x_len, "X block too short: ", x.rows(),
                " rows, operand needs ", a_x_len);
    SMASH_CHECK(y.rows() >= a_rows, "Y block too short");
    return x.cols();
}

} // namespace detail

/**
 * Batched CSR SpMV over rows [row_begin, row_end): the Code
 * Listing 1 loop with an nrhs-wide inner update. Indexing cost per
 * non-zero is identical to spmvCsrRange; only the useful work
 * scales with the batch.
 */
template <typename E>
void
spmvBatchCsrRange(const fmt::CsrMatrix& a, const fmt::DenseMatrix& x,
                  fmt::DenseMatrix& y, Index row_begin, Index row_end,
                  E& e)
{
    const Index nrhs = detail::batchWidth(a.rows(), a.cols(), x, y);
    const int vops = cost::vectorOps(nrhs);
    const auto& row_ptr = a.rowPtr();
    const auto& col_ind = a.colInd();
    const auto& values = a.values();

    for (Index i = row_begin; i < row_end; ++i) {
        auto si = static_cast<std::size_t>(i);
        e.load(&row_ptr[si + 1], sizeof(fmt::CsrIndex));
        Value* yr = &y.at(i, 0);
        for (fmt::CsrIndex j = row_ptr[si]; j < row_ptr[si + 1]; ++j) {
            auto sj = static_cast<std::size_t>(j);
            e.load(&col_ind[sj], sizeof(fmt::CsrIndex));
            const fmt::CsrIndex col = col_ind[sj];
            const Value* xr = x.rowData(static_cast<Index>(col));
            // One chase per non-zero fetches a whole RHS row.
            e.load(xr, static_cast<std::size_t>(nrhs) * sizeof(Value),
                   sim::Dep::kDependent);
            e.load(&values[sj], sizeof(Value));
            const Value v = values[sj];
            for (Index r = 0; r < nrhs; ++r)
                yr[r] += v * xr[r];
            e.op(vops + cost::kLoop);
        }
        e.store(yr, static_cast<std::size_t>(nrhs) * sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/** Batched ELL SpMV over rows [row_begin, row_end). */
template <typename E>
void
spmvBatchEllRange(const fmt::EllMatrix& a, const fmt::DenseMatrix& x,
                  fmt::DenseMatrix& y, Index row_begin, Index row_end,
                  E& e)
{
    const Index nrhs = detail::batchWidth(a.rows(), a.cols(), x, y);
    const int vops = cost::vectorOps(nrhs);
    const auto& col_ind = a.colInd();
    const auto& values = a.values();
    const Index width = a.width();
    // Raw row-major walks: X and Y both carry nrhs columns
    // (batchWidth checked), so row r starts at r * nrhs.
    const Value* xp = x.data().data();
    Value* yp = y.data().data();
    const auto ld = static_cast<std::size_t>(nrhs);

    for (Index i = row_begin; i < row_end; ++i) {
        Value* yr = yp + static_cast<std::size_t>(i) * ld;
        for (Index k = 0; k < width; ++k) {
            auto slot = static_cast<std::size_t>(i * width + k);
            e.load(&col_ind[slot], sizeof(fmt::CsrIndex));
            e.op(cost::kCompareBranch);
            if (col_ind[slot] == fmt::kEllPad)
                break;
            const Value* xr =
                xp + static_cast<std::size_t>(col_ind[slot]) * ld;
            e.load(xr, static_cast<std::size_t>(nrhs) * sizeof(Value),
                   sim::Dep::kDependent);
            e.load(&values[slot], sizeof(Value));
            const Value v = values[slot];
            for (Index r = 0; r < nrhs; ++r)
                yr[r] += v * xr[r];
            e.op(vops + cost::kLoop);
        }
        e.store(yr, static_cast<std::size_t>(nrhs) * sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/** Batched DIA SpMV over rows [row_begin, row_end). */
template <typename E>
void
spmvBatchDiaRange(const fmt::DiaMatrix& a, const fmt::DenseMatrix& x,
                  fmt::DenseMatrix& y, Index row_begin, Index row_end,
                  E& e)
{
    const Index nrhs = detail::batchWidth(a.rows(), a.cols(), x, y);
    const int vops = cost::vectorOps(nrhs);
    const Index cols = a.cols();
    const Value* xp = x.data().data();
    Value* yp = y.data().data();
    const auto ld = static_cast<std::size_t>(nrhs);

    for (Index d = 0; d < a.numDiagonals(); ++d) {
        e.load(&a.offsets()[static_cast<std::size_t>(d)], sizeof(Index));
        const Index off = a.offsets()[static_cast<std::size_t>(d)];
        const Value* lane = a.laneData(d);
        const Index r_begin = std::max(row_begin, off < 0 ? -off : 0);
        const Index r_end = std::min(row_end, cols - off);
        e.op(2 * cost::kAddrCalc);
        for (Index r = r_begin; r < r_end; ++r) {
            auto sr = static_cast<std::size_t>(r);
            e.load(&lane[sr], sizeof(Value));
            const Value v = lane[sr];
            const Value* xr =
                xp + static_cast<std::size_t>(r + off) * ld;
            Value* yr = yp + sr * ld;
            e.load(xr, static_cast<std::size_t>(nrhs) * sizeof(Value));
            for (Index k = 0; k < nrhs; ++k)
                yr[k] += v * xr[k];
            e.store(yr, static_cast<std::size_t>(nrhs) * sizeof(Value));
            e.op(vops + cost::kLoop);
        }
        e.op(cost::kOuterLoop);
    }
}

/** Batched dense SpMV over rows [row_begin, row_end). */
template <typename E>
void
spmvBatchDenseRange(const fmt::DenseMatrix& a, const fmt::DenseMatrix& x,
                    fmt::DenseMatrix& y, Index row_begin, Index row_end,
                    E& e)
{
    const Index nrhs = detail::batchWidth(a.rows(), a.cols(), x, y);
    const int vops = cost::vectorOps(nrhs);
    const Index cols = a.cols();

    for (Index i = row_begin; i < row_end; ++i) {
        const Value* row = a.rowData(i);
        e.load(row, static_cast<std::size_t>(cols) * sizeof(Value));
        Value* yr = &y.at(i, 0);
        for (Index c = 0; c < cols; ++c) {
            const Value v = row[c];
            const Value* xr = x.rowData(c);
            e.load(xr, static_cast<std::size_t>(nrhs) * sizeof(Value));
            for (Index r = 0; r < nrhs; ++r)
                yr[r] += v * xr[r];
            e.op(vops + cost::kLoop);
        }
        e.store(yr, static_cast<std::size_t>(nrhs) * sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/**
 * Batched software SMASH SpMV: the hierarchy scan is billed once
 * per block via the cursor (identical to spmvSmashSw) and the
 * compute charge scales with the batch width.
 *
 * @param x must be padded to matrix.paddedCols() rows.
 */
template <typename E>
void
spmvBatchSmash(const core::SmashMatrix& a, const fmt::DenseMatrix& x,
               fmt::DenseMatrix& y, E& e)
{
    const Index nrhs =
        detail::batchWidth(a.rows(), a.paddedCols(), x, y);
    const Index bs = a.blockSize();
    const int vops = cost::vectorOps(nrhs);

    core::BlockCursor cursor(a);
    cursor.setRecordTouches(E::kSimulated);
    core::BlockPosition pos;
    ScanBiller biller(ScanBiller::kSoftwareStreamBase);
    while (cursor.next(pos)) {
        biller.charge(cursor, e);
        e.op(2 + cost::kAddrCalc);
        const Value* blk = a.blockData(pos.nzaBlock);
        e.load(blk, static_cast<std::size_t>(bs) * sizeof(Value));
        Value* yr = &y.at(pos.row, 0);
        for (Index k = 0; k < bs; ++k) {
            const Value v = blk[k];
            if (v == Value(0))
                continue;
            const Value* xr = x.rowData(pos.colStart + k);
            e.load(xr, static_cast<std::size_t>(nrhs) * sizeof(Value));
            for (Index r = 0; r < nrhs; ++r)
                yr[r] += v * xr[r];
            e.op(vops);
        }
        e.store(yr, static_cast<std::size_t>(nrhs) * sizeof(Value));
        e.op(cost::kLoop);
    }
}

} // namespace smash::kern

#endif // SMASH_KERNELS_SPMV_BATCH_HH
