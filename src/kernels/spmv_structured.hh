/**
 * @file
 * SpMV kernels for the structure-specialized formats (DIA, ELL).
 * These complete the format spectrum of the paper's §2.3 discussion:
 * DIA wins outright on banded matrices and drowns in padding on
 * unstructured ones, while ELL sits between CSR and BCSR. Both use
 * regular, pointer-chase-free traversals, so their indexing cost is
 * pure padding overhead — the mirror image of CSR, whose cost is
 * pure indirection.
 */

#ifndef SMASH_KERNELS_SPMV_STRUCTURED_HH
#define SMASH_KERNELS_SPMV_STRUCTURED_HH

#include <vector>

#include "common/logging.hh"
#include "formats/dia_matrix.hh"
#include "formats/ell_matrix.hh"
#include "kernels/costs.hh"
#include "sim/core_model.hh"

namespace smash::kern
{

/**
 * DIA SpMV restricted to rows [row_begin, row_end): every stored
 * diagonal is walked over the slice of rows it intersects. Disjoint
 * row ranges touch disjoint y entries, so the parallel driver hands
 * one range to each worker.
 */
template <typename E>
void
spmvDiaRange(const fmt::DiaMatrix& a, const std::vector<Value>& x,
             std::vector<Value>& y, Index row_begin, Index row_end, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const Index cols = a.cols();

    for (Index d = 0; d < a.numDiagonals(); ++d) {
        e.load(&a.offsets()[static_cast<std::size_t>(d)], sizeof(Index));
        const Index off = a.offsets()[static_cast<std::size_t>(d)];
        const Value* lane = a.laneData(d);
        // Row range for which column r + off stays inside the matrix.
        const Index r_begin = std::max(row_begin, off < 0 ? -off : 0);
        const Index r_end = std::min(row_end, cols - off);
        e.op(2 * cost::kAddrCalc);
        for (Index r = r_begin; r < r_end; ++r) {
            auto sr = static_cast<std::size_t>(r);
            e.load(&lane[sr], sizeof(Value));
            e.load(&x[static_cast<std::size_t>(r + off)], sizeof(Value));
            y[sr] += lane[sr] * x[static_cast<std::size_t>(r + off)];
            e.load(&y[sr], sizeof(Value));
            e.store(&y[sr], sizeof(Value));
            e.op(cost::kFma + cost::kLoop);
        }
        e.op(cost::kOuterLoop);
    }
}

/**
 * DIA SpMV: one dense lane pass per stored diagonal. All accesses
 * are unit-stride (lane, x window, y window); there is no indexing
 * metadata beyond one offset per diagonal. Stored padding zeros are
 * multiplied like any other slot, which is exactly DIA's cost model.
 */
template <typename E>
void
spmvDia(const fmt::DiaMatrix& a, const std::vector<Value>& x,
        std::vector<Value>& y, E& e)
{
    spmvDiaRange(a, x, y, 0, a.rows(), e);
}

/**
 * ELL SpMV over the row range [row_begin, row_end); disjoint row
 * ranges are parallel-safe (fixed-width slabs, private y rows).
 * This is the SimExec billing path: the engine's native ELL runs
 * simd::kernels().ellSpmvRange, whose canonical 8-lane row sum
 * matches native CSR bit for bit (this loop's one add chain per row
 * does not).
 */
template <typename E>
void
spmvEllRange(const fmt::EllMatrix& a, const std::vector<Value>& x,
             std::vector<Value>& y, Index row_begin, Index row_end, E& e)
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= a.cols(), "x too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= a.rows(), "y too short");
    const auto& col_ind = a.colInd();
    const auto& values = a.values();
    const Index width = a.width();

    for (Index r = row_begin; r < row_end; ++r) {
        Value acc = 0;
        for (Index k = 0; k < width; ++k) {
            std::size_t slot = static_cast<std::size_t>(r * width + k);
            e.load(&col_ind[slot], sizeof(fmt::CsrIndex));
            e.op(cost::kCompareBranch);
            if (col_ind[slot] == fmt::kEllPad)
                break;
            e.load(&x[static_cast<std::size_t>(col_ind[slot])],
                   sizeof(Value), sim::Dep::kDependent);
            e.load(&values[slot], sizeof(Value));
            acc += values[slot] *
                x[static_cast<std::size_t>(col_ind[slot])];
            e.op(cost::kFma + cost::kLoop);
        }
        auto sr = static_cast<std::size_t>(r);
        y[sr] += acc;
        e.store(&y[sr], sizeof(Value));
        e.op(cost::kOuterLoop);
    }
}

/**
 * ELL SpMV: fixed-width row slabs. The column index still gates the
 * x access (a dependent load, like CSR), but there is no row_ptr
 * indirection and the slab address arithmetic is pure register work.
 * Padding slots are skipped by the sentinel test, which still costs
 * the compare/branch.
 */
template <typename E>
void
spmvEll(const fmt::EllMatrix& a, const std::vector<Value>& x,
        std::vector<Value>& y, E& e)
{
    spmvEllRange(a, x, y, 0, a.rows(), e);
}

} // namespace smash::kern

#endif // SMASH_KERNELS_SPMV_STRUCTURED_HH
