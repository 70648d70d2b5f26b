#include "engine/mutate.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace smash::eng
{

namespace
{

/** Rebuild @p m from freshly merged triples (validates invariants). */
void
adopt(fmt::CsrMatrix& m, std::vector<fmt::CsrIndex> row_ptr,
      std::vector<fmt::CsrIndex> col_ind, std::vector<Value> values)
{
    m = fmt::CsrMatrix::fromRaw(m.rows(), m.cols(), std::move(row_ptr),
                                std::move(col_ind), std::move(values));
}

} // namespace

MutationStats
applyUpdates(fmt::CsrMatrix& m, const fmt::CooMatrix& deltas)
{
    SMASH_CHECK(deltas.isCanonical(),
                "applyUpdates requires canonical COO deltas");
    SMASH_CHECK(deltas.rows() == m.rows() && deltas.cols() == m.cols(),
                "delta shape ", deltas.rows(), "x", deltas.cols(),
                " does not match matrix ", m.rows(), "x", m.cols());
    MutationStats stats;
    if (deltas.nnz() == 0)
        return stats;

    const std::vector<fmt::CsrIndex>& row_ptr = m.rowPtr();
    const std::vector<fmt::CsrIndex>& col_ind = m.colInd();
    const std::vector<Value>& values = m.values();
    const std::vector<fmt::CooEntry>& ds = deltas.entries();

    std::vector<fmt::CsrIndex> new_ptr(
        static_cast<std::size_t>(m.rows()) + 1, 0);
    std::vector<fmt::CsrIndex> new_col;
    std::vector<Value> new_val;
    new_col.reserve(col_ind.size() + ds.size());
    new_val.reserve(values.size() + ds.size());

    std::size_t d = 0; // cursor into the sorted delta entries
    for (Index r = 0; r < m.rows(); ++r) {
        auto k = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(r)]);
        const auto k_end = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(r) + 1]);
        // Two-pointer merge of the stored row and this row's deltas.
        while (k < k_end || (d < ds.size() && ds[d].row == r)) {
            const bool have_delta = d < ds.size() && ds[d].row == r;
            const Index sc = k < k_end ? Index(col_ind[k])
                                       : Index(-1);
            // Past the first branch have_delta always holds: the
            // loop guard admits !have_delta only with k < k_end,
            // which the first branch then consumes.
            if (k < k_end &&
                (!have_delta || sc < ds[d].col)) {
                new_col.push_back(col_ind[k]);
                new_val.push_back(values[k]);
                ++k;
            } else if (k < k_end && sc == ds[d].col) {
                // Coordinate stored and updated: sum, drop on exact
                // cancellation.
                const Value sum = values[k] + ds[d].value;
                if (sum == Value(0)) {
                    ++stats.removed;
                } else {
                    new_col.push_back(col_ind[k]);
                    new_val.push_back(sum);
                    ++stats.updated;
                }
                ++k;
                ++d;
            } else {
                // Delta names an unstored coordinate: insert (COO
                // canonicalization already dropped zero values).
                new_col.push_back(static_cast<fmt::CsrIndex>(ds[d].col));
                new_val.push_back(ds[d].value);
                ++stats.inserted;
                ++d;
            }
        }
        new_ptr[static_cast<std::size_t>(r) + 1] =
            static_cast<fmt::CsrIndex>(new_col.size());
    }
    adopt(m, std::move(new_ptr), std::move(new_col), std::move(new_val));
    return stats;
}

MutationStats
replaceRows(fmt::CsrMatrix& m, const std::vector<Index>& rows,
            const fmt::CooMatrix& replacement)
{
    SMASH_CHECK(replacement.isCanonical(),
                "replaceRows requires canonical COO replacement rows");
    SMASH_CHECK(replacement.rows() == m.rows() &&
                    replacement.cols() == m.cols(),
                "replacement shape ", replacement.rows(), "x",
                replacement.cols(), " does not match matrix ",
                m.rows(), "x", m.cols());
    MutationStats stats;
    if (rows.empty()) {
        SMASH_CHECK(replacement.nnz() == 0,
                    "replacement entries but no rows listed");
        return stats;
    }

    std::vector<bool> replaced(static_cast<std::size_t>(m.rows()),
                               false);
    for (Index r : rows) {
        SMASH_CHECK(r >= 0 && r < m.rows(), "replaceRows: row ", r,
                    " out of range for ", m.rows(), " rows");
        replaced[static_cast<std::size_t>(r)] = true;
    }
    for (const fmt::CooEntry& e : replacement.entries())
        SMASH_CHECK(replaced[static_cast<std::size_t>(e.row)],
                    "replacement entry at row ", e.row,
                    " which is not listed for replacement");

    const std::vector<fmt::CsrIndex>& row_ptr = m.rowPtr();
    const std::vector<fmt::CsrIndex>& col_ind = m.colInd();
    const std::vector<Value>& values = m.values();
    const std::vector<fmt::CooEntry>& rs = replacement.entries();

    std::vector<fmt::CsrIndex> new_ptr(
        static_cast<std::size_t>(m.rows()) + 1, 0);
    std::vector<fmt::CsrIndex> new_col;
    std::vector<Value> new_val;
    new_col.reserve(col_ind.size() + rs.size());
    new_val.reserve(values.size() + rs.size());

    std::size_t d = 0; // cursor into the sorted replacement entries
    for (Index r = 0; r < m.rows(); ++r) {
        const auto k0 = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(r)]);
        const auto k1 = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(r) + 1]);
        if (!replaced[static_cast<std::size_t>(r)]) {
            for (std::size_t k = k0; k < k1; ++k) {
                new_col.push_back(col_ind[k]);
                new_val.push_back(values[k]);
            }
        } else {
            // Old content leaves the structure; the replacement row
            // (possibly empty) enters it. Coordinates present on
            // both sides are value updates, not structural churn.
            std::size_t k = k0;
            std::size_t d0 = d;
            while (d < rs.size() && rs[d].row == r)
                ++d;
            std::size_t dn = d0;
            while (k < k1 || dn < d) {
                const Index sc = k < k1 ? Index(col_ind[k]) : Index(-1);
                if (k < k1 && (dn >= d || sc < rs[dn].col)) {
                    ++stats.removed;
                    ++k;
                } else if (k < k1 && sc == rs[dn].col) {
                    new_col.push_back(col_ind[k]);
                    new_val.push_back(rs[dn].value);
                    ++stats.updated;
                    ++k;
                    ++dn;
                } else {
                    new_col.push_back(
                        static_cast<fmt::CsrIndex>(rs[dn].col));
                    new_val.push_back(rs[dn].value);
                    ++stats.inserted;
                    ++dn;
                }
            }
        }
        new_ptr[static_cast<std::size_t>(r) + 1] =
            static_cast<fmt::CsrIndex>(new_col.size());
    }
    adopt(m, std::move(new_ptr), std::move(new_col), std::move(new_val));
    return stats;
}

MutationStats
scaleValues(fmt::CsrMatrix& m, Value factor)
{
    MutationStats stats;
    if (m.nnz() == 0 || factor == Value(1))
        return stats;
    // Values-only: scale in place — no index copies, no structural
    // re-validation, and minimal time under the caller's slot lock.
    m.scaleValues(factor);
    stats.updated = m.nnz();
    return stats;
}

} // namespace smash::eng
