/**
 * @file
 * The engine's format-agnostic matrix types.
 *
 * MatrixRef is a non-owning (format tag, pointer) view that every
 * concrete matrix class converts to implicitly — the currency of
 * the dispatch layer, so existing call sites pass their CsrMatrix
 * or SmashMatrix with zero copies.
 *
 * SparseMatrixAny owns one matrix in any of the engine's formats
 * (a std::variant) and is what conversion and auto-selection
 * produce; it converts to MatrixRef like the concrete types.
 *
 * SparseMatrixAny also owns a PlanCache (engine/plan.hh): the
 * partition plans the parallel dispatch drivers compute for it are
 * memoized per instance, so steady-state re-dispatch over a
 * long-lived matrix skips the per-call partitioning setup. A held
 * matrix is immutable: content changes build a new SparseMatrixAny
 * (and with it a fresh cache) from the mutated CSR master.
 * MatrixRef carries a pointer to that cache when built from a
 * SparseMatrixAny (or explicitly attached via withPlans()); refs
 * built from bare concrete matrices carry none and the drivers fall
 * back to per-call partitioning.
 *
 * Ownership/threading contract: SparseMatrixAny owns its storage
 * outright; MatrixRef borrows and must not outlive the matrix it
 * views. Neither is internally synchronized — concurrent reads are
 * fine (the embedded PlanCache synchronizes itself).
 */

#ifndef SMASH_ENGINE_MATRIX_ANY_HH
#define SMASH_ENGINE_MATRIX_ANY_HH

#include <variant>
#include <vector>

#include "common/logging.hh"
#include "core/smash_matrix.hh"
#include "engine/format.hh"
#include "engine/plan.hh"
#include "formats/bcsr_matrix.hh"
#include "formats/coo_matrix.hh"
#include "formats/csc_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"
#include "formats/dia_matrix.hh"
#include "formats/ell_matrix.hh"

namespace smash::eng
{

/** Compile-time Format tag of each concrete matrix class. */
template <typename T> struct FormatOf;
template <> struct FormatOf<fmt::CooMatrix>
{ static constexpr Format value = Format::kCoo; };
template <> struct FormatOf<fmt::CsrMatrix>
{ static constexpr Format value = Format::kCsr; };
template <> struct FormatOf<fmt::CscMatrix>
{ static constexpr Format value = Format::kCsc; };
template <> struct FormatOf<fmt::BcsrMatrix>
{ static constexpr Format value = Format::kBcsr; };
template <> struct FormatOf<fmt::EllMatrix>
{ static constexpr Format value = Format::kEll; };
template <> struct FormatOf<fmt::DiaMatrix>
{ static constexpr Format value = Format::kDia; };
template <> struct FormatOf<fmt::DenseMatrix>
{ static constexpr Format value = Format::kDense; };
template <> struct FormatOf<core::SmashMatrix>
{ static constexpr Format value = Format::kSmash; };

class SparseMatrixAny;

/** Constrains MatrixRef construction to the known matrix classes. */
template <typename T>
concept EngineMatrix = requires { FormatOf<T>::value; };

/** Non-owning view of a matrix in any engine format. */
class MatrixRef
{
  public:
    template <EngineMatrix T>
    MatrixRef(const T& m) // NOLINT: implicit by design
        : format_(FormatOf<T>::value), ptr_(&m)
    {}

    MatrixRef(const SparseMatrixAny& m); // NOLINT: implicit by design

    Format format() const { return format_; }

    /** The owning matrix's plan cache, or null for refs over bare
     *  concrete matrices (drivers then partition per call). */
    const PlanCache* plans() const { return plans_; }

    /** This ref with @p plans attached — lets callers holding a
     *  concrete matrix opt into plan caching with an external
     *  cache whose lifetime they manage. */
    MatrixRef
    withPlans(const PlanCache& plans) const
    {
        MatrixRef r = *this;
        r.plans_ = &plans;
        return r;
    }

    Index rows() const;
    Index cols() const;
    Index nnz() const;

    /**
     * Length the x operand of y := A x must have: cols(), rounded
     * up to the format's block/padding granularity (BCSR block
     * columns, SMASH padded columns).
     */
    Index xLength() const;

    /** Typed access; fatal if the tag does not match. */
    template <typename T>
    const T&
    as() const
    {
        SMASH_CHECK(format_ == FormatOf<T>::value,
                    "matrix is ", toString(format_), ", requested ",
                    toString(FormatOf<T>::value));
        return *static_cast<const T*>(ptr_);
    }

  private:
    friend class SparseMatrixAny;

    Format format_;
    const void* ptr_;
    const PlanCache* plans_ = nullptr;
};

/** Owning holder of a matrix in any engine format. */
class SparseMatrixAny
{
  public:
    /** Per-format parameters of fromCoo() conversions. */
    struct BuildOptions
    {
        Index bcsrBlockRows = 4;
        Index bcsrBlockCols = 4;
        /** SMASH hierarchy in the paper's top-down notation. */
        std::vector<Index> smashHierarchy = {16, 4, 2};
    };

    template <typename T>
    explicit SparseMatrixAny(T m)
        : holder_(std::move(m)), plans_(std::make_shared<PlanCache>())
    {}

    // Copies get a fresh, empty plan cache: each instance owns its
    // own, so a copy's lifetime never depends on the original's.
    SparseMatrixAny(const SparseMatrixAny& o)
        : holder_(o.holder_), plans_(std::make_shared<PlanCache>())
    {}
    SparseMatrixAny&
    operator=(const SparseMatrixAny& o)
    {
        if (this != &o) {
            holder_ = o.holder_;
            plans_ = std::make_shared<PlanCache>();
        }
        return *this;
    }
    SparseMatrixAny(SparseMatrixAny&&) = default;
    SparseMatrixAny& operator=(SparseMatrixAny&&) = default;

    /** Encode a canonical COO matrix as @p target. */
    static SparseMatrixAny fromCoo(const fmt::CooMatrix& coo,
                                   Format target,
                                   const BuildOptions& opts);
    static SparseMatrixAny fromCoo(const fmt::CooMatrix& coo,
                                   Format target);

    /**
     * Encode a CSR master copy as @p target (the registry's
     * re-encode path). SMASH (the paper's §4.1.3 conversion, as
     * the fig20 study prices it) and ELL encode straight from CSR;
     * every other non-CSR target round-trips through canonical COO.
     */
    static SparseMatrixAny fromCsr(const fmt::CsrMatrix& csr,
                                   Format target,
                                   const BuildOptions& opts);

    Format format() const;
    MatrixRef ref() const;

    Index rows() const { return ref().rows(); }
    Index cols() const { return ref().cols(); }
    Index nnz() const { return ref().nnz(); }
    Index xLength() const { return ref().xLength(); }

    template <typename T>
    const T&
    as() const
    {
        return ref().as<T>();
    }

    /** The memoized partition plans of this matrix (stats/tests;
     *  the dispatch layer reaches it through ref().plans()). */
    PlanCache& planCache() const { return *plans_; }

  private:
    std::variant<fmt::CooMatrix, fmt::CsrMatrix, fmt::CscMatrix,
                 fmt::BcsrMatrix, fmt::EllMatrix, fmt::DiaMatrix,
                 fmt::DenseMatrix, core::SmashMatrix>
        holder_;
    /** shared_ptr so the holder stays movable (PlanCache owns a
     *  mutex); never null for a live object. */
    std::shared_ptr<PlanCache> plans_;
};

inline MatrixRef::MatrixRef(const SparseMatrixAny& m)
    : MatrixRef(m.ref())
{}

} // namespace smash::eng

#endif // SMASH_ENGINE_MATRIX_ANY_HH
