#include "engine/matrix_any.hh"

#include "common/bitops.hh"
#include "core/hierarchy_config.hh"

namespace smash::eng
{

namespace
{

template <typename Fn>
auto
visitRef(const MatrixRef& m, Fn&& fn)
{
    switch (m.format()) {
      case Format::kCoo:
        return fn(m.as<fmt::CooMatrix>());
      case Format::kCsr:
        return fn(m.as<fmt::CsrMatrix>());
      case Format::kCsc:
        return fn(m.as<fmt::CscMatrix>());
      case Format::kBcsr:
        return fn(m.as<fmt::BcsrMatrix>());
      case Format::kEll:
        return fn(m.as<fmt::EllMatrix>());
      case Format::kDia:
        return fn(m.as<fmt::DiaMatrix>());
      case Format::kDense:
        return fn(m.as<fmt::DenseMatrix>());
      case Format::kSmash:
        return fn(m.as<core::SmashMatrix>());
    }
    SMASH_PANIC("unknown format tag");
}

} // namespace

Index
MatrixRef::rows() const
{
    return visitRef(*this, [](const auto& m) { return m.rows(); });
}

Index
MatrixRef::cols() const
{
    return visitRef(*this, [](const auto& m) { return m.cols(); });
}

Index
MatrixRef::nnz() const
{
    switch (format_) {
      case Format::kDense:
        return as<fmt::DenseMatrix>().countNonZeros();
      case Format::kCoo:
        return as<fmt::CooMatrix>().nnz();
      case Format::kCsr:
        return as<fmt::CsrMatrix>().nnz();
      case Format::kCsc:
        return as<fmt::CscMatrix>().nnz();
      case Format::kBcsr:
        return as<fmt::BcsrMatrix>().nnz();
      case Format::kEll:
        return as<fmt::EllMatrix>().nnz();
      case Format::kDia:
        return as<fmt::DiaMatrix>().nnz();
      case Format::kSmash:
        return as<core::SmashMatrix>().nnz();
    }
    SMASH_PANIC("unknown format tag");
}

Index
MatrixRef::xLength() const
{
    switch (format_) {
      case Format::kBcsr: {
        const auto& m = as<fmt::BcsrMatrix>();
        return static_cast<Index>(
            roundUp(static_cast<std::uint64_t>(m.cols()),
                    static_cast<std::uint64_t>(m.blockCols())));
      }
      case Format::kSmash:
        return as<core::SmashMatrix>().paddedCols();
      default:
        return cols();
    }
}

SparseMatrixAny
SparseMatrixAny::fromCoo(const fmt::CooMatrix& coo, Format target,
                         const BuildOptions& opts)
{
    switch (target) {
      case Format::kCoo:
        return SparseMatrixAny(coo);
      case Format::kCsr:
        return SparseMatrixAny(fmt::CsrMatrix::fromCoo(coo));
      case Format::kCsc:
        return SparseMatrixAny(fmt::CscMatrix::fromCoo(coo));
      case Format::kBcsr:
        return SparseMatrixAny(fmt::BcsrMatrix::fromCoo(
            coo, opts.bcsrBlockRows, opts.bcsrBlockCols));
      case Format::kEll:
        return SparseMatrixAny(fmt::EllMatrix::fromCoo(coo));
      case Format::kDia:
        return SparseMatrixAny(fmt::DiaMatrix::fromCoo(coo));
      case Format::kDense:
        return SparseMatrixAny(coo.toDense());
      case Format::kSmash:
        return SparseMatrixAny(core::SmashMatrix::fromCoo(
            coo, core::HierarchyConfig::fromPaperNotation(
                     opts.smashHierarchy)));
    }
    SMASH_PANIC("unknown format tag");
}

SparseMatrixAny
SparseMatrixAny::fromCoo(const fmt::CooMatrix& coo, Format target)
{
    return fromCoo(coo, target, BuildOptions());
}

SparseMatrixAny
SparseMatrixAny::fromCsr(const fmt::CsrMatrix& csr, Format target,
                         const BuildOptions& opts)
{
    if (target == Format::kCsr)
        return SparseMatrixAny(csr);
    if (target == Format::kEll)
        return SparseMatrixAny(fmt::EllMatrix::fromCsr(csr));
    if (target == Format::kSmash)
        return SparseMatrixAny(core::SmashMatrix::fromCsr(
            csr, core::HierarchyConfig::fromPaperNotation(
                     opts.smashHierarchy)));
    return fromCoo(csr.toCoo(), target, opts);
}

Format
SparseMatrixAny::format() const
{
    return ref().format();
}

MatrixRef
SparseMatrixAny::ref() const
{
    MatrixRef r = std::visit(
        [](const auto& m) { return MatrixRef(m); }, holder_);
    r.plans_ = plans_.get();
    return r;
}

} // namespace smash::eng
