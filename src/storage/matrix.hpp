/// \file matrix.hpp
/// \brief Boolean matrix handle — the storage engine.
///
/// A spbla::Matrix owns exactly one CsrMatrix (the cuBool format) and the
/// content version derived caches key on. The paper's COO (clBool) format
/// and the dense bitmap are not handle representations: CooMatrix remains a
/// core structure for the footprint comparison, DenseMatrix the tests'
/// reference oracle.
///
/// Layers above (capi, algorithms, cfpq, rpq) run operations through the
/// dispatch layer (storage/dispatch.hpp), which instruments every op; kernel
/// code (src/ops, src/baseline) works on CsrMatrix directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/context.hpp"
#include "core/csr.hpp"
#include "core/spvector.hpp"

namespace spbla {

/// Value-semantic Boolean matrix handle over one CsrMatrix, bound to an
/// execution context. This is both the storage-engine handle the
/// C API wraps and the high-level C++ facade (operators for the Boolean
/// semiring: `*` = multiply, `+` = element-wise or, `kron`).
class Matrix {
public:
    /// Empty matrix of the given shape.
    Matrix(Index nrows, Index ncols, backend::Context& ctx = backend::default_context());

    Matrix() : Matrix(0, 0) {}

    /// Adopt a CSR matrix.
    explicit Matrix(CsrMatrix data, backend::Context& ctx = backend::default_context());

    /// Build from a coordinate list (duplicates collapse).
    static Matrix from_coords(Index nrows, Index ncols, std::vector<Coord> coords,
                              backend::Context& ctx = backend::default_context());

    /// Identity matrix.
    static Matrix identity(Index n, backend::Context& ctx = backend::default_context());

    /// Copies carry the content version; a moved-from handle reads version
    /// 0 and nnz 0.
    Matrix(const Matrix& other) = default;
    Matrix& operator=(const Matrix& other) = default;
    Matrix(Matrix&& other) noexcept;
    Matrix& operator=(Matrix&& other) noexcept;

    [[nodiscard]] Index nrows() const noexcept { return csr_.nrows(); }
    [[nodiscard]] Index ncols() const noexcept { return csr_.ncols(); }
    [[nodiscard]] std::size_t nnz() const noexcept { return csr_.nnz(); }
    [[nodiscard]] bool empty() const noexcept { return csr_.empty(); }
    [[nodiscard]] bool get(Index r, Index c) const { return csr_.get(r, c); }
    [[nodiscard]] std::vector<Coord> to_coords() const { return csr_.to_coords(); }
    [[nodiscard]] backend::Context& context() const noexcept { return *ctx_; }

    /// Content version of this handle: a process-unique stamp assigned when
    /// the cell set is (re)built and carried across copies/moves of the same
    /// content. Any mutation (assignment, `+=`, `multiply_add`) installs a
    /// fresh stamp, so derived caches — e.g. the incr layer's op memo —
    /// compare versions to detect staleness. 0 only on moved-from handles
    /// (never considered current).
    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

    /// The CSR storage. References stay valid until the handle is mutated
    /// or destroyed.
    [[nodiscard]] const CsrMatrix& csr() const noexcept { return csr_; }

    /// Column indices of row \p r (sorted).
    [[nodiscard]] std::span<const Index> row(Index r) const { return csr_.row(r); }

    /// Apply an insert/delete batch in place:
    /// this := (this \ removes) | adds — delete-then-insert, so a cell named
    /// by both deltas ends up present. Both deltas must match this shape.
    /// A no-op batch (both deltas empty) keeps the content stamp and books
    /// nothing; any other batch books one spbla.incr.batches plus its cells
    /// in spbla.incr.delta_nnz, and installs a fresh version() even when the resulting cell set is
    /// value-equal, so every version-keyed derived cache (the incr layer's op
    /// memo) treats the handle as new content.
    void apply_delta(const Matrix& adds, const Matrix& removes, backend::Context& ctx);
    void apply_delta(const Matrix& adds, const Matrix& removes) {
        apply_delta(adds, removes, *ctx_);
    }

    /// The same fold and restamp as apply_delta, booking nothing: for a
    /// maintainer that folds one caller batch into several handles and
    /// books that batch once itself.
    void fold_delta(const Matrix& adds, const Matrix& removes, backend::Context& ctx);

    /// apply_delta into a new handle, this one left unchanged: the batch is
    /// folded and booked exactly as apply_delta does, without first copying
    /// this handle. A no-op batch returns a copy carrying this version().
    [[nodiscard]] Matrix with_delta(const Matrix& adds, const Matrix& removes,
                                    backend::Context& ctx) const;

    /// Simulated device footprint of the CSR storage.
    [[nodiscard]] std::size_t device_bytes() const noexcept { return csr_.device_bytes(); }

    // ---- facade sugar (routes through storage/dispatch.cpp) ----

    /// this := this | other (the paper's M += N).
    Matrix& operator+=(const Matrix& other);

    /// this := this | a * b (the paper's C += M x N fused form).
    Matrix& multiply_add(const Matrix& a, const Matrix& b);

    [[nodiscard]] friend Matrix operator+(const Matrix& a, const Matrix& b) {
        return Matrix::add(a, b);
    }
    [[nodiscard]] friend Matrix operator*(const Matrix& a, const Matrix& b) {
        return Matrix::mul(a, b);
    }

    /// Kronecker product K = this (x) other.
    [[nodiscard]] Matrix kron(const Matrix& other) const;

    /// Transpose.
    [[nodiscard]] Matrix transposed() const;

    /// Sub-matrix extraction M = this[r0..r0+m, c0..c0+n].
    [[nodiscard]] Matrix submatrix(Index r0, Index c0, Index m, Index n) const;

    /// V = reduceToColumn(this).
    [[nodiscard]] SpVector reduce_to_column() const;

    /// Structural equality (same shape, same cells).
    friend bool operator==(const Matrix& a, const Matrix& b);

private:
    /// (this \ removes) | adds as a new handle, for a non-empty batch of
    /// checked shapes; books nothing.
    [[nodiscard]] Matrix folded(const Matrix& adds, const Matrix& removes,
                                backend::Context& ctx) const;

    static Matrix add(const Matrix& a, const Matrix& b);
    static Matrix mul(const Matrix& a, const Matrix& b);

    static std::uint64_t next_version() noexcept;  // process-unique, never 0

    backend::Context* ctx_;
    CsrMatrix csr_;
    std::uint64_t version_{0};  // content stamp; see version()
};

}  // namespace spbla
