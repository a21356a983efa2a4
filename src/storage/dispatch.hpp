/// \file dispatch.hpp
/// \brief Cost-driven routing of every public operation over spbla::Matrix.
///
/// Each function mirrors one kernel family in ops/ops.hpp but takes the
/// format-polymorphic handle. Behind them sits one op table (dispatch.cpp):
/// each op is an entry listing its kernel rows per format, its cost model
/// and its routing traits, and one router runs every entry. There are two
/// formats, CSR and the 64x64 bit-block grid. Every op has a CSR row; the
/// ones with a bit-block row (multiply, multiply_add, ewise_add/mult,
/// transpose, reduce_to_column, mxv) carry a small cost model over the
/// signals the handle already tracks (nnz, density) plus the conversion cost
/// of any representation the operands do not have materialised. The
/// bit-block row is a candidate only above its density gate (or when the
/// tiles are already cached). The router applies hysteresis — the primary
/// format of the anchor operand is kept unless a rival is decisively (2x)
/// cheaper — so fixpoint drivers (closure, CFPQ, RPQ) settle into a stable
/// format instead of thrashing. Ops without a cost model route CSR.
///
/// The storage::FormatHint global (see matrix.hpp) bypasses the cost model:
/// a forced format the op has a kernel row for is used as is, any other
/// falls back to CSR, so a forced sweep still computes identical results.
///
/// kronecker_sum has a CSR row only: it builds the RPQ and tensor-CFPQ
/// product matrix M = OR_s Q_s (x) G_s straight from the terms' CSR rows, so
/// there is no per-term product another format could carry.
#pragma once

#include <span>

#include "backend/context.hpp"
#include "core/spvector.hpp"
#include "ops/spgemm.hpp"  // SpGemmOptions ride through the CSR path
#include "storage/matrix.hpp"

namespace spbla::storage {

/// C = A x B over the Boolean semiring.
[[nodiscard]] Matrix multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                              const ops::SpGemmOptions& opts = {});

/// C = C | A x B (fused accumulate form used by the fixpoint drivers).
[[nodiscard]] Matrix multiply_add(backend::Context& ctx, const Matrix& c, const Matrix& a,
                                  const Matrix& b, const ops::SpGemmOptions& opts = {});

/// C = A | B.
[[nodiscard]] Matrix ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b);

/// C = A & B.
[[nodiscard]] Matrix ewise_mult(backend::Context& ctx, const Matrix& a, const Matrix& b);

/// C = A \ B (cells of A not in B).
[[nodiscard]] Matrix ewise_diff(backend::Context& ctx, const Matrix& a, const Matrix& b);

/// C = A (x) B (Kronecker product).
[[nodiscard]] Matrix kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b);

/// One term A (x) B of a Kronecker sum.
struct KroneckerTerm {
    const Matrix* a;
    const Matrix* b;
};

/// C = OR over terms of A_t (x) B_t, written in one pass: no per-term product
/// and no pairwise accumulation. Every A_t has one shape and every B_t
/// another, and their product shape must be \p nrows x \p ncols
/// (DimensionMismatch otherwise); an empty \p terms gives the all-zero
/// matrix of that shape.
[[nodiscard]] Matrix kronecker_sum(backend::Context& ctx, Index nrows, Index ncols,
                                   std::span<const KroneckerTerm> terms);

/// C = A^T.
[[nodiscard]] Matrix transpose(backend::Context& ctx, const Matrix& a);

/// C = A[r0 .. r0+m, c0 .. c0+n].
[[nodiscard]] Matrix submatrix(backend::Context& ctx, const Matrix& a, Index r0, Index c0,
                               Index m, Index n);

/// V[i] = OR_j A[i, j].
[[nodiscard]] SpVector reduce_to_column(backend::Context& ctx, const Matrix& a);

/// V[j] = OR_i A[i, j].
[[nodiscard]] SpVector reduce_to_row(backend::Context& ctx, const Matrix& a);

/// Total number of set cells (format-independent, O(1) on the handle).
[[nodiscard]] std::size_t reduce_scalar(const Matrix& a) noexcept;

/// y = A x (Boolean matrix-vector product).
[[nodiscard]] SpVector mxv(backend::Context& ctx, const Matrix& a, const SpVector& x);

/// y = x A (Boolean vector-matrix product).
[[nodiscard]] SpVector vxm(backend::Context& ctx, const SpVector& x, const Matrix& a);

/// C = (A x B^T) masked by \p mask (complemented if \p complement).
[[nodiscard]] Matrix multiply_masked(backend::Context& ctx, const Matrix& mask,
                                     const Matrix& a, const Matrix& b_transposed,
                                     bool complement = false);

}  // namespace spbla::storage
