/// \file dispatch.hpp
/// \brief Instrumented routing of every public operation over spbla::Matrix.
///
/// Each function mirrors one kernel family in ops/ops.hpp but takes the
/// handle. Behind them sits one op table (dispatch.cpp): each op is an entry
/// naming its prof span, flight-recorder name, optional empty-operand
/// shortcut and CSR kernel, and one router runs every entry. The router
/// opens the op's span, then books one spbla.dispatch.ops,
/// one spbla.dispatch.csr, the latency and nnz histograms and a flight
/// record.
///
/// kronecker_sum builds the RPQ and tensor-CFPQ product matrix
/// M = OR_s Q_s (x) G_s straight from the terms' CSR rows, with no per-term
/// product.
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

/// Whether every cell of A x B is set in C, tested without building the
/// product: exits at the first missing cell. The squaring closure's stop
/// test (adj x C within C).
[[nodiscard]] bool product_within(backend::Context& ctx, const Matrix& a, const Matrix& b,
                                  const Matrix& c);

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

/// The m x m fold of row block [row0, row0 + m) over the column blocks at
/// \p col0s: row i is the union of src(row0 + i, c0 .. c0 + m) shifted to 0
/// over c0 in col0s, plus (i, i) when \p with_identity, minus the cells of
/// \p minus (an m x m matrix, or null). One op, each row written once: RPQ
/// reads a query's answers with it, and the tensor CFPQ harvest a
/// nonterminal's new cells (minus = its current matrix).
[[nodiscard]] Matrix fold_blocks(backend::Context& ctx, const Matrix& src, Index row0,
                                 std::span<const Index> col0s, Index m, bool with_identity,
                                 const Matrix* minus = nullptr);

/// V[i] = OR_j A[i, j].
[[nodiscard]] SpVector reduce_to_column(backend::Context& ctx, const Matrix& a);

/// V[j] = OR_i A[i, j].
[[nodiscard]] SpVector reduce_to_row(backend::Context& ctx, const Matrix& a);

/// Total number of set cells (O(1) on the handle).
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
