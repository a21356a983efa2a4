/// \file dispatch.hpp
/// \brief Cost-driven routing of every public operation over spbla::Matrix.
///
/// Each function mirrors one kernel family in ops/ops.hpp but takes the
/// format-polymorphic handle. Behind them sits one op table (dispatch.cpp):
/// each op is an entry listing its kernel rows per format, its cost model
/// and its routing traits, and one router runs every entry. The router picks
/// the representation per call with a small cost model over the signals the
/// handle already tracks (nnz, density, row skew) plus the conversion cost of
/// any representation the operands do not have materialised, and applies
/// hysteresis — the primary format of the anchor operand is kept unless a
/// rival is decisively (2x) cheaper — so fixpoint drivers (closure, CFPQ,
/// RPQ) settle into a stable format instead of thrashing.
///
/// The storage::FormatHint global (see matrix.hpp) bypasses the cost model:
/// a forced format the op has a kernel row for is used as is, any other
/// falls back to CSR, which every operation supports, so a forced sweep
/// still computes identical results.
#pragma once

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

// ---- Multi-device bridge --------------------------------------------------

/// Hook the sharded multi-device layer (src/dist) installs at configure time
/// so above-threshold ops route through it transparently. A function-pointer
/// table (rather than a direct call) keeps the dependency one-way: dist links
/// against storage, never the reverse. Entries may be null for ops the layer
/// does not shard; `should_shard` is consulted per call with the routed op's
/// matrix operands.
struct DistBridge {
    bool (*should_shard)(std::initializer_list<const Matrix*> operands);
    Matrix (*multiply)(backend::Context&, const Matrix&, const Matrix&,
                       const ops::SpGemmOptions&);
    Matrix (*multiply_add)(backend::Context&, const Matrix&, const Matrix&, const Matrix&,
                           const ops::SpGemmOptions&);
    Matrix (*multiply_masked)(backend::Context&, const Matrix&, const Matrix&,
                              const Matrix&, bool);
    Matrix (*ewise_add)(backend::Context&, const Matrix&, const Matrix&);
    Matrix (*ewise_mult)(backend::Context&, const Matrix&, const Matrix&);
    Matrix (*kronecker)(backend::Context&, const Matrix&, const Matrix&);
    Matrix (*transpose)(backend::Context&, const Matrix&);
    SpVector (*reduce_to_column)(backend::Context&, const Matrix&);
    SpVector (*mxv)(backend::Context&, const Matrix&, const SpVector&);
};

/// Install (or, with nullptr, remove) the sharded-execution bridge. The
/// pointed-to table must outlive every routed call.
void set_dist_bridge(const DistBridge* bridge) noexcept;

/// The active bridge, or nullptr when sharded execution is not configured.
[[nodiscard]] const DistBridge* dist_bridge() noexcept;

}  // namespace spbla::storage
