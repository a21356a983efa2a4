/// \file spgemm.hpp
/// \brief Boolean sparse matrix-matrix multiplication (SpGEMM).
///
/// Reproduces cuBool's multiplication kernel: the Nsparse algorithm
/// (Nagasaka et al.) adapted to the Boolean semiring. The generic algorithm
/// accumulates value products in per-row hash *maps*; the Boolean
/// specialisation only needs per-row hash *sets* of column indices — no
/// value array is ever read, written, or allocated, which is where the
/// paper's time and memory advantage over generic SpGEMM comes from.
///
/// Structure. One walk over A gives every row's product upper bound
/// ub(i) = sum over k in A(i,:) of nnz(B(k,:)) and each row's cap,
/// min(ub(i) (+ nnz(C(i,:)) for multiply_add), ncols). Then every op runs
/// one pass through the shared chunked runner (spgemm_plan.hpp): each
/// non-empty row is written once, straight into its chunk's staging
/// segments at its cap. Rows below the dense crossover dedupe through a
/// row-stamped marker array over ncols and sort only their new columns (or
/// gather, sort and dedupe all their products, when the op's rows with a
/// product term stage fewer columns than ncols, too few to repay the
/// marker); rows past the crossover use the touched-word bitmap. No
/// symbolic count pass, no per-row cache, no per-row callback. Under
/// Policy::Parallel the rows are cut into chunks of equal cap share; each
/// chunk stages into segments of its own (kLeanSegment, at least four times
/// the chunk's largest cap, recycled by the context across ops), so a
/// power-law product whose caps overshoot its output holds about one
/// segment per chunk past the output, not the whole overshoot. The join
/// appends the segments into the exact-size output.
/// The bounds walk, row classes and runner are shared with the generic
/// twin (baseline/generic_spgemm.cpp).
#pragma once

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// C = A x B over the Boolean semiring. Shapes: (m x k) * (k x n) -> (m x n).
[[nodiscard]] CsrMatrix multiply(backend::Context& ctx, const CsrMatrix& a,
                                 const CsrMatrix& b);

/// C += A x B: returns the element-wise OR of \p c and A x B (the paper's
/// fused multiply-add primitive used by every fixpoint loop). It is fused
/// for real: C's row seeds the row's marker (or bitmap), a row with no
/// product term copies C's row unchanged, and no intermediate product or
/// separate ewise_add exists. \p c may alias \p a or \p b (the
/// Squaring closure calls multiply_add(m, m, m)).
[[nodiscard]] CsrMatrix multiply_add(backend::Context& ctx, const CsrMatrix& c,
                                     const CsrMatrix& a, const CsrMatrix& b);

}  // namespace spbla::ops
