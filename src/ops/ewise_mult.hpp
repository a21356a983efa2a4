/// \file ewise_mult.hpp
/// \brief Element-wise Boolean multiplication (AND) — sparse intersection.
///
/// Part of the "library extension up to full GraphBLAS API" direction the
/// paper's conclusion names: GraphBLAS eWiseMult over the Boolean semiring.
/// Implemented as a one-pass per-row sorted intersection on the same runner
/// as the addition kernel (ops/ewise_plan.hpp): each row is written once at
/// its bound min(|a|, |b|), and the join compacts the rows.
#pragma once

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// C = A & B for CSR matrices of equal shape.
[[nodiscard]] CsrMatrix ewise_mult(backend::Context& ctx, const CsrMatrix& a,
                                   const CsrMatrix& b);

/// C = A & ~B (set difference) for CSR matrices of equal shape. Backs the
/// semi-naive (delta) transitive-closure strategy: the next frontier is the
/// freshly discovered edges only.
[[nodiscard]] CsrMatrix ewise_diff(backend::Context& ctx, const CsrMatrix& a,
                                   const CsrMatrix& b);

}  // namespace spbla::ops
