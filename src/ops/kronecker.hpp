/// \file kronecker.hpp
/// \brief Kronecker (tensor) product and Kronecker sum of Boolean matrices.
///
/// K = A (x) B where K(i1*rB + i2, j1*cB + j2) = A(i1, j1) & B(i2, j2).
/// This is the primitive the tensor-based path-querying algorithm is built
/// on: the product of a query automaton with a graph adjacency matrix. The
/// algorithm sums one such product per symbol, M = OR_t A_t (x) B_t, so the
/// kernel takes the whole sum and writes M in one pass: output row
/// (i1, i2) is the concatenation, over the A-columns j1 of row i1 in
/// ascending order, of the union of B_t's row i2 over the terms t with
/// A_t(i1, j1) set, each shifted by j1*cB. Columns come out sorted without
/// a per-row sort, whatever the shape of the A_t.
#pragma once

#include <span>

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// One term A (x) B of a Kronecker sum.
struct KroneckerTerm {
    const CsrMatrix* a;
    const CsrMatrix* b;
};

/// K = OR over terms of A_t (x) B_t. Every A_t has one shape and every B_t
/// another (else DimensionMismatch); the result shape (rA*rB) x (cA*cB) and
/// nnz must fit the Index type (else OutOfRange). \p terms must not be empty.
[[nodiscard]] CsrMatrix kronecker_sum(backend::Context& ctx,
                                      std::span<const KroneckerTerm> terms);

/// K = A (x) B: the one-term Kronecker sum.
[[nodiscard]] CsrMatrix kronecker(backend::Context& ctx, const CsrMatrix& a,
                                  const CsrMatrix& b);

}  // namespace spbla::ops
