/// \file kronecker.hpp
/// \brief Kronecker (tensor) product and Kronecker sum of Boolean matrices.
///
/// K = A (x) B where K(i1*rB + i2, j1*cB + j2) = A(i1, j1) & B(i2, j2).
/// This is the primitive the tensor-based path-querying algorithm is built
/// on: the product of a query automaton with a graph adjacency matrix. The
/// algorithm sums one such product per symbol, M = OR_t A_t (x) B_t, so the
/// kernel takes the whole sum and writes each row of M once. Output row
/// (i1, i2) is the concatenation, over the A-columns j1 of row i1 in
/// ascending order (the blocks of i1), of one B factor's row i2 shifted by
/// j1*cB: B_t for a block set in one term, else the union of the B_t of
/// every term that sets it, built once per call per distinct set of
/// factors. Columns come out sorted without a per-row sort or merge.
///
/// No count pass: row (i1, i2) starts at base[i1] + sum over the blocks of
/// i1 of their B factor's row offset i2, where base is a prefix over A's
/// rows of the blocks' nnz. So the exact nnz is known, and checked against
/// the Index range, before the output is allocated. An A-row with one block
/// is B's column array copied as one run plus the shift.
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
