/// \file submatrix.hpp
/// \brief Block folds of a row block: M = OR over F of N[r0..r0+m, f..f+n].
///
/// RPQ reads its answers from the closure's (start, final) blocks, and the
/// tensor CFPQ harvest reads each nonterminal's cells from the same blocks
/// and keeps those it does not hold yet. fold_blocks does either in one op:
/// each output row is written once, on the one-pass runner, as the union of
/// the source row's column segments shifted to 0, plus the diagonal cell for
/// a nullable query, minus a row of another matrix. A sub-matrix window is
/// its one-block case.
///
/// A row's staging room is the source row's length (plus one for the
/// diagonal), read from the row offsets, so there is no count pass. A row
/// with one non-empty segment is one shifted copy; two merge two-way, more
/// k-way the way the Kronecker sum merges a shared block's factors. Empty
/// rows are filled in runs by the runner.
#pragma once

#include <span>

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// The m x n matrix whose row i holds, for every c0 in \p col0s, the cells
/// c - c0 of src(row0 + i, :) with c0 <= c < c0 + n; plus (i, i) when
/// \p with_identity (m == n required); minus the cells of \p minus (an
/// m x n matrix, or null). A block listed twice counts once.
/// OutOfRange when a block exceeds \p src; InvalidArgument when two blocks
/// overlap; DimensionMismatch for a non-square identity or a mis-shaped
/// \p minus.
[[nodiscard]] CsrMatrix fold_blocks(backend::Context& ctx, const CsrMatrix& src, Index row0,
                                    std::span<const Index> col0s, Index m, Index n,
                                    bool with_identity, const CsrMatrix* minus);

/// Extract the m x n sub-matrix of \p src anchored at (row0, col0): the
/// one-block, no-identity fold.
[[nodiscard]] CsrMatrix submatrix(backend::Context& ctx, const CsrMatrix& src, Index row0,
                                  Index col0, Index m, Index n);

}  // namespace spbla::ops
