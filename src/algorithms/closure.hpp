/// \file closure.hpp
/// \brief Transitive closure over the Boolean semiring.
///
/// The paper's path-querying layer is a transitive-closure fixpoint over
/// SPbLA's fused multiply-add; the text explicitly identifies *incremental*
/// transitive closure as the CFPQ bottleneck. Two strategies are provided
/// (and ablated in bench_ablation):
///  - Squaring:  M <- M | M*M     (max(1, ceil(log2 d)) rounds for longest
///    shortest path d: a round that grows M is followed by the containment
///    test adj*M within M, which holds exactly when M is the closure, so
///    no round that adds nothing runs unless M is closed to begin with)
///  - Delta:     semi-naive, frontier F <- F*Base \ M, M <- M | F (O(d)
///    rounds, each multiplying only the edges the last round found)
///
/// extend_closure is that incremental step for insert-only updates: it
/// grows a closure by a batch of new edges, with work that follows the rows
/// the batch reaches rather than the whole matrix.
///
/// Operates on spbla::Matrix through the storage dispatch layer.
#pragma once

#include <vector>

#include "backend/context.hpp"
#include "storage/dispatch.hpp"

namespace spbla::algorithms {

/// Fixpoint iteration strategy for the closure.
enum class ClosureStrategy {
    Squaring,  ///< M += M * M per round
    Delta,     ///< semi-naive: only the frontier of new edges multiplies Base
};

/// Statistics of a closure run (reported by the benchmark harness).
struct ClosureStats {
    std::size_t rounds = 0;       ///< fixpoint iterations executed
    std::size_t result_nnz = 0;   ///< nnz of the closure
};

/// Transitive closure M+ of a square adjacency matrix (no reflexive edges
/// added). Optionally reports iteration stats through \p stats.
[[nodiscard]] Matrix transitive_closure(backend::Context& ctx, const Matrix& adj,
                                        ClosureStrategy strategy = ClosureStrategy::Squaring,
                                        ClosureStats* stats = nullptr);

/// Reflexive-transitive closure M* = I | M+.
[[nodiscard]] Matrix reflexive_transitive_closure(
    backend::Context& ctx, const Matrix& adj,
    ClosureStrategy strategy = ClosureStrategy::Squaring, ClosureStats* stats = nullptr);

/// Insert-only closure update: \p closure goes from C = A+ to (A | add)+
/// and the cells it gained, C' \ C, are returned. \p add may overlap A or C.
///
/// A new path has a first new edge, reached from its start by I | C, so it
/// starts in a non-empty row of t = add | C*add. Paths with exactly one new
/// edge are the seed X = t | t*C (round 1); a path with k new edges is
/// X * S^(k-1) with the step S = add | add*C. The seed and the rounds run on
/// matrices compacted to the rows of t (RowCompaction), S is built only once
/// a frontier column is a source row of add (otherwise frontier*S is empty),
/// and only t, S and the final C | fresh touch all n rows.
///
/// Strong guarantee: if an op throws, \p closure is left unchanged.
[[nodiscard]] Matrix extend_closure(backend::Context& ctx, Matrix& closure,
                                    const Matrix& add, ClosureStats* stats = nullptr);

/// The non-empty rows of a matrix, for running a fixpoint on matrices
/// compacted to them: row k of a compacted matrix stands for row rows()[k].
/// An op on a compacted matrix walks the selected rows only, which is what
/// makes it cheap on the hypersparse product and closure matrices.
class RowCompaction {
public:
    /// Selects the non-empty rows of \p pattern, read from its row offsets.
    RowCompaction(backend::Context& ctx, const Matrix& pattern);

    [[nodiscard]] const std::vector<Index>& rows() const noexcept { return rows_; }

    /// m x n selector whose row k is the unit vector of rows()[k]: the
    /// selected rows' diagonal, compacted.
    [[nodiscard]] const Matrix& selector() const noexcept { return sel_; }

    /// The selected rows of \p x, compacted: the cells of selector() * x,
    /// copied row by row rather than multiplied.
    [[nodiscard]] Matrix gather(backend::Context& ctx, const Matrix& x) const;

    /// The cells of the compacted \p x put back at their rows, full height.
    [[nodiscard]] Matrix scatter(backend::Context& ctx, const Matrix& x) const;

private:
    Index nrows_;
    std::vector<Index> rows_;
    Matrix sel_;
};

}  // namespace spbla::algorithms
