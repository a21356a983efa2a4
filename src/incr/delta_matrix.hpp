/// \file delta_matrix.hpp
/// \brief Delta overlay over storage::Matrix: A ⊕ ΔA⁺ ⊖ ΔA⁻.
///
/// A DeltaMatrix keeps a base matrix untouched across a stream of small
/// insert/delete batches and accumulates the net change in two overlay
/// matrices, so downstream consumers that cache work keyed by the *base's*
/// content version (the incr op memo) keep hitting
/// while edits pour in. The overlay is held normalized —
///
///     add ∩ base = ∅      (inserts are genuinely new cells)
///     del ⊆ base          (deletes name cells the base actually has)
///     add ∩ del = ∅       (a cell is pending in at most one direction)
///
/// — which makes the effective cell set exactly (base ⊖ del) ⊕ add with
/// nnz = base.nnz − del.nnz + add.nnz, O(1) from the invariants. Once the
/// overlay grows past a configurable fraction of the base it is folded in
/// (one fresh epoch) so overlay cost stays bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "storage/matrix.hpp"

namespace spbla::incr {

/// Fraction of base nnz the overlay may reach before consolidation folds it
/// into the base (see DeltaMatrix::apply).
inline constexpr double kDefaultConsolidateFraction = 0.25;

class DeltaMatrix {
public:
    /// Wrap \p base (copied; the overlay starts empty).
    explicit DeltaMatrix(Matrix base,
                         double consolidate_fraction = kDefaultConsolidateFraction);

    [[nodiscard]] Index nrows() const noexcept { return base_.nrows(); }
    [[nodiscard]] Index ncols() const noexcept { return base_.ncols(); }

    /// Effective cell count of base ⊕ add ⊖ del (O(1) from the invariants).
    [[nodiscard]] std::size_t nnz() const noexcept {
        return base_.nnz() - del_.nnz() + add_.nnz();
    }

    /// The untouched base and pending overlay (normalized as documented).
    [[nodiscard]] const Matrix& base() const noexcept { return base_; }
    [[nodiscard]] const Matrix& pending_adds() const noexcept { return add_; }
    [[nodiscard]] const Matrix& pending_dels() const noexcept { return del_; }
    [[nodiscard]] bool overlay_empty() const noexcept {
        return add_.empty() && del_.empty();
    }

    /// Fold one insert/delete batch into the overlay (delete-then-insert, so
    /// a cell named by both deltas ends up present), renormalizing against
    /// the base; consolidates into the base when the overlay crosses the
    /// threshold. Invalidates any cached snapshot. A non-empty batch books
    /// one spbla.incr.batches and its own cells in spbla.incr.delta_nnz; an
    /// empty batch books nothing.
    void apply(const Matrix& adds, const Matrix& removes, backend::Context& ctx);

    /// Force the overlay into the base now (no-op when empty). Books one
    /// consolidation; the folded cells were booked by the apply() calls that
    /// staged them, so no batch is counted here.
    void consolidate(backend::Context& ctx);

    /// Epoch-stamped materialisation of the effective cell set. When the
    /// overlay is empty this is a copy of the base (same content version);
    /// otherwise the merge is computed once, given a fresh epoch, and cached
    /// until the next apply()/consolidate().
    [[nodiscard]] const Matrix& snapshot(backend::Context& ctx);

private:
    [[nodiscard]] bool over_threshold() const noexcept;

    Matrix base_;
    Matrix add_;  ///< pending inserts, disjoint from base_
    Matrix del_;  ///< pending deletes, subset of base_
    double consolidate_fraction_;
    std::optional<Matrix> snapshot_;  ///< cached merge; reset on mutation
};

}  // namespace spbla::incr
