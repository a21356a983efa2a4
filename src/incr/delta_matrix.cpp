#include "incr/delta_matrix.hpp"

#include <algorithm>
#include <utility>

#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"

namespace spbla::incr {

DeltaMatrix::DeltaMatrix(Matrix base, double consolidate_fraction)
    : base_{std::move(base)},
      add_{base_.nrows(), base_.ncols(), base_.context()},
      del_{base_.nrows(), base_.ncols(), base_.context()},
      consolidate_fraction_{consolidate_fraction} {}

void DeltaMatrix::apply(const Matrix& adds, const Matrix& removes,
                        backend::Context& ctx) {
    SPBLA_REQUIRE(adds.nrows() == nrows() && adds.ncols() == ncols(),
                  Status::DimensionMismatch, "DeltaMatrix::apply: insert shape");
    SPBLA_REQUIRE(removes.nrows() == nrows() && removes.ncols() == ncols(),
                  Status::DimensionMismatch, "DeltaMatrix::apply: delete shape");
    snapshot_.reset();
    if (!(adds.empty() && removes.empty())) {
        telemetry::count(telemetry::Counter::IncrBatches);
        telemetry::count(telemetry::Counter::IncrDeltaNnz,
                         adds.nnz() + removes.nnz());
        // Renormalize the overlay for effective' = (effective ⊖ R) ⊕ A:
        //   del' = (del ⊕ (R ∩ base)) ⊖ A   — still ⊆ base, insert wins
        //   add' = ((add ⊖ R) ⊕ A) ⊖ (base ⊖ del')
        // The final subtraction keeps add' disjoint from the effective base
        // cells, and A-cells never land in del', so add' ∩ del' = ∅.
        Matrix del_new = storage::ewise_diff(
            ctx,
            storage::ewise_add(ctx, del_, storage::ewise_mult(ctx, removes, base_)),
            adds);
        Matrix add_new = storage::ewise_diff(
            ctx,
            storage::ewise_add(ctx, storage::ewise_diff(ctx, add_, removes), adds),
            storage::ewise_diff(ctx, base_, del_new));
        del_ = std::move(del_new);
        add_ = std::move(add_new);
    }
    if (over_threshold()) consolidate(ctx);
}

void DeltaMatrix::consolidate(backend::Context& ctx) {
    if (overlay_empty()) return;
    telemetry::count(telemetry::Counter::IncrConsolidations);
    // fold_delta, not apply_delta, which would book the overlay a second time
    // as a new batch: apply() already counted the caller's batch and its cells.
    base_.fold_delta(add_, del_, ctx);
    add_ = Matrix{base_.nrows(), base_.ncols(), ctx};
    del_ = Matrix{base_.nrows(), base_.ncols(), ctx};
    snapshot_.reset();
}

const Matrix& DeltaMatrix::snapshot(backend::Context& ctx) {
    if (!snapshot_.has_value()) {
        if (overlay_empty()) {
            snapshot_ = base_;  // copy shares the base's content version
        } else {
            snapshot_ = storage::ewise_add(
                ctx, storage::ewise_diff(ctx, base_, del_), add_);
        }
    }
    return *snapshot_;
}

bool DeltaMatrix::over_threshold() const noexcept {
    const double overlay = static_cast<double>(add_.nnz() + del_.nnz());
    const double base = static_cast<double>(std::max<std::size_t>(base_.nnz(), 1));
    return overlay > consolidate_fraction_ * base;
}

}  // namespace spbla::incr
