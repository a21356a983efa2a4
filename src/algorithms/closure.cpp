#include "algorithms/closure.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "prof/prof.hpp"
#include "telemetry/metrics.hpp"

namespace spbla::algorithms {
namespace {

/// Semi-naive evaluation: keep a frontier of edges discovered last round and
/// extend only those — each closure edge's final hop is recomputed exactly
/// once instead of every round. This is the standard Datalog optimisation
/// of the linear M <- M | M*Base iteration.
Matrix closure_delta(backend::Context& ctx, const Matrix& adj, std::size_t& rounds) {
    Matrix m = adj;
    Matrix frontier = adj;
    while (!frontier.empty()) {
        ++rounds;
        SPBLA_PROF_SPAN_ITER("closure.round", rounds);
        telemetry::count(telemetry::Counter::ClosureFrontierNnz, frontier.nnz());
        const Matrix extended = storage::multiply(ctx, frontier, adj);
        frontier = storage::ewise_diff(ctx, extended, m);
        m = storage::ewise_add(ctx, m, frontier);
    }
    return m;
}

/// Whether some cell of \p frontier lies in a column flagged in \p source.
bool reaches(const Matrix& frontier, const std::vector<char>& source) {
    for (const Index col : frontier.csr().cols()) {
        if (source[col] != 0) return true;
    }
    return false;
}

}  // namespace

RowCompaction::RowCompaction(backend::Context& ctx, const Matrix& pattern)
    : nrows_{pattern.nrows()} {
    const auto offsets = pattern.csr().row_offsets();
    for (Index i = 0; i < nrows_; ++i) {
        if (offsets[i + 1] != offsets[i]) rows_.push_back(i);
    }
    std::vector<Coord> picks;
    picks.reserve(rows_.size());
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        picks.push_back({static_cast<Index>(k), rows_[k]});
    }
    sel_ = Matrix::from_coords(static_cast<Index>(rows_.size()), nrows_,
                               std::move(picks), ctx);
}

Matrix RowCompaction::gather(backend::Context& ctx, const Matrix& x) const {
    check(x.nrows() == nrows_, Status::DimensionMismatch,
          "RowCompaction::gather: row count differs from the pattern's");
    const auto src_offsets = x.csr().row_offsets();
    const auto src_cols = x.csr().cols();
    std::vector<Index> offsets(rows_.size() + 1, 0);
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        offsets[k + 1] = offsets[k] + (src_offsets[rows_[k] + 1] - src_offsets[rows_[k]]);
    }
    std::vector<Index> cols(offsets.back());
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        const auto from = src_cols.begin() + src_offsets[rows_[k]];
        std::copy(from, from + (offsets[k + 1] - offsets[k]), cols.begin() + offsets[k]);
    }
    return Matrix{CsrMatrix::from_raw(static_cast<Index>(rows_.size()), x.ncols(),
                                      std::move(offsets), std::move(cols)),
                  ctx};
}

Matrix RowCompaction::scatter(backend::Context& ctx, const Matrix& x) const {
    const auto compact = x.csr().row_offsets();
    std::vector<Index> offsets(static_cast<std::size_t>(nrows_) + 1, 0);
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        offsets[rows_[k] + 1] = compact[k + 1] - compact[k];
    }
    for (Index i = 0; i < nrows_; ++i) offsets[i + 1] += offsets[i];
    const auto cols = x.csr().cols();
    return Matrix{CsrMatrix::from_raw(nrows_, x.ncols(), std::move(offsets),
                                      std::vector<Index>(cols.begin(), cols.end())),
                  ctx};
}

Matrix transitive_closure(backend::Context& ctx, const Matrix& adj,
                          ClosureStrategy strategy, ClosureStats* stats) {
    check(adj.nrows() == adj.ncols(), Status::DimensionMismatch,
          "transitive_closure: matrix must be square");
    SPBLA_PROF_SPAN("closure");
    std::size_t rounds = 0;
    Matrix m{0, 0, ctx};
    if (strategy == ClosureStrategy::Delta) {
        m = closure_delta(ctx, adj, rounds);
    } else {
        // Squaring keeps adj <= m <= adj+, so adj * m within m means m is
        // adj+ (adj^(i+1) <= adj * m <= m by induction): a round that grew m
        // is followed by that test, not by a round that adds nothing.
        m = adj;
        for (;;) {
            const std::size_t before = m.nnz();
            SPBLA_PROF_SPAN_ITER("closure.round", rounds + 1);
            m = storage::multiply_add(ctx, m, m, m);
            ++rounds;
            if (m.nnz() == before) break;
            if (storage::product_within(ctx, adj, m, m)) break;
        }
    }
    if (stats != nullptr) {
        stats->rounds = rounds;
        stats->result_nnz = m.nnz();
    }
    return m;
}

Matrix extend_closure(backend::Context& ctx, Matrix& closure, const Matrix& add,
                      ClosureStats* stats) {
    const Index n = closure.nrows();
    check(closure.ncols() == n && add.nrows() == n && add.ncols() == n,
          Status::DimensionMismatch, "extend_closure: shapes must match and be square");
    SPBLA_PROF_SPAN("closure.extend");
    const auto report = [&](std::size_t rounds) {
        if (stats != nullptr) {
            stats->rounds = rounds;
            stats->result_nnz = closure.nnz();
        }
    };
    if (add.empty()) {
        report(0);
        return Matrix{n, n, ctx};
    }

    const Matrix& c = closure;
    const Matrix t = storage::ewise_add(ctx, add, storage::multiply(ctx, c, add));
    const RowCompaction rows{ctx, t};
    const Matrix tc = rows.gather(ctx, t);
    const Matrix cc = rows.gather(ctx, c);

    std::size_t rounds = 1;
    telemetry::count(telemetry::Counter::ClosureFrontierNnz, tc.nnz());
    Matrix fresh = [&] {
        SPBLA_PROF_SPAN_ITER("closure.round", rounds);
        return storage::ewise_diff(
            ctx, storage::ewise_add(ctx, tc, storage::multiply(ctx, tc, c)), cc);
    }();

    // frontier * S is empty unless the frontier ends where a new edge starts.
    std::vector<char> source(n, 0);
    const auto add_offsets = add.csr().row_offsets();
    for (Index i = 0; i < n; ++i) source[i] = add_offsets[i + 1] != add_offsets[i];
    std::optional<Matrix> step;
    Matrix frontier = fresh;
    while (reaches(frontier, source)) {
        if (!step) step = storage::ewise_add(ctx, add, storage::multiply(ctx, add, c));
        ++rounds;
        SPBLA_PROF_SPAN_ITER("closure.round", rounds);
        telemetry::count(telemetry::Counter::ClosureFrontierNnz, frontier.nnz());
        frontier = storage::ewise_diff(
            ctx, storage::ewise_diff(ctx, storage::multiply(ctx, frontier, *step), cc),
            fresh);
        fresh = storage::ewise_add(ctx, fresh, frontier);
    }

    Matrix gained = rows.scatter(ctx, fresh);
    if (!gained.empty()) closure = storage::ewise_add(ctx, c, gained);
    report(rounds);
    return gained;
}

Matrix reflexive_transitive_closure(backend::Context& ctx, const Matrix& adj,
                                    ClosureStrategy strategy, ClosureStats* stats) {
    const Matrix plus = transitive_closure(ctx, adj, strategy, stats);
    return storage::ewise_add(ctx, plus, Matrix::identity(adj.nrows(), ctx));
}

}  // namespace spbla::algorithms
