#include "algorithms/closure.hpp"

#include "prof/prof.hpp"
#include "telemetry/metrics.hpp"

namespace spbla::algorithms {
namespace {

/// Semi-naive evaluation: keep a frontier of edges discovered last round and
/// extend only those — each closure edge's final hop is recomputed exactly
/// once instead of every round. This is the standard Datalog optimisation
/// of the Linear strategy.
Matrix closure_delta(backend::Context& ctx, const Matrix& adj,
                     const ops::SpGemmOptions& opts, std::size_t& rounds) {
    Matrix m = adj;
    Matrix frontier = adj;
    while (!frontier.empty()) {
        ++rounds;
        SPBLA_PROF_SPAN_ITER("closure.round", rounds);
        telemetry::count(telemetry::Counter::ClosureFrontierNnz, frontier.nnz());
        const Matrix extended = storage::multiply(ctx, frontier, adj, opts);
        frontier = storage::ewise_diff(ctx, extended, m);
        m = storage::ewise_add(ctx, m, frontier);
    }
    return m;
}

}  // namespace

Matrix transitive_closure(backend::Context& ctx, const Matrix& adj,
                          ClosureStrategy strategy, ClosureStats* stats,
                          const ops::SpGemmOptions& opts) {
    check(adj.nrows() == adj.ncols(), Status::DimensionMismatch,
          "transitive_closure: matrix must be square");
    SPBLA_PROF_SPAN("closure");
    std::size_t rounds = 0;
    Matrix m{0, 0, ctx};
    if (strategy == ClosureStrategy::Delta) {
        m = closure_delta(ctx, adj, opts, rounds);
    } else {
        m = adj;
        for (;;) {
            const std::size_t before = m.nnz();
            SPBLA_PROF_SPAN_ITER("closure.round", rounds + 1);
            m = strategy == ClosureStrategy::Squaring
                    ? storage::multiply_add(ctx, m, m, m, opts)
                    : storage::multiply_add(ctx, m, m, adj, opts);
            ++rounds;
            if (m.nnz() == before) break;
        }
    }
    if (stats != nullptr) {
        stats->rounds = rounds;
        stats->result_nnz = m.nnz();
    }
    return m;
}

Matrix reflexive_transitive_closure(backend::Context& ctx, const Matrix& adj,
                                    ClosureStrategy strategy, ClosureStats* stats) {
    const Matrix plus = transitive_closure(ctx, adj, strategy, stats);
    return storage::ewise_add(ctx, plus, Matrix::identity(adj.nrows(), ctx));
}

}  // namespace spbla::algorithms
