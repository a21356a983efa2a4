/// \file closure.hpp
/// \brief Transitive closure over the Boolean semiring.
///
/// The paper's path-querying layer is a transitive-closure fixpoint over
/// SPbLA's fused multiply-add; the text explicitly identifies *incremental*
/// transitive closure as the CFPQ bottleneck. Two strategies are provided
/// (and ablated in bench_ablation):
///  - Squaring:  M <- M | M*M     (O(log d) rounds for diameter d)
///  - Linear:    M <- M | M*Base  (O(d) rounds, cheaper per round)
///
/// Operates on spbla::Matrix through the storage dispatch layer.
#pragma once

#include "backend/context.hpp"
#include "storage/dispatch.hpp"

namespace spbla::algorithms {

/// Fixpoint iteration strategy for the closure.
enum class ClosureStrategy {
    Squaring,  ///< M += M * M per round
    Linear,    ///< M += M * Base per round
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
                                        ClosureStats* stats = nullptr,
                                        const ops::SpGemmOptions& opts = {});

/// Reflexive-transitive closure M* = I | M+.
[[nodiscard]] Matrix reflexive_transitive_closure(
    backend::Context& ctx, const Matrix& adj,
    ClosureStrategy strategy = ClosureStrategy::Squaring, ClosureStats* stats = nullptr);

}  // namespace spbla::algorithms
