/// \file tensor.hpp
/// \brief The Kronecker-product (tensor) CFPQ algorithm — the paper's `Tns`.
///
/// Works directly on the RSM (no CNF blow-up) and computes the *all-paths*
/// index: after the fixpoint, the final product closure together with the
/// per-nonterminal matrices is enough to restore every path of interest.
///
/// The product is M = sum over symbols s of RSM_s (x) G_s (s ranges over
/// terminals and nonterminals), and every nonterminal A with box start q0
/// and final qf harvests G_A |= C[q0-block, qf-block] (n x n sub-matrices)
/// from the product closure C. The fixpoint is semi-naive:
///   round 1:  C = transitive closure of M; harvest dG_A = new cells of G_A
///   round r:  C = extend_closure(C, sum over A of RSM_A (x) dG_A);
///             harvest dG_A from the cells C gained this round only
/// Rounds stop when no G_A grows. Because M only grows, C is always the
/// closure of the current product, and each round's closure work follows
/// the edges the round added, not the whole product (the incremental
/// transitive closure the paper names as the tensor algorithm's
/// bottleneck). Nullable nonterminals start with the identity matrix (an
/// empty path derives them at every vertex).
#pragma once

#include <map>
#include <string>

#include "algorithms/closure.hpp"
#include "backend/context.hpp"
#include "cfpq/rsm.hpp"
#include "data/labeled_graph.hpp"

namespace spbla::cfpq {

/// Options of the tensor fixpoint.
struct TensorOptions {
    /// Fixpoint strategy of round 1's full closure.
    algorithms::ClosureStrategy strategy = algorithms::ClosureStrategy::Squaring;
};

/// The all-paths index produced by the tensor algorithm.
struct TensorIndex {
    /// graph-sized Boolean matrix per nonterminal (reachability via that NT).
    std::map<std::string, Matrix> nt_matrix;
    /// Transitive closure of the final product (used by path extraction).
    Matrix closure;
    std::size_t rounds{0};

    /// Answer pairs of the start nonterminal.
    [[nodiscard]] const Matrix& reachable(const Grammar& g) const {
        return nt_matrix.at(g.start_symbol());
    }
};

/// Run the tensor CFPQ algorithm (index creation — what Table IV times).
[[nodiscard]] TensorIndex tensor_cfpq(backend::Context& ctx,
                                      const data::LabeledGraph& graph, const Grammar& g,
                                      const TensorOptions& opts = {});

}  // namespace spbla::cfpq
