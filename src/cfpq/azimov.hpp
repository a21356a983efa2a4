/// \file azimov.hpp
/// \brief Azimov's matrix CFPQ algorithm — the paper's `Mtx` baseline.
///
/// The grammar is lowered to CNF, keeping only the nonterminals the start
/// symbol reaches (to_cnf); one Boolean matrix per nonterminal is
/// iterated with the fused multiply-add T_A += T_B x T_C for every binary
/// rule A -> B C until no matrix grows. A rule whose T_B and T_C are the
/// ones it last multiplied is skipped (azimov_fixpoint), so the later
/// rounds pay only for the rules one of whose operands grew, and a rule
/// with an empty operand dispatches nothing. The CNF lowering (and the
/// grammar size increase it causes) is exactly the cost the tensor
/// algorithm avoids.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "backend/context.hpp"
#include "cfpq/cnf.hpp"
#include "data/labeled_graph.hpp"
#include "storage/dispatch.hpp"

namespace spbla::cfpq {

/// The single-path-style index: one graph-sized matrix per CNF nonterminal.
struct AzimovIndex {
    CnfGrammar cnf;
    std::vector<Matrix> nt_matrix;  ///< indexed by CNF nonterminal id
    std::size_t rounds{0};

    /// Answer pairs of the start nonterminal (includes the diagonal when
    /// the start symbol is nullable).
    [[nodiscard]] const Matrix& reachable() const { return nt_matrix[cnf.start]; }
};

/// Run Azimov's algorithm (index creation — the `Mtx` columns of Table IV).
[[nodiscard]] AzimovIndex azimov_cfpq(backend::Context& ctx,
                                      const data::LabeledGraph& graph, const Grammar& g);

/// The nonterminal matrices before Azimov's first round, one n x n matrix
/// per nonterminal of \p cnf: T_A holds the label matrix of every terminal
/// rule A -> a, and the start's diagonal when it is nullable. \p
/// label_matrix returns a label's matrix, or null for a label the graph
/// lacks. A nonterminal's first matrix is copied rather than added, so only
/// a nonterminal with several terminal rules dispatches an ewise_add.
[[nodiscard]] std::vector<Matrix> seed_nonterminals(
    backend::Context& ctx, const CnfGrammar& cnf, Index n,
    const std::function<const Matrix*(const std::string&)>& label_matrix);

/// Azimov's fixpoint over \p nt, the nonterminal matrices (indexed by CNF
/// nonterminal id) seeded from the terminal rules: each round runs
/// T_A += T_B x T_C for the binary rules of \p cnf in rule order, and the
/// rounds stop after one that grows no matrix. Returns the rounds run, that
/// last one included.
///
/// A rule is skipped when T_B and T_C carry the content versions they had
/// at its last multiply: T_A held their product then and has only grown
/// since. A product that adds no cell is dropped, so T_A keeps its version
/// and the rules reading it skip too. A rule with an empty T_B or T_C
/// records their versions and dispatches nothing, its product being empty.
/// Every round ends on the same matrices as running every rule.
[[nodiscard]] std::size_t azimov_fixpoint(backend::Context& ctx, const CnfGrammar& cnf,
                                          std::vector<Matrix>& nt);

}  // namespace spbla::cfpq
