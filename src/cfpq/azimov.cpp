#include "cfpq/azimov.hpp"

#include <cstdint>
#include <utility>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::cfpq {

AzimovIndex azimov_cfpq(backend::Context& ctx, const data::LabeledGraph& graph,
                        const Grammar& g, const ops::SpGemmOptions& opts) {
    SPBLA_CHECKED(for (const auto& label : graph.labels())
                      core::validate(graph.matrix(label).csr()));
    SPBLA_PROF_SPAN("cfpq.azimov");
    AzimovIndex index;
    index.cnf = to_cnf(g);
    const Index n = graph.num_vertices();
    const Index k = index.cnf.num_nonterminals();

    index.nt_matrix.assign(k, Matrix{n, n});

    // Initialisation: terminal rules pull in the graph's label matrices.
    for (const auto& [a, label] : index.cnf.terminal_rules) {
        if (!graph.has_label(label)) continue;
        index.nt_matrix[a] =
            storage::ewise_add(ctx, index.nt_matrix[a], graph.matrix(label));
    }
    if (index.cnf.start_nullable) {
        index.nt_matrix[index.cnf.start] = storage::ewise_add(
            ctx, index.nt_matrix[index.cnf.start], Matrix::identity(n, ctx));
    }

    index.rounds = azimov_fixpoint(ctx, index.cnf, index.nt_matrix, opts);
    SPBLA_CHECKED(for (const auto& m : index.nt_matrix) core::validate(m.csr()));
    return index;
}

std::size_t azimov_fixpoint(backend::Context& ctx, const CnfGrammar& cnf,
                            std::vector<Matrix>& nt, const ops::SpGemmOptions& opts) {
    const auto& rules = cnf.binary_rules;
    // Versions of T_B and T_C at each rule's last multiply. No live handle
    // has version 0, so every rule runs in round 1.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen(rules.size());
    std::size_t rounds = 0;
    for (bool changed = true; changed;) {
        changed = false;
        ++rounds;
        // One span per round: the trace shows how much work each fixpoint
        // iteration does and how quickly the rounds shrink to convergence.
        SPBLA_PROF_SPAN_ITER("cfpq.azimov.round", rounds);
        for (std::size_t r = 0; r < rules.size(); ++r) {
            const auto [a, b, c] = rules[r];
            const std::pair operands{nt[b].version(), nt[c].version()};
            if (seen[r] == operands) continue;
            seen[r] = operands;
            Matrix grown = storage::multiply_add(ctx, nt[a], nt[b], nt[c], opts);
            if (grown.nnz() == nt[a].nnz()) continue;
            nt[a] = std::move(grown);
            changed = true;
        }
    }
    return rounds;
}

}  // namespace spbla::cfpq
