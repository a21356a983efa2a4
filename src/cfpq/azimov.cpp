#include "cfpq/azimov.hpp"

#include <cstdint>
#include <string>
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

    index.nt_matrix = seed_nonterminals(ctx, index.cnf, n, [&](const std::string& label) {
        return graph.has_label(label) ? &graph.matrix(label) : nullptr;
    });
    index.rounds = azimov_fixpoint(ctx, index.cnf, index.nt_matrix, opts);
    SPBLA_CHECKED(for (const auto& m : index.nt_matrix) core::validate(m.csr()));
    return index;
}

std::vector<Matrix> seed_nonterminals(
    backend::Context& ctx, const CnfGrammar& cnf, Index n,
    const std::function<const Matrix*(const std::string&)>& label_matrix) {
    std::vector<Matrix> nt(cnf.num_nonterminals(), Matrix{n, n, ctx});
    // T_A |= m, copying m when T_A is still empty: most nonterminals read
    // one label, and an add into an empty matrix is a dispatched copy.
    const auto add = [&](Matrix& t, const Matrix& m) {
        t = t.empty() ? Matrix{m.csr(), ctx} : storage::ewise_add(ctx, t, m);
    };
    for (const auto& [a, label] : cnf.terminal_rules) {
        if (const Matrix* m = label_matrix(label)) add(nt[a], *m);
    }
    if (cnf.start_nullable) add(nt[cnf.start], Matrix::identity(n, ctx));
    return nt;
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
            // An empty operand makes an empty product: nothing to dispatch.
            if (nt[b].empty() || nt[c].empty()) continue;
            Matrix grown = storage::multiply_add(ctx, nt[a], nt[b], nt[c], opts);
            if (grown.nnz() == nt[a].nnz()) continue;
            nt[a] = std::move(grown);
            changed = true;
        }
    }
    return rounds;
}

}  // namespace spbla::cfpq
