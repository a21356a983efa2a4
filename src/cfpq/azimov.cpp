#include "cfpq/azimov.hpp"

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

    // Fixpoint: T_A += T_B x T_C for every A -> B C.
    for (bool changed = true; changed;) {
        changed = false;
        ++index.rounds;
        // One span per round: the trace shows how much work each fixpoint
        // iteration does and how quickly the rounds shrink to convergence.
        SPBLA_PROF_SPAN_ITER("cfpq.azimov.round", index.rounds);
        for (const auto& [a, b, c] : index.cnf.binary_rules) {
            const std::size_t before = index.nt_matrix[a].nnz();
            index.nt_matrix[a] =
                storage::multiply_add(ctx, index.nt_matrix[a], index.nt_matrix[b],
                                      index.nt_matrix[c], opts);
            if (index.nt_matrix[a].nnz() != before) changed = true;
        }
    }
    SPBLA_CHECKED(for (const auto& m : index.nt_matrix) core::validate(m.csr()));
    return index;
}

}  // namespace spbla::cfpq
