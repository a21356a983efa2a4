#include "cfpq/tensor.hpp"

#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "util/contracts.hpp"

namespace spbla::cfpq {

TensorIndex tensor_cfpq(backend::Context& ctx, const data::LabeledGraph& graph,
                        const Grammar& g, const TensorOptions& opts) {
    SPBLA_CHECKED(for (const auto& label : graph.labels())
                      core::validate(graph.matrix(label).csr()));
    SPBLA_PROF_SPAN("cfpq.tensor");
    const Rsm rsm = build_rsm(g);
    const Index n = graph.num_vertices();
    const Index k = rsm.num_states;

    TensorIndex index;
    // Initialise nonterminal matrices: nullable NTs hold the identity
    // (every vertex derives them via the empty path).
    for (const auto& nt : rsm.nonterminals) {
        index.nt_matrix.emplace(nt, Matrix{n, n});
    }
    for (const auto& nt : rsm.nullable) {
        index.nt_matrix.insert_or_assign(nt, Matrix::identity(n, ctx));
    }

    Matrix closure{k * n, k * n};  // warm-start accumulator
    const auto symbol_matrix = [&](const std::string& s) -> const Matrix& {
        const auto it = index.nt_matrix.find(s);
        return it != index.nt_matrix.end() ? it->second : graph.matrix(s);
    };

    // The RSM side of every term is fixed across rounds; only the graph
    // side grows as nonterminal edges are harvested.
    const auto symbols = rsm.symbols();
    std::vector<Matrix> box_matrices;
    for (const auto& symbol : symbols) box_matrices.push_back(rsm.matrix(symbol));
    std::vector<storage::KroneckerTerm> terms;

    for (;;) {
        ++index.rounds;
        SPBLA_PROF_SPAN_ITER("cfpq.tensor.round", index.rounds);

        // M = sum over RSM symbols of RSM_s (x) G_s, written in one pass.
        terms.clear();
        for (std::size_t s = 0; s < symbols.size(); ++s) {
            const Matrix& gm = symbol_matrix(symbols[s]);
            if (gm.nnz() != 0) terms.push_back({&box_matrices[s], &gm});
        }
        Matrix product = storage::kronecker_sum(ctx, k * n, k * n, terms);
        if (opts.incremental_closure) {
            // Valid warm start: closure(closure(Mprev) | M) == closure(M)
            // because Mprev is a submatrix of M (edges only get added).
            product = storage::ewise_add(ctx, product, closure);
        }
        closure = algorithms::transitive_closure(ctx, product, opts.strategy);

        // Harvest new nonterminal edges from the (start, final) blocks.
        bool changed = false;
        for (const auto& nt : rsm.nonterminals) {
            const Index q0 = rsm.box_start.at(nt);
            Matrix updated = index.nt_matrix.at(nt);
            for (const auto qf : rsm.box_final.at(nt)) {
                const Matrix block =
                    storage::submatrix(ctx, closure, q0 * n, qf * n, n, n);
                updated = storage::ewise_add(ctx, updated, block);
            }
            if (updated.nnz() != index.nt_matrix.at(nt).nnz()) {
                index.nt_matrix.insert_or_assign(nt, std::move(updated));
                changed = true;
            }
        }
        if (!changed) break;
    }

    index.closure = std::move(closure);
    SPBLA_CHECKED({
        core::validate(index.closure.csr());
        for (const auto& [nt, m] : index.nt_matrix) core::validate(m.csr());
    });
    return index;
}

}  // namespace spbla::cfpq
