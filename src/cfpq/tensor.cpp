#include "cfpq/tensor.hpp"

#include <utility>
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

    // The RSM side of every term is fixed across rounds; only the graph
    // side grows as nonterminal edges are harvested.
    const auto symbols = rsm.symbols();
    std::vector<Matrix> box_matrices;
    for (const auto& symbol : symbols) box_matrices.push_back(rsm.matrix(symbol));
    std::vector<storage::KroneckerTerm> terms;

    // Folds the (start, final) blocks of `source` into the nonterminal
    // matrices and returns the cells each one gained: one fold per
    // nonterminal gives its new cells (the blocks minus its matrix), and
    // one union commits them.
    std::vector<Index> finals;
    const auto harvest = [&](const Matrix& source) {
        std::map<std::string, Matrix> gained;
        for (const auto& nt : rsm.nonterminals) {
            finals.clear();
            for (const auto qf : rsm.box_final.at(nt)) finals.push_back(qf * n);
            Matrix& gm = index.nt_matrix.at(nt);
            Matrix d = storage::fold_blocks(ctx, source, rsm.box_start.at(nt) * n, finals, n,
                                            false, &gm);
            if (d.empty()) continue;
            gm = storage::ewise_add(ctx, gm, d);
            gained.emplace(nt, std::move(d));
        }
        return gained;
    };

    // Round 1: M = sum over RSM symbols of RSM_s (x) G_s, written in one
    // pass, and closed from scratch.
    index.rounds = 1;
    std::map<std::string, Matrix> gained;
    {
        SPBLA_PROF_SPAN_ITER("cfpq.tensor.round", index.rounds);
        for (std::size_t s = 0; s < symbols.size(); ++s) {
            const auto it = index.nt_matrix.find(symbols[s]);
            const Matrix& gm =
                it != index.nt_matrix.end() ? it->second : graph.matrix(symbols[s]);
            if (gm.nnz() != 0) terms.push_back({&box_matrices[s], &gm});
        }
        index.closure = algorithms::transitive_closure(
            ctx, storage::kronecker_sum(ctx, k * n, k * n, terms), opts.strategy);
        gained = harvest(index.closure);
    }

    // Later rounds add only the product edges of the harvested cells.
    while (!gained.empty()) {
        ++index.rounds;
        SPBLA_PROF_SPAN_ITER("cfpq.tensor.round", index.rounds);
        terms.clear();
        for (std::size_t s = 0; s < symbols.size(); ++s) {
            const auto it = gained.find(symbols[s]);
            if (it != gained.end()) terms.push_back({&box_matrices[s], &it->second});
        }
        if (terms.empty()) break;  // no RSM edge carries a grown nonterminal
        const Matrix add = storage::kronecker_sum(ctx, k * n, k * n, terms);
        gained = harvest(algorithms::extend_closure(ctx, index.closure, add));
    }

    SPBLA_CHECKED({
        core::validate(index.closure.csr());
        for (const auto& [nt, m] : index.nt_matrix) core::validate(m.csr());
    });
    return index;
}

}  // namespace spbla::cfpq
