/// \file bench_ablation.cpp
/// \brief Experiment E10 — ablations of the design choices DESIGN.md calls
/// out, each isolating one mechanism the paper's implementation relies on:
///   (c) closure strategy: squaring vs semi-naive delta,
///   (e) query automaton size in the RPQ tensor product.
#include <cstdio>

#include "algorithms/closure.hpp"
#include "common.hpp"
#include "datasets.hpp"
#include "data/lubm.hpp"
#include "data/rmat.hpp"
#include "data/worstcase.hpp"
#include "ops/ewise_add.hpp"
#include "ops/kronecker.hpp"
#include "rpq/dfa.hpp"
#include "rpq/query_templates.hpp"

int main() {
    using namespace spbla;

    std::printf("E10c: transitive closure strategy (squaring vs semi-naive delta)\n");
    std::printf("%-14s %10s %10s %10s %10s\n", "graph", "sq ms", "sq rnds", "dlt ms",
                "dlt rnds");
    bench::rule(60);
    {
        struct Case {
            const char* name;
            Matrix m;
        };
        const Case cases[] = {
            {"path-1024", data::make_path(1024).matrix("a")},
            {"rmat-10", data::make_rmat(10, 4)},
            {"cycle-512", data::make_cycle(512).matrix("a")},
        };
        for (const auto& c : cases) {
            algorithms::ClosureStats sq, dlt;
            const double t1 = bench::time_runs(
                [&] {
                    (void)algorithms::transitive_closure(
                        bench::ctx(), c.m, algorithms::ClosureStrategy::Squaring, &sq);
                },
                3);
            const double t2 = bench::time_runs(
                [&] {
                    (void)algorithms::transitive_closure(
                        bench::ctx(), c.m, algorithms::ClosureStrategy::Delta, &dlt);
                },
                c.name[0] == 'p' ? 1 : 3);  // delta over the long path is slow
            std::printf("%-14s %10.2f %10zu %10.2f %10zu\n", c.name, t1 * 1e3, sq.rounds,
                        t2 * 1e3, dlt.rounds);
            std::fflush(stdout);
        }
    }

    std::printf("\nE10e: query automaton size (raw Glushkov NFA vs minimal DFA) "
                "in the RPQ tensor product\n");
    std::printf("%-7s %9s %9s %12s %12s %12s %12s\n", "query", "NFA |Q|", "DFA |Q|",
                "NFA nnz", "DFA nnz", "NFA ms", "DFA ms");
    bench::rule(80);
    {
        const auto g = data::make_lubm(60);
        const auto labels = g.labels_by_frequency();
        for (const auto* name : {"Q4^3", "Q9^4", "Q13", "Q14"}) {
            const auto& tpl = rpq::template_by_name(name);
            const auto re = tpl.instantiate(labels);
            const auto nfa = rpq::glushkov(*re);
            const auto dfa = rpq::minimize(rpq::determinize(nfa));

            const auto closure_of = [&](const auto& automaton, Index k) {
                CsrMatrix product{k * g.num_vertices(), k * g.num_vertices()};
                for (const auto& symbol : automaton.symbols()) {
                    if (!g.has_label(symbol)) continue;
                    product = ops::ewise_add(
                        bench::ctx(), product,
                        ops::kronecker(bench::ctx(), automaton.matrix(symbol).csr(),
                                       g.matrix(symbol).csr()));
                }
                const std::size_t nnz = product.nnz();
                const Matrix wrapped{product, bench::ctx()};
                const double s = bench::time_runs(
                    [&] { (void)algorithms::transitive_closure(bench::ctx(), wrapped); },
                    3);
                return std::make_pair(nnz, s);
            };
            const auto [nfa_nnz, nfa_s] = closure_of(nfa, nfa.num_states);
            const auto [dfa_nnz, dfa_s] = closure_of(dfa, dfa.num_states);
            std::printf("%-7s %9u %9u %12zu %12zu %12.2f %12.2f\n", name,
                        nfa.num_states, dfa.num_states, nfa_nnz, dfa_nnz, nfa_s * 1e3,
                        dfa_s * 1e3);
            std::fflush(stdout);
        }
    }

    std::printf("\nExpected shapes: squaring wins on long diameters (log vs "
                "linear rounds) while semi-naive delta re-extends only the "
                "frontier (and beats squaring once the closure densifies); "
                "minimising the query DFA shrinks the tensor "
                "product and its closure roughly in proportion to the state "
                "reduction.\n");
    return 0;
}
