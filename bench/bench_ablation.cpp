/// \file bench_ablation.cpp
/// \brief Experiment E10 — ablations of the design choices DESIGN.md calls
/// out, each isolating one mechanism the paper's implementation relies on:
///   (a) SpGEMM row binning (tiny / hash / dense accumulators) on vs off,
///   (b) hash-table load factor,
///   (c) closure strategy: squaring vs linear,
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
#include "ops/spgemm.hpp"
#include "rpq/dfa.hpp"
#include "rpq/query_templates.hpp"

int main() {
    using namespace spbla;

    std::printf("E10a: SpGEMM accumulator binning (C = A * A, rmat scale 12..13)\n");
    std::printf("%-10s %12s %12s %12s\n", "matrix", "binned ms", "no-bin ms",
                "hash-only ms");
    bench::rule(50);
    for (const Index scale : {12u, 13u}) {
        const CsrMatrix a = data::make_rmat(scale, 8).csr();
        ops::SpGemmOptions binned;
        ops::SpGemmOptions nobin;
        nobin.use_binning = false;
        ops::SpGemmOptions hash_only;
        hash_only.use_binning = false;
        hash_only.tiny_row_threshold = 0;
        const double t1 =
            bench::time_runs([&] { (void)ops::multiply(bench::ctx(), a, a, binned); }, 3);
        const double t2 =
            bench::time_runs([&] { (void)ops::multiply(bench::ctx(), a, a, nobin); }, 3);
        const double t3 = bench::time_runs(
            [&] { (void)ops::multiply(bench::ctx(), a, a, hash_only); }, 3);
        std::printf("rmat-%-5u %12.2f %12.2f %12.2f\n", scale, t1 * 1e3, t2 * 1e3,
                    t3 * 1e3);
    }

    std::printf("\nE10a2: SpGEMM schedule + single-pass ablation (C = A * A)\n");
    std::printf("%-14s %10s %10s %10s %10s %10s\n", "matrix", "full ms", "no-cache",
                "no-binsch", "no-ticket", "baseline");
    bench::rule(70);
    {
        // Each column removes one mechanism from the full pipeline;
        // "baseline" is the pre-bin-scheduler two-pass static-chunk kernel.
        ops::SpGemmOptions full;
        ops::SpGemmOptions no_cache = full;
        no_cache.symbolic_cache_budget = 0;
        ops::SpGemmOptions no_binsched = full;
        no_binsched.use_bin_scheduler = false;
        ops::SpGemmOptions no_ticket = full;
        no_ticket.use_ticket_scheduler = false;
        ops::SpGemmOptions baseline;
        baseline.legacy_accumulator_reset = true;
        baseline.dense_row_fraction = 0.25;
        baseline.symbolic_cache_budget = 0;
        baseline.use_bin_scheduler = false;
        baseline.use_ticket_scheduler = false;
        struct Case {
            const char* name;
            CsrMatrix m;
        };
        const Case cases[] = {
            {"rmat-13-8", data::make_rmat(13, 8).csr()},
            {"zipf-4096-16", data::make_zipf(4096, 4096, 16, 1.0).csr()},
            {"zipf-8192-8", data::make_zipf(8192, 8192, 8, 1.1).csr()},
        };
        for (const auto& c : cases) {
            const auto time_of = [&](const ops::SpGemmOptions& opts) {
                return bench::time_runs(
                           [&] { (void)ops::multiply(bench::ctx(), c.m, c.m, opts); }, 3) *
                       1e3;
            };
            std::printf("%-14s %10.2f %10.2f %10.2f %10.2f %10.2f\n", c.name,
                        time_of(full), time_of(no_cache), time_of(no_binsched),
                        time_of(no_ticket), time_of(baseline));
            std::fflush(stdout);
        }
    }

    std::printf("\nE10b: hash-table load factor (C = A * A, rmat scale 13)\n");
    std::printf("%-8s %12s\n", "load", "ms");
    bench::rule(22);
    {
        const CsrMatrix a = data::make_rmat(13, 8).csr();
        for (const double load : {0.125, 0.25, 0.5, 0.75, 0.95}) {
            ops::SpGemmOptions opts;
            opts.hash_load_factor = load;
            opts.tiny_row_threshold = 0;  // force the hash path everywhere
            opts.use_binning = false;
            const double t = bench::time_runs(
                [&] { (void)ops::multiply(bench::ctx(), a, a, opts); }, 3);
            std::printf("%-8.3f %12.2f\n", load, t * 1e3);
        }
    }

    std::printf("\nE10c: transitive closure strategy (squaring vs linear vs "
                "semi-naive delta)\n");
    std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "graph", "sq ms", "sq rnds",
                "lin ms", "lin rnds", "dlt ms", "dlt rnds");
    bench::rule(82);
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
            algorithms::ClosureStats sq, lin, dlt;
            const double t1 = bench::time_runs(
                [&] {
                    (void)algorithms::transitive_closure(
                        bench::ctx(), c.m, algorithms::ClosureStrategy::Squaring, &sq);
                },
                3);
            const double t2 = bench::time_runs(
                [&] {
                    (void)algorithms::transitive_closure(
                        bench::ctx(), c.m, algorithms::ClosureStrategy::Linear, &lin);
                },
                c.name[0] == 'p' ? 1 : 3);  // linear over the long path is slow
            const double t3 = bench::time_runs(
                [&] {
                    (void)algorithms::transitive_closure(
                        bench::ctx(), c.m, algorithms::ClosureStrategy::Delta, &dlt);
                },
                c.name[0] == 'p' ? 1 : 3);
            std::printf("%-14s %10.2f %10zu %10.2f %10zu %10.2f %10zu\n", c.name,
                        t1 * 1e3, sq.rounds, t2 * 1e3, lin.rounds, t3 * 1e3,
                        dlt.rounds);
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

    std::printf("\nExpected shapes: binning beats hash-only once dense rows "
                "appear; load factors near 1 degrade probing; squaring wins on "
                "long diameters (log vs linear rounds) while semi-naive delta "
                "beats plain linear by re-extending only the frontier (and "
                "beats squaring once the closure densifies); warm-start loses "
                "to recompute — the denser warm-started operand costs more "
                "than the rounds it saves, which is the concrete form of the "
                "paper's 'incremental transitive closure is the bottleneck' "
                "observation; minimising the query DFA shrinks the tensor "
                "product and its closure roughly in proportion to the state "
                "reduction.\n");
    return 0;
}
