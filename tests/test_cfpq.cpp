#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cfpq/azimov.hpp"
#include "cfpq/queries.hpp"
#include "cfpq/rsm.hpp"
#include "cfpq/tensor.hpp"
#include "cfpq/worklist.hpp"
#include "data/kernel_alias.hpp"
#include "data/rdflike.hpp"
#include "data/worstcase.hpp"
#include "helpers.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace spbla::cfpq {
namespace {

using testing::ctx;

data::LabeledGraph random_labeled_graph(Index n, const std::vector<std::string>& labels,
                                        std::size_t n_edges, std::uint64_t seed) {
    util::Rng rng{seed};
    std::vector<data::LabeledEdge> edges;
    for (std::size_t k = 0; k < n_edges; ++k) {
        edges.push_back({static_cast<Index>(rng.below(n)),
                         labels[rng.below(labels.size())],
                         static_cast<Index>(rng.below(n))});
    }
    return data::LabeledGraph::from_edges(n, edges);
}

/// The product the tensor fixpoint ends on: the sum of RSM_s (x) G_s over
/// the final nonterminal matrices and the graph's label matrices.
Matrix final_product(const data::LabeledGraph& g, const Grammar& grammar,
                     const TensorIndex& index) {
    const Rsm rsm = build_rsm(grammar);
    const Index n = g.num_vertices();
    Matrix product{rsm.num_states * n, rsm.num_states * n, ctx()};
    for (const auto& symbol : rsm.symbols()) {
        const auto it = index.nt_matrix.find(symbol);
        const Matrix& gm = it != index.nt_matrix.end() ? it->second : g.matrix(symbol);
        product = storage::ewise_add(ctx(), product,
                                     storage::kronecker(ctx(), rsm.matrix(symbol), gm));
    }
    return product;
}

/// Azimov's fixpoint with no skip: every binary rule runs in every round,
/// and the rounds stop after one that grows no matrix.
AzimovIndex naive_azimov(const data::LabeledGraph& graph, const Grammar& g) {
    AzimovIndex index;
    index.cnf = to_cnf(g);
    const Index n = graph.num_vertices();
    auto& nt = index.nt_matrix;
    nt.assign(index.cnf.num_nonterminals(), Matrix{n, n});
    for (const auto& [a, label] : index.cnf.terminal_rules) {
        if (!graph.has_label(label)) continue;
        nt[a] = storage::ewise_add(ctx(), nt[a], graph.matrix(label));
    }
    if (index.cnf.start_nullable) {
        nt[index.cnf.start] =
            storage::ewise_add(ctx(), nt[index.cnf.start], Matrix::identity(n, ctx()));
    }
    for (bool changed = true; changed;) {
        changed = false;
        ++index.rounds;
        for (const auto& [a, b, c] : index.cnf.binary_rules) {
            const std::size_t before = nt[a].nnz();
            nt[a] = storage::multiply_add(ctx(), nt[a], nt[b], nt[c]);
            changed = changed || nt[a].nnz() != before;
        }
    }
    return index;
}

/// azimov_cfpq, which skips the rules whose operands did not grow, ends on
/// the naive loop's matrix for every nonterminal after as many rounds.
void expect_naive_trajectory(const data::LabeledGraph& graph, const Grammar& grammar,
                             const std::string& name) {
    const AzimovIndex want = naive_azimov(graph, grammar);
    const AzimovIndex got = azimov_cfpq(ctx(), graph, grammar);
    EXPECT_EQ(got.rounds, want.rounds) << name;
    ASSERT_EQ(got.nt_matrix.size(), want.nt_matrix.size()) << name;
    for (std::size_t a = 0; a < want.nt_matrix.size(); ++a) {
        EXPECT_EQ(got.nt_matrix[a], want.nt_matrix[a])
            << name << ": nonterminal " << want.cnf.nt_names[a];
    }
}

TEST(AzimovCfpq, DyckOnNestedPath) {
    // 0-a->1-a->2-b->3-b->4 with S -> a S b | a b: exactly (1,3) and (0,4).
    const auto g = data::LabeledGraph::from_edges(
        5, {{0, "a", 1}, {1, "a", 2}, {2, "b", 3}, {3, "b", 4}});
    const auto grammar = Grammar::parse("S -> a S b | a b\n");
    const auto index = azimov_cfpq(ctx(), g, grammar);
    EXPECT_EQ(index.reachable().to_coords(), (std::vector<Coord>{{0, 4}, {1, 3}}));
}

TEST(AzimovCfpq, EmptyGraphEmptyIndex) {
    const auto g = data::LabeledGraph::from_edges(5, {{0, "x", 1}});
    const auto grammar = Grammar::parse("S -> a S b | a b\n");
    const auto index = azimov_cfpq(ctx(), g, grammar);
    EXPECT_EQ(index.reachable().nnz(), 0u);
}

TEST(AzimovCfpq, NullableStartPutsDiagonal) {
    const auto g = data::make_path(3);
    const auto grammar = Grammar::parse("S -> a S | eps\n");
    const auto index = azimov_cfpq(ctx(), g, grammar);
    for (Index i = 0; i < 3; ++i) EXPECT_TRUE(index.reachable().get(i, i));
    EXPECT_TRUE(index.reachable().get(0, 2));
}

TEST(TensorCfpq, DyckOnTwoCyclesMatchesWorklist) {
    const auto g = data::make_two_cycles(4, 3);
    const auto grammar = Grammar::parse("S -> a S b | a b\n");
    const auto index = tensor_cfpq(ctx(), g, grammar);
    const auto ref = worklist_cfpq(g, grammar);
    EXPECT_EQ(index.reachable(grammar), ref);
    EXPECT_GT(index.rounds, 1u);
    EXPECT_GT(ref.nnz(), 0u);
}

TEST(TensorCfpq, HandlesRegexRhsDirectly) {
    // Query with regex RHS (no CNF needed): S -> a (b)* .
    const auto g = data::LabeledGraph::from_edges(
        4, {{0, "a", 1}, {1, "b", 2}, {2, "b", 3}});
    const auto grammar = Grammar::parse("S -> a b*\n");
    const auto index = tensor_cfpq(ctx(), g, grammar);
    const auto& r = index.reachable(grammar);
    EXPECT_TRUE(r.get(0, 1));
    EXPECT_TRUE(r.get(0, 2));
    EXPECT_TRUE(r.get(0, 3));
    EXPECT_EQ(r.nnz(), 3u);
}

TEST(WorklistCfpq, MatchesHandComputedDyck) {
    const auto g = data::LabeledGraph::from_edges(
        5, {{0, "a", 1}, {1, "a", 2}, {2, "b", 3}, {3, "b", 4}});
    const auto grammar = Grammar::parse("S -> a S b | a b\n");
    EXPECT_EQ(worklist_cfpq(g, grammar).to_coords(),
              (std::vector<Coord>{{0, 4}, {1, 3}}));
}

TEST(AllThreeAlgorithms, AgreeOnPaperQueriesOverGeneratedData) {
    struct Case {
        const char* name;
        data::LabeledGraph graph;
        Grammar grammar;
    };
    auto ontology = data::make_ontology(60, 1.0);
    ontology.add_inverse_labels();
    auto geo = data::make_geospecies(60, 8);
    geo.add_inverse_labels();
    const auto alias = data::make_alias_graph(30);

    const std::vector<Case> cases = {
        {"g1/ontology", ontology, query_g1()},
        {"g2/ontology", ontology, query_g2()},
        {"geo/geospecies", geo, query_geo()},
        {"ma/alias", alias, query_ma()},
    };
    for (const auto& c : cases) {
        const auto mtx = azimov_cfpq(ctx(), c.graph, c.grammar).reachable();
        const auto tns = tensor_cfpq(ctx(), c.graph, c.grammar).reachable(c.grammar);
        const auto tns_seq =
            tensor_cfpq(testing::seq_ctx(), c.graph, c.grammar).reachable(c.grammar);
        const auto ref = worklist_cfpq(c.graph, c.grammar);
        EXPECT_EQ(mtx, ref) << c.name << ": Mtx vs worklist";
        EXPECT_EQ(tns, ref) << c.name << ": Tns vs worklist";
        EXPECT_EQ(tns_seq, ref) << c.name << ": sequential Tns vs worklist";
        expect_naive_trajectory(c.graph, c.grammar, c.name);
    }
}

/// Random-grammar random-graph agreement sweep.
struct RandomCase {
    std::uint64_t seed;
};

class CfpqAgreementSweep : public ::testing::TestWithParam<RandomCase> {};

TEST_P(CfpqAgreementSweep, MtxEqualsTnsEqualsWorklist) {
    util::Rng rng{GetParam().seed};
    // Random grammar over {a, b} with 1-2 nonterminals from a template pool.
    const std::vector<std::string> pool = {
        "S -> a S b | a b\n",
        "S -> a S | b\n",
        "S -> S S | a | b\n",
        "S -> a V b\nV -> a? b*\n",
        "S -> V V\nV -> a V | b\n",
        "S -> (a | b) S? (a | b)\n",
        "S -> a (S | b)+ \n",
    };
    const auto grammar = Grammar::parse(pool[rng.below(pool.size())]);
    const auto n = 6 + static_cast<Index>(rng.below(8));
    const auto g = random_labeled_graph(n, {"a", "b"}, n * 2, rng.below(1u << 30));

    const auto ref = worklist_cfpq(g, grammar);
    EXPECT_EQ(azimov_cfpq(ctx(), g, grammar).reachable(), ref) << "Mtx";
    expect_naive_trajectory(g, grammar, "Mtx trajectory");
    const auto tns = tensor_cfpq(ctx(), g, grammar);
    EXPECT_EQ(tns.reachable(grammar), ref) << "Tns";
    // tensor_paths walks this closure, so it must be the scratch closure of
    // the final product, not only agree on the answers.
    EXPECT_EQ(tns.closure,
              algorithms::transitive_closure(ctx(), final_product(g, grammar, tns)))
        << "Tns closure";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfpqAgreementSweep,
                         ::testing::Values(RandomCase{1}, RandomCase{2}, RandomCase{3},
                                           RandomCase{4}, RandomCase{5}, RandomCase{6},
                                           RandomCase{7}, RandomCase{8}, RandomCase{9},
                                           RandomCase{10}, RandomCase{11},
                                           RandomCase{12}));

TEST(AzimovSkip, KeepsTheNaiveTrajectoryOnSelfRecursiveRules) {
    // Each grammar's CNF holds a rule that reads its own output (A -> A C,
    // A -> B A, A -> A A) or one operand twice (A -> B B).
    using Rule = std::tuple<Index, Index, Index>;
    static constexpr auto own_b = [](const Rule& r) { return std::get<0>(r) == std::get<1>(r); };
    static constexpr auto own_c = [](const Rule& r) { return std::get<0>(r) == std::get<2>(r); };
    static constexpr auto twice = [](const Rule& r) { return std::get<1>(r) == std::get<2>(r); };
    const struct {
        const char* text;
        bool (*shape)(const Rule&);
    } grammars[] = {
        {"S -> S b | a\n", own_b},
        {"S -> b S | a\n", own_c},
        {"S -> B B\nB -> a | b S\n", twice},
        {"S -> S S | a | b\n", [](const Rule& r) { return own_b(r) && twice(r); }},
        {"S -> a S b | S S | a b\n",
         [](const Rule& r) { return own_b(r) && twice(r); }},
    };
    std::vector<std::pair<std::string, data::LabeledGraph>> graphs = {
        {"two cycles", data::make_two_cycles(4, 3)},
        {"path", data::LabeledGraph::from_edges(
                     6, {{0, "a", 1}, {1, "b", 2}, {2, "a", 3}, {3, "b", 4}, {4, "b", 5}})},
    };
    for (const std::uint64_t seed : {3, 17, 29}) {
        graphs.emplace_back("random " + std::to_string(seed),
                            random_labeled_graph(12, {"a", "b"}, 30, seed));
    }
    for (const auto& [text, shape] : grammars) {
        const auto grammar = Grammar::parse(text);
        const auto cnf = to_cnf(grammar);
        EXPECT_TRUE(std::any_of(cnf.binary_rules.begin(), cnf.binary_rules.end(), shape))
            << text;
        for (const auto& [name, g] : graphs) {
            expect_naive_trajectory(g, grammar, std::string{text} + " on " + name);
        }
    }
}

TEST(AzimovSkip, AfterRoundOneOnlyRulesWithAGrownOperandMultiply) {
    // Over the path 0 -a-> 1 -b-> 2 -c-> 3 -d-> 4, with A..D its edges and P
    // seeded with (0, 2), the rules in order Z -> X Y, X -> A B, Y -> C D,
    // Q -> P C, P -> A B.
    //  - Round 1 dispatches four: Z -> X Y meets an empty X, so it records
    //    its operands' versions and dispatches nothing. X gains (0, 2),
    //    Y (2, 4) and Q (0, 3); P -> A B adds nothing, so its product is
    //    dropped and P keeps its version.
    //  - Round 2 runs only Z -> X Y, whose X and Y grew: Z gains (0, 4).
    //    Q -> P C skips, because P kept its version.
    //  - Round 3 runs nothing and ends the fixpoint.
    // The naive loop runs 15 multiply_adds over the same 3 rounds.
    enum : Index { Z, X, Y, Q, P, A, B, C, D };
    CnfGrammar cnf;
    cnf.nt_names = {"Z", "X", "Y", "Q", "P", "A", "B", "C", "D"};
    cnf.binary_rules = {{Z, X, Y}, {X, A, B}, {Y, C, D}, {Q, P, C}, {P, A, B}};
    std::vector<Matrix> nt(9, Matrix{5, 5});
    for (Index i = 0; i < 4; ++i) nt[A + i] = Matrix::from_coords(5, 5, {{i, i + 1}});
    nt[P] = Matrix::from_coords(5, 5, {{0, 2}});

    const auto before = telemetry::snapshot();
    const std::size_t rounds = azimov_fixpoint(ctx(), cnf, nt);
    const auto after = telemetry::snapshot();
    EXPECT_EQ(rounds, 3u);
    EXPECT_EQ(after.counter(telemetry::Counter::DispatchOps) -
                  before.counter(telemetry::Counter::DispatchOps),
              5u);
    EXPECT_EQ(nt[Z].to_coords(), (std::vector<Coord>{{0, 4}}));
    EXPECT_EQ(nt[X].to_coords(), (std::vector<Coord>{{0, 2}}));
    EXPECT_EQ(nt[Y].to_coords(), (std::vector<Coord>{{2, 4}}));
    EXPECT_EQ(nt[Q].to_coords(), (std::vector<Coord>{{0, 3}}));
    EXPECT_EQ(nt[P].to_coords(), (std::vector<Coord>{{0, 2}}));
}

TEST(CfpqSemantics, RpqShapedGrammarMatchesClosureSemantics) {
    // A regular grammar evaluated through the CFPQ machinery must match the
    // plain transitive-closure answer: S -> a+ over a path graph.
    const auto g = data::make_path(6);
    const auto grammar = Grammar::parse("S -> a+\n");
    const auto tns = tensor_cfpq(ctx(), g, grammar).reachable(grammar);
    const auto closure = algorithms::transitive_closure(ctx(), g.matrix("a"));
    EXPECT_EQ(tns, closure);
}

}  // namespace
}  // namespace spbla::cfpq
