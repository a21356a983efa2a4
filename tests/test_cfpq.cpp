#include <gtest/gtest.h>

#include <string>
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
