#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/lubm.hpp"
#include "data/worstcase.hpp"
#include "helpers.hpp"
#include "rpq/engine.hpp"
#include "rpq/query_templates.hpp"
#include "storage/dispatch.hpp"
#include "util/rng.hpp"

namespace spbla::rpq {
namespace {

using testing::ctx;

data::LabeledGraph random_labeled_graph(Index n, const std::vector<std::string>& labels,
                                        double density, std::uint64_t seed) {
    util::Rng rng{seed};
    std::vector<data::LabeledEdge> edges;
    const auto target = static_cast<std::size_t>(density * n * n * labels.size());
    for (std::size_t k = 0; k < target; ++k) {
        edges.push_back({static_cast<Index>(rng.below(n)),
                         labels[rng.below(labels.size())],
                         static_cast<Index>(rng.below(n))});
    }
    return data::LabeledGraph::from_edges(n, edges);
}

TEST(RpqEngine, SingleEdgeQuery) {
    const auto g = data::LabeledGraph::from_edges(3, {{0, "a", 1}, {1, "b", 2}});
    const auto answers = evaluate(ctx(), g, compile_query("a"));
    EXPECT_EQ(answers.to_coords(), (std::vector<Coord>{{0, 1}}));
}

TEST(RpqEngine, ConcatWalksTwoEdges) {
    const auto g = data::LabeledGraph::from_edges(3, {{0, "a", 1}, {1, "b", 2}});
    const auto answers = evaluate(ctx(), g, compile_query("a b"));
    EXPECT_EQ(answers.to_coords(), (std::vector<Coord>{{0, 2}}));
}

TEST(RpqEngine, StarIncludesEmptyPath) {
    const auto g = data::make_path(4);
    const auto answers = evaluate(ctx(), g, compile_query("a*"));
    // a* over a path: all pairs i <= j.
    EXPECT_EQ(answers.nnz(), 10u);
    for (Index i = 0; i < 4; ++i) EXPECT_TRUE(answers.get(i, i));
}

TEST(RpqEngine, PlusExcludesEmptyPath) {
    const auto g = data::make_path(4);
    const auto answers = evaluate(ctx(), g, compile_query("a+"));
    EXPECT_EQ(answers.nnz(), 6u);
    for (Index i = 0; i < 4; ++i) EXPECT_FALSE(answers.get(i, i));
}

TEST(RpqEngine, CycleWithStar) {
    const auto g = data::make_cycle(5);
    const auto answers = evaluate(ctx(), g, compile_query("a*"));
    EXPECT_EQ(answers.nnz(), 25u);  // everything reaches everything
}

TEST(RpqEngine, MissingLabelYieldsNoAnswers) {
    const auto g = data::make_path(4);
    const auto answers = evaluate(ctx(), g, compile_query("zz"));
    EXPECT_EQ(answers.nnz(), 0u);
}

TEST(RpqEngine, AlternationMixesLabels) {
    const auto g = data::LabeledGraph::from_edges(
        4, {{0, "a", 1}, {1, "b", 2}, {2, "a", 3}});
    const auto answers = evaluate(ctx(), g, compile_query("(a | b)+"));
    // Chain 0-1-2-3 is fully connected forward.
    EXPECT_EQ(answers.nnz(), 6u);
}

TEST(RpqEngine, IndexExposesStats) {
    const auto g = data::make_path(16);
    const auto index = build_index(ctx(), g, compile_query("a*"));
    EXPECT_GT(index.product_nnz, 0u);
    EXPECT_GT(index.closure_rounds, 0u);
    EXPECT_GT(index.closure.nnz(), index.product_nnz);
}

TEST(RpqEngine, ClosureStrategiesAgree) {
    const auto g = random_labeled_graph(20, {"a", "b"}, 0.01, 5);
    const auto q = compile_query("a (a | b)*");
    const auto sq = build_index(ctx(), g, q, algorithms::ClosureStrategy::Squaring);
    const auto dl = build_index(ctx(), g, q, algorithms::ClosureStrategy::Delta);
    const Matrix want = evaluate_reference(g, q);
    EXPECT_EQ(sq.reachable, want);
    EXPECT_EQ(dl.reachable, want);
}

TEST(RpqEngine, PathExtractionYieldsAcceptedWords) {
    const auto g = data::make_lubm(2);
    const auto labels = g.labels_by_frequency();
    const auto q = compile_query(labels[0] + " " + labels[1] + "*");
    const auto answers = evaluate(ctx(), g, q);
    ASSERT_GT(answers.nnz(), 0u);
    std::size_t checked = 0;
    for (const auto& pair : answers.to_coords()) {
        std::vector<std::string> word;
        ASSERT_TRUE(extract_path(g, q, pair.row, pair.col, word));
        EXPECT_TRUE(q.accepts(word)) << "witness not in language";
        if (++checked == 25) break;
    }
}

TEST(RpqEngine, ExtractPathFailsForNonAnswer) {
    const auto g = data::make_path(3);
    const auto q = compile_query("a");
    std::vector<std::string> word;
    EXPECT_FALSE(extract_path(g, q, 0, 2, word));  // needs two edges
}

TEST(RpqEngine, ExtractEmptyPathForNullableQuery) {
    const auto g = data::make_path(3);
    const auto q = compile_query("a*");
    std::vector<std::string> word{"sentinel"};
    ASSERT_TRUE(extract_path(g, q, 1, 1, word));
    EXPECT_TRUE(word.empty());
}

TEST(RpqEngine, SingleSourceMatchesFullIndexRow) {
    const auto g = data::make_lubm(2);
    const auto labels = g.labels_by_frequency();
    for (const auto* text : {"a*", "a b*", "(a | b)+"}) {
        std::string instantiated{text};
        // crude placeholder substitution: a -> labels[0], b -> labels[1]
        std::string expanded;
        for (const char c : instantiated) {
            if (c == 'a')
                expanded += labels[0];
            else if (c == 'b')
                expanded += labels[1];
            else
                expanded += c;
        }
        const auto q = compile_query(expanded);
        const auto full = evaluate(ctx(), g, q);
        for (const Index source : {Index{0}, Index{40}, Index{100}}) {
            const auto from = evaluate_from(ctx(), g, q, source);
            for (Index v = 0; v < g.num_vertices(); ++v) {
                ASSERT_EQ(from.get(v), full.get(source, v))
                    << expanded << " source " << source << " target " << v;
            }
        }
    }
}

TEST(RpqEngine, SingleSourceNullableIncludesSource) {
    const auto g = data::make_path(4);
    const auto from = evaluate_from(ctx(), g, compile_query("a*"), 2);
    EXPECT_TRUE(from.get(2));
    EXPECT_TRUE(from.get(3));
    EXPECT_FALSE(from.get(0));
}

TEST(RpqEngine, SingleSourceOutOfRangeThrows) {
    const auto g = data::make_path(4);
    EXPECT_THROW((void)evaluate_from(ctx(), g, compile_query("a"), 4), Error);
}

/// The answers come from one fold of the closure's (start, final) blocks,
/// the identity joining it for a nullable query: every Table II template on
/// a small LUBM, instantiated with its most frequent labels, against the
/// reference walk and against the blocks read one by one, on both
/// contexts.
TEST(RpqEngine, Table2OnSmallLubmMatchesReference) {
    const auto g = data::make_lubm(2);
    const auto labels = g.labels_by_frequency();
    std::size_t nullable = 0;
    for (const auto& tpl : table2_templates()) {
        if (labels.size() < tpl.arity) continue;
        const auto q = minimize(determinize(glushkov(*tpl.instantiate(labels))));
        const Matrix want = evaluate_reference(g, q);
        const Index n = g.num_vertices();
        nullable += q.accepting[q.start] ? 1 : 0;
        for (backend::Context* cx : {&ctx(), &testing::seq_ctx()}) {
            const RpqIndex index = build_index(*cx, g, q);
            EXPECT_EQ(index.reachable, want) << tpl.name;
            Matrix blocks = q.accepting[q.start] ? Matrix::identity(n, *cx) : Matrix{n, n, *cx};
            for (const auto f : q.accepting_states()) {
                blocks = storage::ewise_add(
                    *cx, blocks, storage::submatrix(*cx, index.closure, q.start * n, f * n, n, n));
            }
            EXPECT_EQ(index.reachable, blocks) << tpl.name;
        }
    }
    EXPECT_GT(nullable, 0u);
}

/// Core property: the tensor-product engine agrees with the direct
/// product-automaton BFS on random graphs for every Table II template.
class EngineAgreement : public ::testing::TestWithParam<QueryTemplate> {};

TEST_P(EngineAgreement, MatchesReferenceBfs) {
    const auto& tpl = GetParam();
    const std::vector<std::string> alphabet{"a", "b", "c", "d", "e", "f"};
    const auto q = minimize(determinize(glushkov(*tpl.instantiate(alphabet))));
    for (const std::uint64_t seed : {1u, 2u}) {
        const auto g = random_labeled_graph(14, alphabet, 0.004, seed * 31 + 7);
        const RpqIndex index = build_index(ctx(), g, q);
        EXPECT_EQ(index.reachable, evaluate_reference(g, q))
            << tpl.name << " seed " << seed;
        // The fused product matrix equals the per-symbol fold cell for cell.
        const Index kn = q.num_states * g.num_vertices();
        Matrix fold{kn, kn, ctx()};
        for (const auto& symbol : q.symbols()) {
            if (!g.has_label(symbol)) continue;
            fold = storage::ewise_add(
                ctx(), fold, storage::kronecker(ctx(), q.matrix(symbol), g.matrix(symbol)));
        }
        EXPECT_EQ(index.product, fold) << tpl.name << " seed " << seed;
        EXPECT_EQ(index.product_nnz, fold.nnz()) << tpl.name << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Table2, EngineAgreement,
                         ::testing::ValuesIn(table2_templates()),
                         [](const ::testing::TestParamInfo<QueryTemplate>& info) {
                             std::string name = info.param.name;
                             for (auto& c : name) {
                                 if (c == '^') c = '_';
                             }
                             return name;
                         });

}  // namespace
}  // namespace spbla::rpq
