#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cfpq/cnf.hpp"
#include "cfpq/cyk.hpp"
#include "cfpq/grammar.hpp"
#include "cfpq/queries.hpp"
#include "cfpq/rsm.hpp"
#include "cfpq/tensor.hpp"
#include "data/labeled_graph.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace spbla::cfpq {
namespace {

std::vector<std::string> word(std::initializer_list<const char*> tokens) {
    std::vector<std::string> out;
    for (const auto* t : tokens) out.emplace_back(t);
    return out;
}

TEST(Grammar, ParseBasics) {
    const auto g = Grammar::parse("S -> a S b | a b\n");
    EXPECT_EQ(g.start_symbol(), "S");
    EXPECT_EQ(g.nonterminals(), (std::vector<std::string>{"S"}));
    EXPECT_EQ(g.terminals(), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(g.is_nonterminal("S"));
    EXPECT_FALSE(g.is_nonterminal("a"));
}

TEST(Grammar, ParseSkipsCommentsAndBlanks) {
    const auto g = Grammar::parse("# header\n\nS -> a\n  # tail\n");
    EXPECT_EQ(g.rules().size(), 1u);
}

TEST(Grammar, MultiRuleNonterminals) {
    const auto g = Grammar::parse("S -> a V\nV -> b\nV -> c\n");
    EXPECT_EQ(g.nonterminals(), (std::vector<std::string>{"S", "V"}));
    // combined_rhs of V is b | c.
    EXPECT_TRUE(rpq::matches(*g.combined_rhs("V"), word({"b"})));
    EXPECT_TRUE(rpq::matches(*g.combined_rhs("V"), word({"c"})));
    EXPECT_FALSE(rpq::matches(*g.combined_rhs("V"), word({"a"})));
}

TEST(Grammar, BadInputsThrow) {
    EXPECT_THROW((void)Grammar::parse(""), Error);
    EXPECT_THROW((void)Grammar::parse("S a b\n"), Error);      // no arrow
    EXPECT_THROW((void)Grammar::parse("V -> a\n", "S"), Error);  // no start rule
}

TEST(Cnf, DyckOneGrammar) {
    const auto g = Grammar::parse("S -> a S b | a b\n");
    const auto cnf = to_cnf(g);
    EXPECT_FALSE(cnf.start_nullable);
    EXPECT_TRUE(cyk_accepts(cnf, word({"a", "b"})));
    EXPECT_TRUE(cyk_accepts(cnf, word({"a", "a", "b", "b"})));
    EXPECT_FALSE(cyk_accepts(cnf, word({"a", "b", "a", "b"})));
    EXPECT_FALSE(cyk_accepts(cnf, word({"a"})));
    EXPECT_FALSE(cyk_accepts(cnf, {}));
}

TEST(Cnf, NullableStartDetected) {
    const auto g = Grammar::parse("S -> a S | eps\n");
    const auto cnf = to_cnf(g);
    EXPECT_TRUE(cnf.start_nullable);
    EXPECT_TRUE(cyk_accepts(cnf, {}));
    EXPECT_TRUE(cyk_accepts(cnf, word({"a", "a", "a"})));
    EXPECT_FALSE(cyk_accepts(cnf, word({"b"})));
}

TEST(Cnf, StarRhsIsLowered) {
    const auto g = Grammar::parse("S -> a (b c)* \n");
    EXPECT_TRUE(accepts(g, word({"a"})));
    EXPECT_TRUE(accepts(g, word({"a", "b", "c", "b", "c"})));
    EXPECT_FALSE(accepts(g, word({"a", "b"})));
}

TEST(Cnf, RulesAreBinaryAndTerminal) {
    const auto cnf = to_cnf(query_ma());
    for (const auto& [a, b, c] : cnf.binary_rules) {
        EXPECT_LT(a, cnf.num_nonterminals());
        EXPECT_LT(b, cnf.num_nonterminals());
        EXPECT_LT(c, cnf.num_nonterminals());
    }
    EXPECT_GT(cnf.terminal_rules.size(), 0u);
    EXPECT_GT(cnf.binary_rules.size(), 0u);
}

TEST(Cnf, GrowthIsReported) {
    // The paper: CNF conversion blows the grammar up. The MA query has 2
    // source rules; its CNF has strictly more productions.
    const auto cnf = to_cnf(query_ma());
    EXPECT_GT(cnf.binary_rules.size() + cnf.terminal_rules.size(), 2u);
}

TEST(Cnf, KeepsOnlyNonterminalsTheStartReaches) {
    // Unit elimination inlines the regex lowering's fresh nonterminals; the
    // ones no binary rule from the start reads any more are dropped with
    // their rules, and the start keeps id 0.
    const struct {
        const char* name;
        Grammar grammar;
        std::size_t binary_rules;
    } cases[] = {
        {"G1", query_g1(), 6},
        {"G2", query_g2(), 2},
        {"Geo", query_geo(), 3},
        {"MA", query_ma(), 22},
        {"Dyck", Grammar::parse("S -> a S b | a b\n"), 3},
    };
    for (const auto& c : cases) {
        const auto cnf = to_cnf(c.grammar);
        EXPECT_EQ(cnf.binary_rules.size(), c.binary_rules) << c.name;
        EXPECT_EQ(cnf.start, 0u) << c.name;
        EXPECT_EQ(cnf.nt_names[cnf.start], c.grammar.start_symbol()) << c.name;
        std::vector<bool> reached(cnf.num_nonterminals(), false);
        reached[cnf.start] = true;
        for (bool grew = true; grew;) {
            grew = false;
            for (const auto& [a, b, cc] : cnf.binary_rules) {
                if (!reached[a]) continue;
                for (const Index x : {b, cc}) {
                    if (!reached[x]) reached[x] = grew = true;
                }
            }
        }
        for (Index a = 0; a < cnf.num_nonterminals(); ++a) {
            EXPECT_TRUE(reached[a]) << c.name << ": " << cnf.nt_names[a] << " unreachable";
        }
    }
}

TEST(Cnf, CykOnPaperQueriesMatchesTensorOnEveryShortWord) {
    // Every word of length <= 6 over each paper grammar's terminals, CYK on
    // the pruned CNF against the tensor algorithm, which never reads the
    // CNF. The words hang off one trie: vertex w is reached from the root by
    // the path spelling w and by no other path, so Tns answers (root, w)
    // exactly when it would on the path graph of w alone.
    constexpr std::size_t kMaxLength = 6;
    for (const auto& grammar : {query_g1(), query_g2(), query_geo(), query_ma()}) {
        const auto terminals = grammar.terminals();
        std::vector<std::vector<std::string>> words{{}};  // vertex id -> word
        std::vector<data::LabeledEdge> edges;
        for (std::size_t v = 0; v < words.size(); ++v) {
            if (words[v].size() == kMaxLength) continue;
            for (const auto& t : terminals) {
                edges.push_back({static_cast<Index>(v), t, static_cast<Index>(words.size())});
                auto w = words[v];
                w.push_back(t);
                words.push_back(std::move(w));
            }
        }
        const auto trie = data::LabeledGraph::from_edges(static_cast<Index>(words.size()), edges);
        const auto tns = tensor_cfpq(testing::ctx(), trie, grammar);
        const Matrix& answers = tns.reachable(grammar);
        const auto cnf = to_cnf(grammar);
        std::size_t accepted = 0;
        for (std::size_t v = 0; v < words.size(); ++v) {
            const bool cyk = cyk_accepts(cnf, words[v]);
            ASSERT_EQ(cyk, answers.get(0, static_cast<Index>(v)))
                << grammar.start_symbol() << " word of length " << words[v].size()
                << " at trie vertex " << v;
            accepted += cyk ? 1 : 0;
        }
        EXPECT_GT(accepted, 0u);
    }
}

TEST(Nullable, DetectsIndirectNullability) {
    const auto g = Grammar::parse("S -> A B\nA -> eps | a\nB -> b?\n");
    const auto nullable = nullable_nonterminals(g);
    EXPECT_EQ(nullable, (std::vector<std::string>{"A", "B", "S"}));
}

TEST(Nullable, MaQueryVIsNullable) {
    const auto nullable = nullable_nonterminals(query_ma());
    EXPECT_EQ(nullable, (std::vector<std::string>{"V"}));
}

TEST(Rsm, BoxPerNonterminal) {
    const auto rsm = build_rsm(query_ma());
    EXPECT_EQ(rsm.nonterminals, (std::vector<std::string>{"S", "V"}));
    EXPECT_TRUE(rsm.box_start.contains("S"));
    EXPECT_TRUE(rsm.box_start.contains("V"));
    EXPECT_FALSE(rsm.box_final.at("S").empty());
    EXPECT_GT(rsm.num_states, 4u);
    // The RSM references both terminals (d, a_r, ...) and the nonterminal S
    // on edges of V's box.
    EXPECT_TRUE(rsm.delta.contains("S"));
    EXPECT_TRUE(rsm.delta.contains("d"));
    EXPECT_TRUE(rsm.delta.contains("d_r"));
}

TEST(Rsm, MatrixShapesAreGlobal) {
    const auto rsm = build_rsm(query_g1());
    for (const auto& symbol : rsm.symbols()) {
        const auto m = rsm.matrix(symbol);
        EXPECT_EQ(m.nrows(), rsm.num_states);
        EXPECT_EQ(m.ncols(), rsm.num_states);
    }
    EXPECT_EQ(rsm.matrix("absent").nnz(), 0u);
}

TEST(Rsm, NullableListMatchesGrammar) {
    const auto rsm = build_rsm(query_ma());
    EXPECT_EQ(rsm.nullable, (std::vector<std::string>{"V"}));
    const auto rsm2 = build_rsm(query_g1());
    EXPECT_TRUE(rsm2.nullable.empty());
}

TEST(PaperQueries, G1AcceptsSameGenerationWords) {
    const auto g = query_g1();
    EXPECT_TRUE(accepts(g, word({"subClassOf_r", "subClassOf"})));
    EXPECT_TRUE(accepts(g, word({"type_r", "type"})));
    EXPECT_TRUE(
        accepts(g, word({"subClassOf_r", "type_r", "type", "subClassOf"})));
    EXPECT_FALSE(accepts(g, word({"subClassOf", "subClassOf_r"})));
    EXPECT_FALSE(accepts(g, {}));
}

TEST(PaperQueries, G2IsBalancedWithCore) {
    const auto g = query_g2();
    EXPECT_TRUE(accepts(g, word({"subClassOf"})));
    EXPECT_TRUE(accepts(g, word({"subClassOf_r", "subClassOf", "subClassOf"})));
    EXPECT_FALSE(accepts(g, word({"subClassOf_r", "subClassOf"})));
}

TEST(PaperQueries, GeoShape) {
    const auto g = query_geo();
    EXPECT_TRUE(accepts(g, word({"broaderTransitive", "broaderTransitive_r"})));
    EXPECT_TRUE(accepts(g, word({"broaderTransitive", "broaderTransitive",
                                 "broaderTransitive_r", "broaderTransitive_r"})));
    EXPECT_FALSE(accepts(g, word({"broaderTransitive"})));
}

TEST(PaperQueries, MaShape) {
    const auto g = query_ma();
    // Simplest alias witness: d_r d (V derives eps).
    EXPECT_TRUE(accepts(g, word({"d_r", "d"})));
    EXPECT_TRUE(accepts(g, word({"d_r", "a_r", "d"})));
    EXPECT_TRUE(accepts(g, word({"d_r", "a", "d"})));
    EXPECT_TRUE(accepts(g, word({"d_r", "d_r", "d", "a", "d"})));
    EXPECT_FALSE(accepts(g, word({"d", "d_r"})));
    EXPECT_FALSE(accepts(g, {}));
}

/// Property: CYK over the CNF agrees with a derivation-based sampler. We
/// generate random words and check CYK(original lowered) == CYK(hand CNF)
/// for the Dyck grammar where membership is decidable by a counter.
TEST(CnfProperty, DyckMembershipMatchesCounterOracle) {
    const auto g = Grammar::parse("S -> a S b | a b | S S\n");
    const auto cnf = to_cnf(g);
    util::Rng rng{99};
    for (int trial = 0; trial < 300; ++trial) {
        const auto len = rng.below(10);
        std::vector<std::string> w;
        for (std::size_t i = 0; i < len; ++i) {
            w.push_back(rng.chance(0.5) ? "a" : "b");
        }
        // Counter oracle for the Dyck language over a=( and b=).
        int depth = 0;
        bool ok = !w.empty();
        for (const auto& t : w) {
            depth += t == "a" ? 1 : -1;
            if (depth < 0) ok = false;
        }
        ok = ok && depth == 0;
        ASSERT_EQ(cyk_accepts(cnf, w), ok) << "trial " << trial;
    }
}

}  // namespace
}  // namespace spbla::cfpq
