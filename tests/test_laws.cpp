/// \file test_laws.cpp
/// \brief Cross-cutting algebraic laws — properties that tie several
/// kernels (or whole engines) together, beyond per-op reference checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cfpq/azimov.hpp"
#include "cfpq/worklist.hpp"
#include "data/labeled_graph.hpp"
#include "helpers.hpp"
#include "ops/ops.hpp"
#include "rpq/engine.hpp"
#include "util/rng.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::random_csr;

// ------------------------- matrix algebra laws ---------------------------

TEST(Laws, MultiplicationIsAssociative) {
    for (const auto seed : {1, 2, 3}) {
        const auto a = random_csr(20, 25, 0.15, seed);
        const auto b = random_csr(25, 15, 0.15, seed + 10);
        const auto c = random_csr(15, 30, 0.15, seed + 20);
        EXPECT_EQ(ops::multiply(ctx(), ops::multiply(ctx(), a, b), c),
                  ops::multiply(ctx(), a, ops::multiply(ctx(), b, c)))
            << seed;
    }
}

TEST(Laws, MultiplicationDistributesOverAddition) {
    const auto a = random_csr(20, 20, 0.15, 5);
    const auto b = random_csr(20, 20, 0.15, 6);
    const auto c = random_csr(20, 20, 0.15, 7);
    // A(B + C) == AB + AC over the Boolean semiring.
    EXPECT_EQ(ops::multiply(ctx(), a, ops::ewise_add(ctx(), b, c)),
              ops::ewise_add(ctx(), ops::multiply(ctx(), a, b),
                             ops::multiply(ctx(), a, c)));
}

TEST(Laws, TransposeAntiDistributesOverMultiply) {
    const auto a = random_csr(18, 24, 0.2, 8);
    const auto b = random_csr(24, 12, 0.2, 9);
    // (AB)^T == B^T A^T.
    EXPECT_EQ(ops::transpose(ctx(), ops::multiply(ctx(), a, b)),
              ops::multiply(ctx(), ops::transpose(ctx(), b), ops::transpose(ctx(), a)));
}

TEST(Laws, KroneckerIsAssociative) {
    const auto a = random_csr(3, 4, 0.4, 10);
    const auto b = random_csr(4, 3, 0.4, 11);
    const auto c = random_csr(2, 5, 0.4, 12);
    EXPECT_EQ(ops::kronecker(ctx(), ops::kronecker(ctx(), a, b), c),
              ops::kronecker(ctx(), a, ops::kronecker(ctx(), b, c)));
}

TEST(Laws, KroneckerTransposeCommute) {
    const auto a = random_csr(4, 6, 0.3, 13);
    const auto b = random_csr(5, 3, 0.3, 14);
    // (A (x) B)^T == A^T (x) B^T.
    EXPECT_EQ(ops::transpose(ctx(), ops::kronecker(ctx(), a, b)),
              ops::kronecker(ctx(), ops::transpose(ctx(), a), ops::transpose(ctx(), b)));
}

TEST(Laws, DeMorganOnStructures) {
    // A \ B == A \ (A & B).
    const auto a = random_csr(25, 25, 0.25, 15);
    const auto b = random_csr(25, 25, 0.25, 16);
    EXPECT_EQ(ops::ewise_diff(ctx(), a, b),
              ops::ewise_diff(ctx(), a, ops::ewise_mult(ctx(), a, b)));
}

TEST(Laws, SubmatrixOfSubmatrixComposes) {
    const auto m = random_csr(40, 40, 0.15, 17);
    const auto once = ops::submatrix(ctx(), m, 4, 6, 30, 28);
    const auto twice = ops::submatrix(ctx(), once, 3, 2, 20, 22);
    EXPECT_EQ(twice, ops::submatrix(ctx(), m, 7, 8, 20, 22));
}

// --------------------------- query-engine laws ---------------------------

data::LabeledGraph random_graph(Index n, std::size_t edges, std::uint64_t seed) {
    util::Rng rng{seed};
    std::vector<data::LabeledEdge> list;
    const std::vector<std::string> labels{"a", "b", "c"};
    for (std::size_t k = 0; k < edges; ++k) {
        list.push_back({static_cast<Index>(rng.below(n)),
                        labels[rng.below(labels.size())],
                        static_cast<Index>(rng.below(n))});
    }
    return data::LabeledGraph::from_edges(n, list);
}

TEST(Laws, RpqConcatenationIsBooleanProduct) {
    // answers(L1 . L2) == answers(L1) x answers(L2): language concatenation
    // matricises to the Boolean product of the answer relations.
    for (const auto seed : {31, 32}) {
        const auto g = random_graph(15, 40, seed);
        const auto q1 = rpq::compile_query("a b*");
        const auto q2 = rpq::compile_query("c (a | b)");
        const auto q12 = rpq::compile_query("(a b*) (c (a | b))");
        const auto lhs = rpq::evaluate(ctx(), g, q12);
        const auto rhs = storage::multiply(ctx(), rpq::evaluate(ctx(), g, q1),
                                           rpq::evaluate(ctx(), g, q2));
        EXPECT_EQ(lhs, rhs) << seed;
    }
}

TEST(Laws, RpqUnionIsElementwiseOr) {
    for (const auto seed : {33, 34}) {
        const auto g = random_graph(15, 40, seed);
        const auto lhs =
            rpq::evaluate(ctx(), g, rpq::compile_query("(a b) | (c+)"));
        const auto rhs =
            storage::ewise_add(ctx(), rpq::evaluate(ctx(), g, rpq::compile_query("a b")),
                               rpq::evaluate(ctx(), g, rpq::compile_query("c+")));
        EXPECT_EQ(lhs, rhs) << seed;
    }
}

TEST(Laws, RpqStarIsReflexiveClosureOfPlus) {
    const auto g = random_graph(12, 30, 35);
    const auto star = rpq::evaluate(ctx(), g, rpq::compile_query("(a | b)*"));
    const auto plus = rpq::evaluate(ctx(), g, rpq::compile_query("(a | b)+"));
    EXPECT_EQ(star, storage::ewise_add(ctx(), plus, Matrix::identity(12, ctx())));
}

TEST(Laws, CfpqUnionGrammarIsUnionOfAnswers) {
    // S -> S1 | S2 with disjoint sub-grammars answers the union.
    for (const auto seed : {36, 37}) {
        const auto g = random_graph(10, 24, seed);
        const auto g1 = cfpq::Grammar::parse("S -> a S b | a b\n");
        const auto g2 = cfpq::Grammar::parse("S -> c S | c\n");
        const auto both = cfpq::Grammar::parse(
            "S -> S1 | S2\nS1 -> a S1 b | a b\nS2 -> c S2 | c\n");
        const auto lhs = cfpq::worklist_cfpq(g, both);
        const auto rhs = storage::ewise_add(ctx(), cfpq::worklist_cfpq(g, g1),
                                            cfpq::worklist_cfpq(g, g2));
        EXPECT_EQ(lhs, rhs) << seed;
        EXPECT_EQ(cfpq::azimov_cfpq(ctx(), g, both).reachable(), lhs) << seed;
    }
}

TEST(Laws, RegularGrammarMatchesRpqEngine) {
    // A right-linear grammar and the equivalent regex must answer alike
    // through the two completely separate engines.
    for (const auto seed : {38, 39}) {
        const auto g = random_graph(12, 30, seed);
        const auto grammar = cfpq::Grammar::parse("S -> a S | b\n");  // a* b
        const auto regex = rpq::compile_query("a* b");
        EXPECT_EQ(cfpq::azimov_cfpq(ctx(), g, grammar).reachable(),
                  rpq::evaluate(ctx(), g, regex))
            << seed;
    }
}

}  // namespace
}  // namespace spbla
