#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/closure.hpp"
#include "algorithms/components.hpp"
#include "algorithms/triangles.hpp"
#include "data/worstcase.hpp"
#include "helpers.hpp"

namespace spbla::algorithms {
namespace {

using testing::ctx;
using testing::seq_ctx;
using testing::random_matrix;

/// Floyd-Warshall style reachability oracle.
DenseMatrix closure_reference(const Matrix& adj) {
    auto d = to_dense(adj.csr());
    const Index n = adj.nrows();
    for (Index k = 0; k < n; ++k) {
        for (Index i = 0; i < n; ++i) {
            if (!d.get(i, k)) continue;
            for (Index j = 0; j < n; ++j) {
                if (d.get(k, j)) d.set(i, j);
            }
        }
    }
    return d;
}

TEST(Closure, RequiresSquareMatrix) {
    const Matrix m{3, 4};
    EXPECT_THROW((void)transitive_closure(ctx(), m), Error);
}

TEST(Closure, EmptyGraphStaysEmpty) {
    const Matrix m{5, 5};
    EXPECT_EQ(transitive_closure(ctx(), m).nnz(), 0u);
}

TEST(Closure, PathGraphClosesToUpperTriangle) {
    const auto g = data::make_path(5);
    const auto c = transitive_closure(ctx(), g.matrix("a"));
    // Path 0->1->2->3->4: closure has all pairs i < j.
    EXPECT_EQ(c.nnz(), 10u);
    for (Index i = 0; i < 5; ++i) {
        for (Index j = 0; j < 5; ++j) {
            EXPECT_EQ(c.get(i, j), i < j) << i << "," << j;
        }
    }
}

TEST(Closure, CycleClosesToComplete) {
    const auto g = data::make_cycle(6);
    const auto c = transitive_closure(ctx(), g.matrix("a"));
    EXPECT_EQ(c.nnz(), 36u);  // every vertex reaches every vertex incl. itself
}

TEST(Closure, StrategiesAgree) {
    for (const auto seed : {1, 2, 3}) {
        const auto m = random_matrix(40, 40, 0.05, seed);
        ClosureStats sq, dl;
        const auto a = transitive_closure(ctx(), m, ClosureStrategy::Squaring, &sq);
        const auto c = transitive_closure(ctx(), m, ClosureStrategy::Delta, &dl);
        const DenseMatrix want = closure_reference(m);
        EXPECT_EQ(to_dense(a.csr()), want);
        EXPECT_EQ(to_dense(c.csr()), want);
        EXPECT_EQ(sq.result_nnz, a.nnz());
        EXPECT_EQ(dl.result_nnz, c.nnz());
        // Squaring needs at most as many rounds as the frontier walk.
        EXPECT_LE(sq.rounds, dl.rounds + 1);
    }
}

TEST(Closure, DeltaFrontierWalksTheDiameter) {
    const auto g = data::make_path(32);
    ClosureStats stats;
    const auto c = transitive_closure(ctx(), g.matrix("a"), ClosureStrategy::Delta,
                                      &stats);
    EXPECT_EQ(c.nnz(), 32u * 31u / 2);
    // One round per frontier generation: path of 31 edges -> 31 rounds
    // (the last producing an empty frontier).
    EXPECT_GE(stats.rounds, 30u);
    EXPECT_LE(stats.rounds, 32u);
}

TEST(Closure, DeltaOnEmptyAndCyclicGraphs) {
    EXPECT_EQ(transitive_closure(ctx(), Matrix{4, 4}, ClosureStrategy::Delta).nnz(),
              0u);
    const auto g = data::make_cycle(5);
    EXPECT_EQ(
        transitive_closure(ctx(), g.matrix("a"), ClosureStrategy::Delta).nnz(), 25u);
}

TEST(Closure, SquaringNeedsLogRoundsOnLongPath) {
    const auto g = data::make_path(64);
    ClosureStats sq, dl;
    (void)transitive_closure(ctx(), g.matrix("a"), ClosureStrategy::Squaring, &sq);
    (void)transitive_closure(ctx(), g.matrix("a"), ClosureStrategy::Delta, &dl);
    EXPECT_LE(sq.rounds, 6u);   // ceil(log2(63)): the closure test ends the last
    EXPECT_GE(dl.rounds, 62u);  // the frontier walks the whole diameter
}

// The Squaring closure ends on the containment test adj * C within C. Each
// case runs on the parallel and sequential shared contexts and on a
// 4-worker context of its own, whose chunks share the test's stop flag.
class SquaringClosure : public ::testing::Test {
protected:
    /// The closure of \p adj on every context, checked against the
    /// reference; returns the round count, which must agree across them.
    static std::size_t closes(const Matrix& adj) {
        static backend::Context par{backend::Policy::Parallel, 4};
        const DenseMatrix want = closure_reference(adj);
        std::optional<std::size_t> rounds;
        for (backend::Context* cx : {&ctx(), &seq_ctx(), &par}) {
            ClosureStats stats;
            const Matrix got = transitive_closure(*cx, adj, ClosureStrategy::Squaring, &stats);
            EXPECT_EQ(to_dense(got.csr()), want);
            EXPECT_EQ(stats.result_nnz, got.nnz());
            if (rounds) {
                EXPECT_EQ(stats.rounds, *rounds);
            }
            rounds = stats.rounds;
        }
        EXPECT_EQ(par.tracker().current_bytes(), 0u) << par.tracker().leak_report();
        return *rounds;
    }
};

TEST_F(SquaringClosure, AlreadyClosedTakesOneRound) {
    // A transitive tournament: i -> j for every i < j.
    std::vector<Coord> cells;
    for (Index i = 0; i < 12; ++i) {
        for (Index j = i + 1; j < 12; ++j) cells.push_back({i, j});
    }
    EXPECT_EQ(closes(Matrix::from_coords(12, 12, std::move(cells))), 1u);
}

TEST_F(SquaringClosure, DagWithShortcutsClosesAfterOneRound) {
    // 0 -> 1 -> 2 -> 3 with the shortcut 0 -> 3: M^3 = {0 -> 3} lies in M,
    // so M | M^2 is the closure, and the test ends the first round.
    const Matrix m = Matrix::from_coords(4, 4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
    EXPECT_EQ(closes(m), 1u);
}

TEST_F(SquaringClosure, Cycle) {
    // Longest shortest path 6 (each vertex back to itself): 3 rounds.
    EXPECT_EQ(closes(data::make_cycle(6).matrix("a")), 3u);
}

TEST_F(SquaringClosure, EmptyMatrix) { EXPECT_EQ(closes(Matrix{7, 7}), 1u); }

TEST_F(SquaringClosure, PathTakesLogRounds) {
    EXPECT_EQ(closes(data::make_path(64).matrix("a")), 6u);
}

TEST_F(SquaringClosure, OnlyTheLastRowIsOpen) {
    // n-1 -> 0 -> 1 -> 2: after round 1, adj * C lacks only (n-1, 2).
    const Index n = 9;
    EXPECT_EQ(closes(Matrix::from_coords(n, n, {{n - 1, 0}, {0, 1}, {1, 2}})), 2u);
}

TEST_F(SquaringClosure, ManyComponentsSplitTheTest) {
    // 400 disjoint 8-cycles: the test's walk is split into chunks.
    std::vector<Coord> cells;
    for (Index c = 0; c < 400; ++c) {
        for (Index k = 0; k < 8; ++k) cells.push_back({8 * c + k, 8 * c + (k + 1) % 8});
    }
    EXPECT_EQ(closes(Matrix::from_coords(3200, 3200, std::move(cells))), 3u);
}

TEST_F(SquaringClosure, MatchesReferenceOnRandomGraphs) {
    for (const auto seed : {20, 21, 22, 23, 24}) {
        for (const double density : {0.02, 0.05, 0.1}) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << ", density " << density);
            (void)closes(random_matrix(40, 40, density, seed));
        }
    }
}

TEST(Closure, MatchesFloydWarshallOnRandomGraphs) {
    for (const auto seed : {10, 11, 12, 13}) {
        const auto m = random_matrix(30, 30, 0.06, seed);
        EXPECT_EQ(to_dense(transitive_closure(ctx(), m).csr()), closure_reference(m));
    }
}

TEST(Closure, ReflexiveVariantAddsDiagonal) {
    const auto g = data::make_path(4);
    const auto c = reflexive_transitive_closure(ctx(), g.matrix("a"));
    for (Index i = 0; i < 4; ++i) EXPECT_TRUE(c.get(i, i));
    EXPECT_EQ(c.nnz(), 6u + 4u);
}

TEST(Bfs, LevelsOnPathGraph) {
    const auto g = data::make_path(5);
    const auto levels = bfs_levels(ctx(), g.matrix("a"), 0);
    EXPECT_EQ(levels, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Bfs, UnreachableVerticesStayMinusOne) {
    const auto m = Matrix::from_coords(4, 4, {{0, 1}});
    const auto levels = bfs_levels(ctx(), m, 0);
    EXPECT_EQ(levels, (std::vector<int>{0, 1, -1, -1}));
}

TEST(Bfs, TreeLevelsMatchDepth) {
    // make_tree builds child -> parent edges; BFS from a leaf walks up.
    const auto g = data::make_tree(7);
    const auto levels = bfs_levels(ctx(), g.matrix("a"), 6);
    EXPECT_EQ(levels[6], 0);
    EXPECT_EQ(levels[2], 1);  // parent of 6 is (6-1)/2 = 2
    EXPECT_EQ(levels[0], 2);
}

TEST(Bfs, ReachableSetMatchesClosureRow) {
    const auto m = random_matrix(25, 25, 0.08, 77);
    const auto closure = transitive_closure(ctx(), m);
    for (const Index source : {Index{0}, Index{7}, Index{24}}) {
        const auto reach = reachable_from(ctx(), m, source);
        for (Index v = 0; v < 25; ++v) {
            EXPECT_EQ(reach.get(v), closure.get(source, v)) << source << "->" << v;
        }
    }
}

TEST(Components, SingleComponentOnCycle) {
    const auto g = data::make_cycle(8);
    EXPECT_EQ(count_components(ctx(), g.matrix("a")), 1u);
    const auto labels = connected_components(ctx(), g.matrix("a"));
    for (const auto l : labels) EXPECT_EQ(l, 0u);
}

TEST(Components, IsolatedVerticesAreSingletons) {
    const Matrix empty{5, 5};
    EXPECT_EQ(count_components(ctx(), empty), 5u);
}

TEST(Components, DirectedEdgesConnectWeakly) {
    // 0 -> 1, 3 -> 2: two components {0,1} and {2,3}, vertex 4 alone.
    const auto m = Matrix::from_coords(5, 5, {{0, 1}, {3, 2}});
    EXPECT_EQ(count_components(ctx(), m), 3u);
    const auto labels = connected_components(ctx(), m);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[2], labels[3]);
    EXPECT_NE(labels[0], labels[2]);
    EXPECT_EQ(labels[4], 4u);
}

TEST(Components, MatchesUnionFindOnRandomGraphs) {
    for (const auto seed : {21, 22, 23}) {
        const auto m = random_matrix(40, 40, 0.03, seed);
        // Union-find reference.
        std::vector<Index> parent(40);
        for (Index v = 0; v < 40; ++v) parent[v] = v;
        const std::function<Index(Index)> find = [&](Index v) {
            while (parent[v] != v) v = parent[v] = parent[parent[v]];
            return v;
        };
        for (const auto& c : m.to_coords()) parent[find(c.row)] = find(c.col);
        std::set<Index> roots;
        for (Index v = 0; v < 40; ++v) roots.insert(find(v));

        EXPECT_EQ(count_components(ctx(), m), roots.size()) << seed;
        const auto labels = connected_components(ctx(), m);
        for (const auto& c : m.to_coords()) {
            EXPECT_EQ(labels[c.row], labels[c.col]) << seed;
        }
    }
}

TEST(Triangles, TriangleGraphHasOne) {
    const auto m = Matrix::from_coords(
        3, 3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}});
    EXPECT_EQ(count_triangles(ctx(), m), 1u);
}

TEST(Triangles, PathHasNone) {
    const auto m = Matrix::from_coords(4, 4, {{0, 1}, {1, 0}, {1, 2}, {2, 1}});
    EXPECT_EQ(count_triangles(ctx(), m), 0u);
}

TEST(Triangles, CompleteGraphBinomial) {
    // K6 has C(6,3) = 20 triangles.
    std::vector<Coord> coords;
    for (Index i = 0; i < 6; ++i) {
        for (Index j = 0; j < 6; ++j) {
            if (i != j) coords.push_back({i, j});
        }
    }
    const auto m = Matrix::from_coords(6, 6, std::move(coords));
    EXPECT_EQ(count_triangles(ctx(), m), 20u);
}

TEST(Triangles, MatchesBruteForceOnRandomSymmetric) {
    for (const auto seed : {5, 6}) {
        auto half = random_matrix(20, 20, 0.15, seed);
        std::vector<Coord> sym;
        for (const auto& c : half.to_coords()) {
            if (c.row == c.col) continue;
            sym.push_back(c);
            sym.push_back({c.col, c.row});
        }
        const auto m = Matrix::from_coords(20, 20, std::move(sym));
        const auto d = to_dense(m.csr());
        std::uint64_t expected = 0;
        for (Index i = 0; i < 20; ++i) {
            for (Index j = 0; j < 20; ++j) {
                for (Index k = 0; k < 20; ++k) {
                    if (i < j && j < k && d.get(i, j) && d.get(j, k) && d.get(i, k)) {
                        ++expected;
                    }
                }
            }
        }
        EXPECT_EQ(count_triangles(ctx(), m), expected) << "seed " << seed;
    }
}

}  // namespace
}  // namespace spbla::algorithms
