/// Property sweep for algorithms::extend_closure: on every case the
/// extended closure equals a scratch transitive_closure of A | add, and the
/// returned cells are exactly what the closure gained. Each case runs on the
/// sequential and on the parallel context.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithms/closure.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace spbla::algorithms {
namespace {

struct ExtendCase {
    std::string name;
    Index n;
    std::vector<Coord> base;
    std::vector<Coord> add;
    std::size_t min_rounds;  ///< seed round included
};

std::vector<Coord> random_cells(Index n, std::size_t count, util::Rng& rng) {
    std::vector<Coord> cells;
    for (std::size_t k = 0; k < count; ++k) {
        cells.push_back({static_cast<Index>(rng.below(n)), static_cast<Index>(rng.below(n))});
    }
    return cells;
}

std::vector<ExtendCase> cases() {
    std::vector<ExtendCase> out;
    out.push_back({"empty_batch", 6, {{0, 1}, {1, 2}, {3, 4}}, {}, 0});
    out.push_back({"cells_already_in_a", 6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}},
                   {{0, 1}, {2, 0}, {3, 4}}, 1});
    out.push_back({"self_loops", 6, {{0, 1}, {1, 2}, {2, 3}}, {{1, 1}, {4, 4}, {3, 3}}, 1});
    // 0→1 2→3 4→5 6→7 joined by 1→2, 3→4, 5→6: (0, 7) needs all three new
    // edges, so the step rounds run twice after the seed.
    out.push_back({"chain_along_one_path", 8, {{0, 1}, {2, 3}, {4, 5}, {6, 7}},
                   {{1, 2}, {3, 4}, {5, 6}}, 3});
    // The batch lies on vertices no closure row or column touches.
    out.push_back({"reaches_no_closure_row", 30, {{0, 1}, {1, 2}, {2, 3}, {5, 6}},
                   {{20, 21}, {21, 22}, {25, 25}}, 1});
    out.push_back({"bridge_and_cycle", 10, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}},
                   {{2, 3}, {5, 0}, {7, 6}}, 1});
    // Random graphs, some large enough for the parallel kernels to split rows.
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        util::Rng rng{seed};
        const auto n = static_cast<Index>(20 + rng.below(200));
        auto base = random_cells(n, n + rng.below(n), rng);
        auto add = random_cells(n, 1 + rng.below(24), rng);
        // Re-insert some cells A already holds.
        for (std::size_t k = 0; k < 3 && k < base.size(); ++k) add.push_back(base[k]);
        out.push_back({"random_" + std::to_string(seed), n, std::move(base),
                       std::move(add), 1});
    }
    return out;
}

struct ExtendParam {
    std::size_t index;
    bool parallel;
};

class ExtendClosureSweep : public testing::CheckedContextWithParam<ExtendParam> {};

TEST_P(ExtendClosureSweep, MatchesScratchClosure) {
    const ExtendCase c = cases()[GetParam().index];
    backend::Context& ctx = GetParam().parallel ? testing::ctx() : testing::seq_ctx();
    const Matrix adj = Matrix::from_coords(c.n, c.n, c.base, ctx);
    const Matrix add = Matrix::from_coords(c.n, c.n, c.add, ctx);
    const Matrix before = transitive_closure(ctx, adj);
    const Matrix expected = transitive_closure(ctx, storage::ewise_add(ctx, adj, add));

    Matrix closure = before;
    ClosureStats stats;
    const Matrix fresh = extend_closure(ctx, closure, add, &stats);
    EXPECT_EQ(closure, expected) << c.name;
    EXPECT_EQ(fresh, storage::ewise_diff(ctx, expected, before)) << c.name;
    EXPECT_EQ(stats.result_nnz, expected.nnz()) << c.name;
    EXPECT_GE(stats.rounds, c.min_rounds) << c.name;
    if (add.empty()) {
        EXPECT_EQ(stats.rounds, 0u) << c.name;
    }
}

std::vector<ExtendParam> params() {
    std::vector<ExtendParam> out;
    for (std::size_t i = 0; i < cases().size(); ++i) {
        out.push_back({i, false});
        out.push_back({i, true});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(Cases, ExtendClosureSweep, ::testing::ValuesIn(params()),
                         [](const auto& info) {
                             return cases()[info.param.index].name +
                                    (info.param.parallel ? "_parallel" : "_sequential");
                         });

TEST(RowCompaction, GatherThenScatterRoundTrips) {
    backend::Context& ctx = testing::ctx();
    const Matrix x =
        Matrix::from_coords(7, 5, {{1, 0}, {1, 4}, {4, 2}, {6, 1}, {6, 3}}, ctx);
    const RowCompaction rows{ctx, x};
    EXPECT_EQ(rows.rows(), (std::vector<Index>{1, 4, 6}));
    EXPECT_EQ(rows.selector().nrows(), 3u);
    EXPECT_EQ(rows.selector().ncols(), 7u);
    const Matrix compact = rows.gather(ctx, x);
    EXPECT_EQ(compact.to_coords(),
              (std::vector<Coord>{{0, 0}, {0, 4}, {1, 2}, {2, 1}, {2, 3}}));
    EXPECT_EQ(rows.scatter(ctx, compact), x);
}

TEST(RowCompaction, EmptyPatternSelectsNothing) {
    backend::Context& ctx = testing::seq_ctx();
    const RowCompaction rows{ctx, Matrix{4, 4, ctx}};
    EXPECT_TRUE(rows.rows().empty());
    EXPECT_EQ(rows.scatter(ctx, rows.gather(ctx, Matrix::identity(4, ctx))),
              (Matrix{4, 4, ctx}));
}

}  // namespace
}  // namespace spbla::algorithms
