/// \file test_incremental.cpp
/// \brief Differential stream-oracle net for the incremental subsystem.
///
/// Every maintained result (incremental TC / RPQ / CFPQ) is
/// replayed against a from-scratch recompute after *every* batch of random
/// edge-stream schedules — insert-only, delete-only, mixed, duplicate-heavy
/// and no-op batches, batch sizes 1 through 10^3 — over uniform, Zipf-skewed
/// and LUBM-style graphs. Metamorphic checks (a batch followed by its exact
/// inverse) pin the epoch semantics: value-equal but epoch-distinct. The
/// epoch audit sweeps every mutating entry point of storage::Matrix.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/closure.hpp"
#include "cfpq/azimov.hpp"
#include "cfpq/grammar.hpp"
#include "data/labeled_graph.hpp"
#include "data/lubm.hpp"
#include "helpers.hpp"
#include "incr/incremental.hpp"
#include "rpq/dfa.hpp"
#include "rpq/engine.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace spbla::incr {
namespace {

using spbla::testing::ctx;
using spbla::testing::seq_ctx;

using IncrementalNet = spbla::testing::CheckedContext;

using EpochAuditCase = const char*;
using EpochAudit = spbla::testing::CheckedContextWithParam<EpochAuditCase>;

// ---- schedule generation --------------------------------------------------

enum class Mode { InsertOnly, DeleteOnly, Mixed, Duplicate, NoOp };

struct Batch {
    std::vector<Coord> adds;
    std::vector<Coord> removes;
};

Coord random_cell(Index n, util::Rng& rng) {
    return {static_cast<Index>(rng.below(n)), static_cast<Index>(rng.below(n))};
}

/// One batch of the given mode against the current truth cell set.
Batch make_batch(Mode mode, Index n, std::size_t size, const Matrix& truth,
                 util::Rng& rng) {
    Batch b;
    const auto present = truth.to_coords();
    const auto sample_present = [&]() -> Coord {
        return present[rng.below(present.size())];
    };
    switch (mode) {
        case Mode::InsertOnly:
            for (std::size_t k = 0; k < size; ++k) b.adds.push_back(random_cell(n, rng));
            break;
        case Mode::DeleteOnly:
            if (present.empty()) break;
            for (std::size_t k = 0; k < size; ++k) b.removes.push_back(sample_present());
            break;
        case Mode::Mixed:
            for (std::size_t k = 0; k < size; ++k) {
                if (!present.empty() && rng.chance(0.5)) {
                    b.removes.push_back(sample_present());
                } else {
                    b.adds.push_back(random_cell(n, rng));
                }
            }
            break;
        case Mode::Duplicate: {
            // Repeated coordinates, already-present inserts, absent deletes,
            // and cells named by BOTH arrays (insert must win).
            for (std::size_t k = 0; k < size; ++k) {
                const auto c = !present.empty() && rng.chance(0.4) ? sample_present()
                                                                   : random_cell(n, rng);
                b.adds.push_back(c);
                if (rng.chance(0.5)) b.adds.push_back(c);  // duplicate entry
                if (rng.chance(0.3)) b.removes.push_back(c);  // add beats remove
                if (rng.chance(0.3)) b.removes.push_back(random_cell(n, rng));
            }
            break;
        }
        case Mode::NoOp:
            // Value-level no-ops: re-insert present cells, delete absent ones.
            for (std::size_t k = 0; k < size; ++k) {
                if (!present.empty()) b.adds.push_back(sample_present());
            }
            break;
    }
    return b;
}

Matrix cells(Index nrows, Index ncols, std::vector<Coord> coords) {
    return Matrix::from_coords(nrows, ncols, std::move(coords), ctx());
}

/// Ground-truth batch application: (truth ⊖ removes) ⊕ adds.
Matrix fold(const Matrix& truth, const Batch& b) {
    const auto after =
        storage::ewise_diff(ctx(), truth, cells(truth.nrows(), truth.ncols(), b.removes));
    return storage::ewise_add(ctx(), after, cells(truth.nrows(), truth.ncols(), b.adds));
}

Matrix uniform_graph(Index n, std::size_t edges, std::uint64_t seed) {
    util::Rng rng{seed};
    std::vector<Coord> coords;
    for (std::size_t k = 0; k < edges; ++k) coords.push_back(random_cell(n, rng));
    return cells(n, n, std::move(coords));
}

Matrix zipf_graph(Index n, std::size_t edges, std::uint64_t seed) {
    util::Rng rng{seed};
    util::ZipfSampler sample{static_cast<std::size_t>(n), 1.1};
    std::vector<Coord> coords;
    for (std::size_t k = 0; k < edges; ++k) {
        coords.push_back(
            {static_cast<Index>(sample(rng)), static_cast<Index>(sample(rng))});
    }
    return cells(n, n, std::move(coords));
}

// ---- transitive closure ---------------------------------------------------

/// Replays \p batch_sizes batches of \p mode through an IncrementalClosure on
/// \p run_ctx, checking the adjacency and the closure after every batch. The
/// scratch oracle runs on the Auto route whatever hint the caller forced.
void run_closure_schedule(const Matrix& start, Mode mode, std::uint64_t seed,
                          const std::vector<std::size_t>& batch_sizes,
                          backend::Context& run_ctx = ctx()) {
    const Index n = start.nrows();
    util::Rng rng{seed};
    Matrix truth = start;
    IncrementalClosure inc{run_ctx, start};
    for (const auto size : batch_sizes) {
        const auto b = make_batch(mode, n, size, truth, rng);
        truth = fold(truth, b);
        inc.apply(cells(n, n, b.adds), cells(n, n, b.removes));
        const Matrix expect = algorithms::transitive_closure(ctx(), truth);
        ASSERT_EQ(inc.adjacency(), truth)
            << "adjacency diverged (mode " << static_cast<int>(mode) << ", batch "
            << size << ")";
        ASSERT_EQ(inc.closure(), expect)
            << "closure diverged from scratch recompute (mode "
            << static_cast<int>(mode) << ", batch " << size << ")";
    }
    EXPECT_EQ(inc.stats().batches, batch_sizes.size());
}

TEST_F(IncrementalNet, ClosureUniformGraphAllModes) {
    const auto g = uniform_graph(32, 64, 11);
    const std::vector<std::size_t> ladder{1, 2, 4, 8, 16, 64};
    for (const auto mode : {Mode::InsertOnly, Mode::DeleteOnly, Mode::Mixed,
                            Mode::Duplicate, Mode::NoOp}) {
        run_closure_schedule(g, mode, 101 + static_cast<std::uint64_t>(mode), ladder);
    }
}

TEST_F(IncrementalNet, ClosureZipfGraphMixedStream) {
    const auto g = zipf_graph(48, 120, 23);
    run_closure_schedule(g, Mode::Mixed, 29, {1, 1, 8, 32, 8, 1, 128});
    run_closure_schedule(g, Mode::Duplicate, 31, {4, 16, 4});
}

TEST_F(IncrementalNet, ClosureLubmGraphInsertDeleteWaves) {
    const auto g = data::make_lubm(1, 7).union_matrix();
    run_closure_schedule(g, Mode::InsertOnly, 37, {1, 16, 64});
    run_closure_schedule(g, Mode::DeleteOnly, 41, {1, 16, 64});
}

TEST_F(IncrementalNet, ClosureThousandCellBatch) {
    // The top rung of the issue's batch-size ladder: one 10^3-cell batch.
    const auto g = uniform_graph(64, 96, 43);
    run_closure_schedule(g, Mode::Mixed, 47, {1000});
}

TEST_F(IncrementalNet, ClosureFromEmptyGraph) {
    run_closure_schedule(Matrix{16, 16, ctx()}, Mode::InsertOnly, 53, {1, 4, 16});
}

TEST_F(IncrementalNet, ClosureDeleteToEmptyAndRegrow) {
    const auto g = uniform_graph(12, 20, 59);
    util::Rng rng{61};
    Matrix truth = g;
    IncrementalClosure inc{ctx(), g};
    // Drain the whole graph...
    inc.apply(Matrix{12, 12, ctx()}, truth);
    truth = cells(12, 12, {});
    ASSERT_EQ(inc.closure(), algorithms::transitive_closure(ctx(), truth));
    EXPECT_TRUE(inc.closure().empty());
    // ...then regrow it edge by edge.
    for (int k = 0; k < 6; ++k) {
        const auto b = make_batch(Mode::InsertOnly, 12, 3, truth, rng);
        truth = fold(truth, b);
        inc.apply(cells(12, 12, b.adds), cells(12, 12, b.removes));
        ASSERT_EQ(inc.closure(), algorithms::transitive_closure(ctx(), truth));
    }
}

// The delete and mixed schedules on both contexts.
using ClosureRoutes = spbla::testing::CheckedContextWithParam<bool>;

TEST_P(ClosureRoutes, DeleteAndMixedSchedulesMatchScratch) {
    const bool sequential = GetParam();
    backend::Context& run_ctx = sequential ? seq_ctx() : ctx();
    const auto g = uniform_graph(32, 64, 11);
    run_closure_schedule(g, Mode::DeleteOnly, 211, {1, 2, 8, 16}, run_ctx);
    run_closure_schedule(g, Mode::Mixed, 223, {1, 4, 16, 64}, run_ctx);
    run_closure_schedule(zipf_graph(48, 120, 23), Mode::Mixed, 227, {1, 8, 32},
                         run_ctx);
}

INSTANTIATE_TEST_SUITE_P(Contexts, ClosureRoutes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return std::string{info.param ? "Sequential" : "Parallel"};
                         });

TEST_F(IncrementalNet, UpdateClosureHandCraftedBridge) {
    // Two disjoint paths 0→1→2 and 3→4→5; inserting 2→3 bridges them and
    // the new closure must contain every left×right pair.
    const auto adj = cells(6, 6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
    Matrix closure = algorithms::transitive_closure(ctx(), adj);
    const auto add = cells(6, 6, {{2, 3}});
    const auto after = storage::ewise_add(ctx(), adj, add);
    const auto upd =
        update_closure(ctx(), closure, after, add, Matrix{6, 6, ctx()});
    EXPECT_EQ(closure, algorithms::transitive_closure(ctx(), after));
    EXPECT_TRUE(closure.get(0, 5));
    EXPECT_GE(upd.rounds, 1u);
}

TEST_F(IncrementalNet, UpdateClosureHandCraftedCut) {
    // Deleting the middle edge of a path must drop exactly the pairs whose
    // every witness crossed it.
    const auto adj = cells(5, 5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
    Matrix closure = algorithms::transitive_closure(ctx(), adj);
    const auto del = cells(5, 5, {{2, 3}});
    const auto after = storage::ewise_diff(ctx(), adj, del);
    (void)update_closure(ctx(), closure, after, Matrix{5, 5, ctx()}, del);
    EXPECT_EQ(closure, algorithms::transitive_closure(ctx(), after));
    EXPECT_FALSE(closure.get(0, 4));
    EXPECT_TRUE(closure.get(0, 2));
    EXPECT_TRUE(closure.get(3, 4));
}

TEST_F(IncrementalNet, UpdateClosureDeleteKeepsDiamondBypass) {
    // 0→1→3 and 0→2→3: deleting 1→3 makes (0,3) suspect, but the kept pair
    // (0,2) re-derives it through 2→3.
    const auto adj = cells(4, 4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
    Matrix closure = algorithms::transitive_closure(ctx(), adj);
    const auto del = cells(4, 4, {{1, 3}});
    const auto after = storage::ewise_diff(ctx(), adj, del);
    (void)update_closure(ctx(), closure, after, Matrix{4, 4, ctx()}, del);
    EXPECT_EQ(closure, algorithms::transitive_closure(ctx(), after));
    EXPECT_TRUE(closure.get(0, 3));
    EXPECT_FALSE(closure.get(1, 3));
}

TEST_F(IncrementalNet, UpdateClosureDeleteRederivesOverRounds) {
    // x→a, x→b, b→a, a→c, c→d; delete x→a. (x,a) comes back in the seed
    // through the kept (x,b), then (x,c) in round 1 and (x,d) in round 2:
    // each hangs off a suspect pair re-derived the round before.
    constexpr Index x = 0, a = 1, b = 2, c = 3, d = 4;
    const auto adj = cells(5, 5, {{x, a}, {x, b}, {b, a}, {a, c}, {c, d}});
    Matrix closure = algorithms::transitive_closure(ctx(), adj);
    const auto del = cells(5, 5, {{x, a}});
    const auto after = storage::ewise_diff(ctx(), adj, del);
    const auto upd = update_closure(ctx(), closure, after, Matrix{5, 5, ctx()}, del);
    EXPECT_EQ(closure, algorithms::transitive_closure(ctx(), after));
    EXPECT_TRUE(closure.get(x, a));
    EXPECT_TRUE(closure.get(x, c));
    EXPECT_TRUE(closure.get(x, d));
    EXPECT_GE(upd.rounds, 2u);
}

TEST_F(IncrementalNet, UpdateClosureDeleteOnCycleRepairsDiagonal) {
    // Cycle 0→1→2→0 with the chord 0→2 and the exit 2→3. Deleting 1→2 puts
    // the diagonal cells in the suspect set: (0,0) and (2,2) survive on the
    // shorter cycle 0→2→0; 1 loses its only out-edge, so (1,1) and every
    // other pair out of 1 die.
    const auto adj = cells(4, 4, {{0, 1}, {1, 2}, {2, 0}, {0, 2}, {2, 3}});
    Matrix closure = algorithms::transitive_closure(ctx(), adj);
    ASSERT_TRUE(closure.get(1, 1));
    const auto del = cells(4, 4, {{1, 2}});
    const auto after = storage::ewise_diff(ctx(), adj, del);
    (void)update_closure(ctx(), closure, after, Matrix{4, 4, ctx()}, del);
    EXPECT_EQ(closure, algorithms::transitive_closure(ctx(), after));
    EXPECT_TRUE(closure.get(0, 0));
    EXPECT_TRUE(closure.get(2, 2));
    EXPECT_FALSE(closure.get(1, 1));
    EXPECT_FALSE(closure.get(1, 3));
}

TEST_F(IncrementalNet, UpdateClosureMixedBatch) {
    // Path 0→1→2→3; one batch deletes 1→2 and inserts 0→2 and 3→0. The
    // delete phase cuts 1 off, the insert phase closes the cycle 0→2→3→0.
    const auto adj = cells(4, 4, {{0, 1}, {1, 2}, {2, 3}});
    Matrix closure = algorithms::transitive_closure(ctx(), adj);
    const auto add = cells(4, 4, {{0, 2}, {3, 0}});
    const auto del = cells(4, 4, {{1, 2}});
    const auto after =
        storage::ewise_add(ctx(), storage::ewise_diff(ctx(), adj, del), add);
    (void)update_closure(ctx(), closure, after, add, del);
    EXPECT_EQ(closure, algorithms::transitive_closure(ctx(), after));
    EXPECT_TRUE(closure.get(3, 3));
    EXPECT_TRUE(closure.get(2, 1));
    EXPECT_FALSE(closure.get(1, 2));
}

TEST_F(IncrementalNet, ClosureMetamorphicBatchThenInverse) {
    // Applying a batch and then its exact inverse restores the value.
    const auto g = uniform_graph(24, 60, 67);
    IncrementalClosure inc{ctx(), g};
    const auto closure_before = inc.closure();
    const auto adj_before = inc.adjacency();

    // Effective batch: genuinely new cells in, genuinely present cells out.
    const auto adds = storage::ewise_diff(ctx(), uniform_graph(24, 12, 71), g);
    const auto removes = storage::ewise_mult(ctx(), uniform_graph(24, 40, 73), g);
    ASSERT_FALSE(adds.empty());
    ASSERT_FALSE(removes.empty());

    inc.apply(adds, removes);
    ASSERT_NE(inc.adjacency(), adj_before);
    inc.apply(removes, adds);  // the exact inverse

    EXPECT_EQ(inc.adjacency(), adj_before) << "inverse batch must restore the value";
    EXPECT_EQ(inc.closure(), closure_before);
}

TEST_F(IncrementalNet, MetamorphicRoundTripIsEpochDistinct) {
    // At the storage layer every non-empty batch restamps, so a batch
    // followed by its exact inverse is value-equal but epoch-distinct.
    auto m = uniform_graph(24, 60, 67);
    const auto original = m;
    const auto v0 = m.version();
    const auto adds = storage::ewise_diff(ctx(), uniform_graph(24, 12, 71), m);
    const auto removes = storage::ewise_mult(ctx(), uniform_graph(24, 40, 73), m);
    ASSERT_FALSE(adds.empty());
    ASSERT_FALSE(removes.empty());
    m.apply_delta(adds, removes, ctx());
    const auto v1 = m.version();
    EXPECT_GT(v1, v0);
    m.apply_delta(removes, adds, ctx());
    EXPECT_EQ(m, original) << "inverse batch must restore the value";
    EXPECT_GT(m.version(), v1) << "round-tripped state must carry a fresh epoch";
}

// ---- RPQ ------------------------------------------------------------------

std::vector<data::LabeledEdge> random_labeled_edges(
    Index n, const std::vector<std::string>& labels, std::size_t count,
    util::Rng& rng) {
    std::vector<data::LabeledEdge> edges;
    for (std::size_t k = 0; k < count; ++k) {
        edges.push_back({static_cast<Index>(rng.below(n)),
                         labels[rng.below(labels.size())],
                         static_cast<Index>(rng.below(n))});
    }
    return edges;
}

using EdgeKey = std::tuple<Index, std::string, Index>;

std::set<EdgeKey> to_keys(const std::vector<data::LabeledEdge>& edges) {
    std::set<EdgeKey> keys;
    for (const auto& e : edges) keys.insert({e.src, e.label, e.dst});
    return keys;
}

data::LabeledGraph keys_to_graph(Index n, const std::set<EdgeKey>& keys) {
    std::vector<data::LabeledEdge> edges;
    for (const auto& [src, label, dst] : keys) edges.push_back({src, label, dst});
    return data::LabeledGraph::from_edges(n, edges);
}

void run_rpq_schedule(Index n, const std::string& query_text, std::uint64_t seed,
                      const std::vector<std::size_t>& batch_sizes, bool with_deletes) {
    const std::vector<std::string> labels{"a", "b", "c"};
    util::Rng rng{seed};
    auto truth = to_keys(random_labeled_edges(n, labels, 3 * n, rng));
    const auto query = rpq::compile_query(query_text);
    IncrementalRpq inc{ctx(), keys_to_graph(n, truth), query};
    for (const auto size : batch_sizes) {
        const auto adds = random_labeled_edges(n, labels, size, rng);
        std::vector<data::LabeledEdge> removes;
        if (with_deletes && !truth.empty()) {
            std::vector<EdgeKey> pool{truth.begin(), truth.end()};
            for (std::size_t k = 0; k < size / 2 + 1; ++k) {
                const auto& [src, label, dst] = pool[rng.below(pool.size())];
                removes.push_back({src, label, dst});
            }
        }
        for (const auto& e : removes) truth.erase({e.src, e.label, e.dst});
        for (const auto& e : adds) truth.insert({e.src, e.label, e.dst});
        inc.apply(adds, removes);
        const auto graph = keys_to_graph(n, truth);
        const auto cg = inc.current_graph();
        std::set<EdgeKey> maintained;
        for (const auto& l : cg.labels()) {
            for (const auto& c : cg.matrix(l).to_coords()) {
                maintained.insert({c.row, l, c.col});
            }
        }
        ASSERT_EQ(maintained, truth)
            << "maintained graph diverged (query " << query_text << ")";
        ASSERT_EQ(inc.reachable(), rpq::evaluate(ctx(), graph, query))
            << "RPQ answers diverged from scratch evaluate (query " << query_text
            << ", batch " << size << ")";
    }
}

TEST_F(IncrementalNet, RpqConcatQueryStream) {
    run_rpq_schedule(16, "a b", 79, {1, 4, 8, 16}, /*with_deletes=*/true);
}

TEST_F(IncrementalNet, RpqStarQueryInsertOnly) {
    run_rpq_schedule(14, "(a | b)+", 83, {1, 2, 8, 32}, /*with_deletes=*/false);
}

TEST_F(IncrementalNet, RpqStarQueryMixedStream) {
    run_rpq_schedule(12, "a* b", 89, {1, 4, 4, 16, 64}, /*with_deletes=*/true);
}

TEST_F(IncrementalNet, RpqAgreesWithReferenceBfsOracle) {
    // Triple-check one stream against the product-automaton BFS as well.
    const std::vector<std::string> labels{"a", "b"};
    util::Rng rng{97};
    const Index n = 10;
    auto truth = to_keys(random_labeled_edges(n, labels, 20, rng));
    const auto query = rpq::compile_query("a (a | b)*");
    IncrementalRpq inc{ctx(), keys_to_graph(n, truth), query};
    for (int round = 0; round < 4; ++round) {
        const auto adds = random_labeled_edges(n, labels, 5, rng);
        for (const auto& e : adds) truth.insert({e.src, e.label, e.dst});
        inc.apply(adds, {});
        const auto graph = keys_to_graph(n, truth);
        ASSERT_EQ(inc.reachable(), rpq::evaluate_reference(graph, query));
    }
}

// ---- CFPQ -----------------------------------------------------------------

void run_cfpq_schedule(Index n, const std::string& grammar_text, std::uint64_t seed,
                       const std::vector<std::size_t>& batch_sizes,
                       bool with_deletes) {
    const std::vector<std::string> labels{"a", "b"};
    util::Rng rng{seed};
    auto truth = to_keys(random_labeled_edges(n, labels, 2 * n, rng));
    const auto grammar = cfpq::Grammar::parse(grammar_text);
    IncrementalCfpq inc{ctx(), keys_to_graph(n, truth), grammar};
    for (const auto size : batch_sizes) {
        const auto adds = random_labeled_edges(n, labels, size, rng);
        std::vector<data::LabeledEdge> removes;
        if (with_deletes && !truth.empty()) {
            std::vector<EdgeKey> pool{truth.begin(), truth.end()};
            for (std::size_t k = 0; k < size / 2 + 1; ++k) {
                const auto& [src, label, dst] = pool[rng.below(pool.size())];
                removes.push_back({src, label, dst});
            }
        }
        for (const auto& e : removes) truth.erase({e.src, e.label, e.dst});
        for (const auto& e : adds) truth.insert({e.src, e.label, e.dst});
        inc.apply(adds, removes);
        const auto graph = keys_to_graph(n, truth);
        ASSERT_EQ(inc.reachable(), cfpq::azimov_cfpq(ctx(), graph, grammar).reachable())
            << "CFPQ answers diverged from scratch recompute (batch " << size << ")";
    }
}

TEST_F(IncrementalNet, CfpqDyckInsertOnlyStream) {
    run_cfpq_schedule(12, "S -> a S b | a b\n", 103, {1, 2, 4, 8, 16},
                      /*with_deletes=*/false);
}

TEST_F(IncrementalNet, CfpqDyckMixedStreamFallsBackToRebuild) {
    run_cfpq_schedule(10, "S -> a S b | a b\n", 107, {1, 4, 8, 4},
                      /*with_deletes=*/true);
}

TEST_F(IncrementalNet, CfpqNullableStartStream) {
    run_cfpq_schedule(8, "S -> a S | eps\n", 109, {1, 2, 8}, /*with_deletes=*/true);
}

TEST_F(IncrementalNet, CfpqRebuildCounterTracksDeleteBatches) {
    const auto grammar = cfpq::Grammar::parse("S -> a S b | a b\n");
    const auto g = data::LabeledGraph::from_edges(
        5, {{0, "a", 1}, {1, "a", 2}, {2, "b", 3}, {3, "b", 4}});
    IncrementalCfpq inc{ctx(), g, grammar};
    inc.apply({{0, "a", 2}}, {});
    EXPECT_EQ(inc.stats().rebuilds, 0u) << "insert-only batches must not rebuild";
    inc.apply({}, {{0, "a", 1}});
    EXPECT_EQ(inc.stats().rebuilds, 1u) << "delete batches fall back to rebuild";
    const auto graph = data::LabeledGraph::from_edges(
        5, {{1, "a", 2}, {2, "b", 3}, {3, "b", 4}, {0, "a", 2}});
    EXPECT_EQ(inc.reachable(), cfpq::azimov_cfpq(ctx(), graph, grammar).reachable());
}

// ---- batch accounting -----------------------------------------------------

/// One caller batch books one spbla.incr.batches and only its own cells; an
/// empty batch books nothing, whichever entry point it comes through.
TEST_F(IncrementalNet, EachCallerBatchIsBookedOnce) {
    using telemetry::Counter;
    const auto booked = [](const telemetry::Snapshot& before, Counter c) {
        return telemetry::snapshot().counter(c) - before.counter(c);
    };
    IncrementalClosure inc{ctx(), cells(8, 8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}})};
    auto before = telemetry::snapshot();
    inc.apply(cells(8, 8, {{4, 5}, {5, 6}}), Matrix{8, 8, ctx()});
    EXPECT_EQ(booked(before, Counter::IncrBatches), 1u);
    EXPECT_EQ(booked(before, Counter::IncrDeltaNnz), 2u);

    before = telemetry::snapshot();
    inc.apply(Matrix{8, 8, ctx()}, Matrix{8, 8, ctx()});
    Matrix m = cells(8, 8, {{0, 1}});
    m.apply_delta(Matrix{8, 8, ctx()}, Matrix{8, 8, ctx()}, ctx());
    EXPECT_EQ(booked(before, Counter::IncrBatches), 0u);
    EXPECT_EQ(booked(before, Counter::IncrDeltaNnz), 0u);
}

/// A batch that touches several labels is still one caller batch:
/// IncrementalRpq folds it into each label and into the Kronecker product,
/// IncrementalCfpq into each label, and each books it once with its own cells.
TEST_F(IncrementalNet, BatchTouchingSeveralLabelsIsBookedOnce) {
    using telemetry::Counter;
    const auto booked = [](const telemetry::Snapshot& before, Counter c) {
        return telemetry::snapshot().counter(c) - before.counter(c);
    };
    const auto g = data::LabeledGraph::from_edges(
        6, {{0, "a", 1}, {1, "b", 2}, {2, "a", 3}, {3, "b", 4}});
    IncrementalRpq rpq_inc{ctx(), g, rpq::compile_query("(a b)*")};
    // Three cells over two labels; the duplicate edge is one cell.
    auto before = telemetry::snapshot();
    rpq_inc.apply({{4, "a", 5}, {5, "b", 0}, {5, "b", 0}}, {{0, "a", 1}});
    EXPECT_EQ(booked(before, Counter::IncrBatches), 1u);
    EXPECT_EQ(booked(before, Counter::IncrDeltaNnz), 3u);

    IncrementalCfpq cfpq_inc{ctx(), g, cfpq::Grammar::parse("S -> a S b | a b\n")};
    before = telemetry::snapshot();
    cfpq_inc.apply({{4, "a", 5}, {5, "b", 0}}, {});
    EXPECT_EQ(booked(before, Counter::IncrBatches), 1u);
    EXPECT_EQ(booked(before, Counter::IncrDeltaNnz), 2u);
    before = telemetry::snapshot();
    cfpq_inc.apply({}, {{0, "a", 1}, {1, "b", 2}});
    EXPECT_EQ(booked(before, Counter::IncrBatches), 1u);
    EXPECT_EQ(booked(before, Counter::IncrDeltaNnz), 2u);
}

// ---- content versions -----------------------------------------------------

// Pin what a content stamp follows: a copy keeps it, a mutation re-stamps, a
// moved-from handle reads 0.
TEST_F(IncrementalNet, MutationInstallsFreshVersion) {
    Matrix a = spbla::testing::random_matrix(20, 20, 0.2, 1301);
    const auto v0 = a.version();
    EXPECT_NE(v0, 0u);
    const Matrix copy = a;
    EXPECT_EQ(copy.version(), v0);  // same content, same stamp
    a += Matrix::identity(20, ctx());
    EXPECT_NE(a.version(), v0);     // mutation re-stamps
    EXPECT_EQ(copy.version(), v0);  // the copy keeps the old content
    Matrix moved = std::move(a);
    EXPECT_NE(moved.version(), v0);
    EXPECT_EQ(a.version(), 0u);  // NOLINT(bugprone-use-after-move): contract
}

// ---- epoch audit ----------------------------------------------------------

TEST_P(EpochAudit, MutatingEntryPointsRestampCorrectly) {
    const std::string which = GetParam();
    auto m = uniform_graph(12, 30, 149);
    const auto v0 = m.version();
    ASSERT_NE(v0, 0u);

    if (which == "apply_delta_insert") {
        m.apply_delta(cells(12, 12, {{11, 11}}), Matrix{12, 12, ctx()}, ctx());
        EXPECT_GT(m.version(), v0) << "fresh epochs are monotone";
    } else if (which == "apply_delta_delete") {
        m.apply_delta(Matrix{12, 12, ctx()}, m, ctx());
        EXPECT_TRUE(m.empty());
        EXPECT_GT(m.version(), v0);
    } else if (which == "apply_delta_value_equal") {
        // Re-inserting present cells leaves the value intact but the batch
        // was non-empty: the contract says restamp anyway.
        const auto copy = m;
        m.apply_delta(copy, Matrix{12, 12, ctx()}, ctx());
        EXPECT_EQ(m, copy);
        EXPECT_GT(m.version(), v0);
    } else if (which == "apply_delta_noop") {
        m.apply_delta(Matrix{12, 12, ctx()}, Matrix{12, 12, ctx()}, ctx());
        EXPECT_EQ(m.version(), v0) << "an empty batch must keep the epoch";
    } else if (which == "build") {
        const auto built = cells(12, 12, {{0, 0}});
        EXPECT_NE(built.version(), 0u);
        EXPECT_GT(built.version(), v0) << "later builds get later epochs";
    } else if (which == "copy_shares_move_zeroes") {
        const auto copy = m;
        EXPECT_EQ(copy.version(), v0) << "copies carry the same content";
        auto moved = std::move(m);
        EXPECT_EQ(moved.version(), v0);
        EXPECT_EQ(m.version(), 0u) << "moved-from handles are epoch-zero";  // NOLINT
    } else {
        FAIL() << "unknown audit case " << which;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutatingEntryPoints, EpochAudit,
    ::testing::Values("apply_delta_insert", "apply_delta_delete",
                      "apply_delta_value_equal", "apply_delta_noop", "build",
                      "copy_shares_move_zeroes"),
    [](const ::testing::TestParamInfo<EpochAuditCase>& info) {
        return std::string{info.param};
    });

}  // namespace
}  // namespace spbla::incr
