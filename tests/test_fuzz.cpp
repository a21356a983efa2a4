/// \file test_fuzz.cpp
/// \brief Stateful differential fuzz: random operation sequences over a pool
/// of matrices, with every sparse result checked against a dense mirror
/// computed by the bit-matrix reference. Catches interaction bugs single-op
/// property tests cannot (e.g. invariants broken by one op and exploited by
/// the next).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/closure.hpp"
#include "baseline/generic_ewise_add.hpp"
#include "cfpq/azimov.hpp"
#include "cfpq/grammar.hpp"
#include "cfpq/worklist.hpp"
#include "data/labeled_graph.hpp"
#include "incr/incremental.hpp"
#include "rpq/dfa.hpp"
#include "rpq/engine.hpp"
#include "storage/dispatch.hpp"
#include "baseline/generic_spgemm.hpp"
#include "core/validate.hpp"
#include "helpers.hpp"
#include "ops/ops.hpp"
#include "util/rng.hpp"

namespace spbla {
namespace {

using testing::ctx;

struct Mirrored {
    CsrMatrix sparse;
    DenseMatrix dense;
};

Mirrored make_random(Index nrows, Index ncols, double density, util::Rng& rng) {
    const auto sparse = testing::random_csr(nrows, ncols, density, rng());
    return {sparse, to_dense(sparse)};
}

void expect_consistent(const Mirrored& m, const char* op) {
    // Structural invariants first (sorted rows, in-range columns, offset
    // monotonicity) via the library validator the checked builds wire into
    // every op, then value-level equality against the dense mirror.
    ASSERT_NO_THROW(core::validate(m.sparse)) << op;
    ASSERT_EQ(to_dense(m.sparse), m.dense) << op;
}

class FuzzSweep
    : public ::spbla::testing::CheckedContextWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, RandomOpSequencesStayConsistentWithDenseMirror) {
    util::Rng rng{GetParam()};
    // Pool of square matrices of one size so every binary op is shape-legal.
    const Index n = 8 + static_cast<Index>(rng.below(25));
    std::vector<Mirrored> pool;
    for (int i = 0; i < 4; ++i) {
        pool.push_back(make_random(n, n, 0.05 + rng.uniform() * 0.3, rng));
    }

    for (int step = 0; step < 60; ++step) {
        const auto& a = pool[rng.below(pool.size())];
        const auto& b = pool[rng.below(pool.size())];
        const auto op = rng.below(8);
        Mirrored result;
        const char* name = "";
        switch (op) {
            case 0: {
                name = "ewise_add";
                result = {ops::ewise_add(ctx(), a.sparse, b.sparse),
                          a.dense.ewise_or(b.dense)};
                // Second, independent oracle: the value-carrying generic
                // merge must produce the same pattern the Boolean kernel does.
                const auto generic = baseline::ewise_add(
                    ctx(), baseline::GenericCsr::from_boolean(a.sparse),
                    baseline::GenericCsr::from_boolean(b.sparse));
                ASSERT_EQ(generic.pattern(), result.sparse) << name;
                break;
            }
            case 1: {
                name = "ewise_mult";
                result.sparse = ops::ewise_mult(ctx(), a.sparse, b.sparse);
                DenseMatrix d{n, n};
                for (const auto& c : a.dense.to_coords()) {
                    if (b.dense.get(c.row, c.col)) d.set(c.row, c.col);
                }
                result.dense = std::move(d);
                break;
            }
            case 2: {
                name = "ewise_diff";
                result.sparse = ops::ewise_diff(ctx(), a.sparse, b.sparse);
                DenseMatrix d{n, n};
                for (const auto& c : a.dense.to_coords()) {
                    if (!b.dense.get(c.row, c.col)) d.set(c.row, c.col);
                }
                result.dense = std::move(d);
                break;
            }
            case 3: {
                name = "multiply";
                result = {ops::multiply(ctx(), a.sparse, b.sparse),
                          a.dense.multiply(b.dense)};
                // Cross-check against the generic hash-SpGEMM oracle: same
                // Nsparse structure, float accumulators, so any divergence
                // isolates a bug in the Boolean specialisation itself.
                const auto generic = baseline::multiply_hash(
                    ctx(), baseline::GenericCsr::from_boolean(a.sparse),
                    baseline::GenericCsr::from_boolean(b.sparse));
                ASSERT_EQ(generic.pattern(), result.sparse) << name;
                break;
            }
            case 4:
                name = "multiply_add";
                result = {ops::multiply_add(ctx(), a.sparse, a.sparse, b.sparse),
                          a.dense.ewise_or(a.dense.multiply(b.dense))};
                break;
            case 5:
                name = "transpose+transpose";
                result = {ops::transpose(ctx(), ops::transpose(ctx(), a.sparse)),
                          a.dense};
                break;
            case 6: {
                name = "submatrix+pad";
                // Extract a random window; mirror densely; keep pool shape by
                // comparing directly instead of inserting.
                const Index r0 = static_cast<Index>(rng.below(n));
                const Index c0 = static_cast<Index>(rng.below(n));
                const Index h = static_cast<Index>(rng.below(n - r0) + 1);
                const Index w = static_cast<Index>(rng.below(n - c0) + 1);
                const Mirrored sub{ops::submatrix(ctx(), a.sparse, r0, c0, h, w),
                                   a.dense.submatrix(r0, c0, h, w)};
                expect_consistent(sub, "submatrix");
                continue;  // window is not pool-shaped; do not insert
            }
            default:
                name = "union-with-identity";
                result = {ops::ewise_add(ctx(), a.sparse, CsrMatrix::identity(n)),
                          a.dense.ewise_or(to_dense(CsrMatrix::identity(n)))};
                break;
        }
        expect_consistent(result, name);
        pool[rng.below(pool.size())] = std::move(result);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// ---------------------------------------------------------------------------
// Incremental-evaluation differential fuzz. Random delta schedules are
// streamed through the semi-naive drivers (src/incr) and every batch is
// checked against a TRIPLE oracle: the incremental result, the scratch
// fixpoint of the same engine, and an independent reference implementation
// (Floyd–Warshall for closure, the product-automaton BFS for RPQ, the
// worklist CFPQ solver).
// ---------------------------------------------------------------------------

using IncrFuzzSweep = ::spbla::testing::CheckedContextWithParam<std::uint64_t>;

/// Independent closure oracle: Floyd–Warshall over a bool grid.
std::vector<Coord> warshall(Index n, const std::vector<Coord>& edges) {
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (const auto& e : edges) reach[e.row][e.col] = true;
    for (Index k = 0; k < n; ++k) {
        for (Index i = 0; i < n; ++i) {
            if (!reach[i][k]) continue;
            for (Index j = 0; j < n; ++j) {
                if (reach[k][j]) reach[i][j] = true;
            }
        }
    }
    std::vector<Coord> out;
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < n; ++j) {
            if (reach[i][j]) out.push_back({i, j});
        }
    }
    return out;
}

TEST_P(IncrFuzzSweep, StreamedFixpointsAgreeWithScratchAndReferenceOracles) {
    util::Rng rng{GetParam()};
    const Index n = 8 + static_cast<Index>(rng.below(7));
    const std::vector<std::string> labels{"a", "b"};
    const std::vector<std::string> queries{"a b", "(a | b)+", "a* b", "a (a | b)*"};
    const std::vector<std::string> grammars{"S -> a S b | a b\n", "S -> a S | eps\n",
                                            "S -> a S b | a b | a\n"};
    const auto query = rpq::compile_query(queries[rng.below(queries.size())]);
    const auto grammar = cfpq::Grammar::parse(grammars[rng.below(grammars.size())]);

    const auto random_edges = [&](std::size_t count) {
        std::vector<data::LabeledEdge> edges;
        for (std::size_t k = 0; k < count; ++k) {
            edges.push_back({static_cast<Index>(rng.below(n)),
                             labels[rng.below(labels.size())],
                             static_cast<Index>(rng.below(n))});
        }
        return edges;
    };
    const auto as_graph = [&](const std::set<std::tuple<Index, std::string, Index>>& s) {
        std::vector<data::LabeledEdge> edges;
        for (const auto& [src, label, dst] : s) edges.push_back({src, label, dst});
        return data::LabeledGraph::from_edges(n, edges);
    };

    std::set<std::tuple<Index, std::string, Index>> truth;
    for (const auto& e : random_edges(2 * static_cast<std::size_t>(n))) {
        truth.insert({e.src, e.label, e.dst});
    }
    const auto g0 = as_graph(truth);
    incr::IncrementalClosure tc{ctx(), g0.union_matrix()};
    incr::IncrementalRpq rpq_inc{ctx(), g0, query};
    incr::IncrementalCfpq cfpq_inc{ctx(), g0, grammar};

    for (int round = 0; round < 5; ++round) {
        const auto adds = random_edges(1 + rng.below(6));
        std::vector<data::LabeledEdge> removes;
        if (!truth.empty() && rng.chance(0.6)) {
            std::vector<std::tuple<Index, std::string, Index>> pool{truth.begin(),
                                                                    truth.end()};
            for (std::size_t k = 0; k < 1 + rng.below(4); ++k) {
                const auto& [src, label, dst] = pool[rng.below(pool.size())];
                removes.push_back({src, label, dst});
            }
        }
        for (const auto& e : removes) truth.erase({e.src, e.label, e.dst});
        for (const auto& e : adds) truth.insert({e.src, e.label, e.dst});
        const auto graph = as_graph(truth);

        // Unlabeled closure: drive with the union-matrix deltas.
        const auto union_before = tc.adjacency();
        const auto union_after = graph.union_matrix();
        tc.apply(storage::ewise_diff(ctx(), union_after, union_before),
                 storage::ewise_diff(ctx(), union_before, union_after));
        const auto scratch = algorithms::transitive_closure(ctx(), union_after);
        ASSERT_EQ(tc.closure(), scratch) << "incremental vs scratch closure";
        ASSERT_EQ(tc.closure().to_coords(), warshall(n, union_after.to_coords()))
            << "incremental vs Floyd-Warshall closure";

        rpq_inc.apply(adds, removes);
        ASSERT_EQ(rpq_inc.reachable(), rpq::evaluate(ctx(), graph, query))
            << "incremental vs scratch RPQ";
        ASSERT_EQ(rpq_inc.reachable(), rpq::evaluate_reference(graph, query))
            << "incremental vs BFS-reference RPQ";

        cfpq_inc.apply(adds, removes);
        ASSERT_EQ(cfpq_inc.reachable(),
                  cfpq::azimov_cfpq(ctx(), graph, grammar).reachable())
            << "incremental vs scratch CFPQ";
        ASSERT_EQ(cfpq_inc.reachable(), cfpq::worklist_cfpq(graph, grammar))
            << "incremental vs worklist CFPQ";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrFuzzSweep,
                         ::testing::Values(1009, 2003, 3001, 4001, 5003));

}  // namespace
}  // namespace spbla
