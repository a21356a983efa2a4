/// \file test_storage_dispatch.cpp
/// \brief Format sweep over the storage engine: every public dispatch
/// operation must compute the identical result under forced-CSR,
/// forced-bit-block and cost-model (auto) routing. Also pins down the cache
/// accounting contract (secondaries charged to the tracker, budget respected,
/// no leaks on teardown) and the no-thrash property of the hysteresis.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "algorithms/closure.hpp"
#include "data/rmat.hpp"
#include "helpers.hpp"
#include "ops/ops.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace spbla {
namespace {

using testing::ctx;

/// All hints the sweep runs under.
const storage::FormatHint kHints[] = {
    storage::FormatHint::Auto,
    storage::FormatHint::ForceCsr,
    storage::FormatHint::ForceBitBlocks,
};

std::string hint_name(const ::testing::TestParamInfo<storage::FormatHint>& info) {
    switch (info.param) {
        case storage::FormatHint::Auto: return "Auto";
        case storage::FormatHint::ForceCsr: return "ForceCsr";
        case storage::FormatHint::ForceBitBlocks: return "ForceBitBlocks";
    }
    return "Unknown";
}

/// Leak-checked fixture parameterised over the forced format. The hint is
/// installed for the whole test body and restored before the leak check.
class FormatSweep
    : public testing::CheckedContextWithParam<storage::FormatHint> {
protected:
    void SetUp() override {
        CheckedContext::SetUp();
        previous_ = storage::global_hint();
        storage::set_global_hint(GetParam());
    }

    void TearDown() override {
        storage::set_global_hint(previous_);
        CheckedContext::TearDown();
    }

private:
    storage::FormatHint previous_{storage::FormatHint::Auto};
};

/// Reference results are always computed by the raw CSR kernels — the oldest
/// and most battle-tested path — on unwrapped copies of the same inputs.
CsrMatrix ref_csr(const Matrix& m) { return m.csr(ctx()); }

TEST_P(FormatSweep, MultiplyFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(40, 40, 0.12, 1001);
    const auto b = testing::random_matrix(40, 40, 0.18, 1002);
    const auto c = testing::random_matrix(40, 40, 0.05, 1003);

    EXPECT_EQ(storage::multiply(ctx(), a, b),
              Matrix(ops::multiply(ctx(), ref_csr(a), ref_csr(b)), ctx()));
    EXPECT_EQ(storage::multiply_add(ctx(), c, a, b),
              Matrix(ops::multiply_add(ctx(), ref_csr(c), ref_csr(a), ref_csr(b)),
                     ctx()));
    const auto bt = storage::transpose(ctx(), b);
    EXPECT_EQ(storage::multiply_masked(ctx(), c, a, bt),
              Matrix(ops::multiply_masked(ctx(), ref_csr(c), ref_csr(a), ref_csr(bt)),
                     ctx()));
    EXPECT_EQ(storage::multiply_masked(ctx(), c, a, bt, /*complement=*/true),
              Matrix(ops::multiply_masked(ctx(), ref_csr(c), ref_csr(a), ref_csr(bt),
                                          /*complement=*/true),
                     ctx()));
}

TEST_P(FormatSweep, ElementwiseFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(33, 47, 0.2, 1004);
    const auto b = testing::random_matrix(33, 47, 0.2, 1005);

    EXPECT_EQ(storage::ewise_add(ctx(), a, b),
              Matrix(ops::ewise_add(ctx(), ref_csr(a), ref_csr(b)), ctx()));
    EXPECT_EQ(storage::ewise_mult(ctx(), a, b),
              Matrix(ops::ewise_mult(ctx(), ref_csr(a), ref_csr(b)), ctx()));
    EXPECT_EQ(storage::ewise_diff(ctx(), a, b),
              Matrix(ops::ewise_diff(ctx(), ref_csr(a), ref_csr(b)), ctx()));
}

TEST_P(FormatSweep, StructuralFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(21, 34, 0.15, 1006);
    const auto b = testing::random_matrix(5, 7, 0.3, 1007);

    EXPECT_EQ(storage::transpose(ctx(), a),
              Matrix(ops::transpose(ctx(), ref_csr(a)), ctx()));
    EXPECT_EQ(storage::kronecker(ctx(), b, a),
              Matrix(ops::kronecker(ctx(), ref_csr(b), ref_csr(a)), ctx()));
    EXPECT_EQ(storage::submatrix(ctx(), a, 3, 5, 13, 20),
              Matrix(ops::submatrix(ctx(), ref_csr(a), 3, 5, 13, 20), ctx()));
}

TEST_P(FormatSweep, ReductionAndVectorFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(29, 29, 0.18, 1008);
    util::Rng rng{1009};
    std::vector<Index> set;
    for (Index i = 0; i < 29; ++i) {
        if (rng.below(3) == 0) set.push_back(i);
    }
    const auto x = SpVector::from_indices(29, std::move(set));

    EXPECT_EQ(storage::reduce_to_column(ctx(), a),
              ops::reduce_to_column(ctx(), ref_csr(a)));
    EXPECT_EQ(storage::reduce_to_row(ctx(), a),
              ops::reduce_to_row(ctx(), ref_csr(a)));
    EXPECT_EQ(storage::reduce_scalar(a), ref_csr(a).nnz());
    EXPECT_EQ(storage::mxv(ctx(), a, x), ops::mxv(ctx(), ref_csr(a), x));
    EXPECT_EQ(storage::vxm(ctx(), x, a), ops::vxm(ctx(), x, ref_csr(a)));
}

TEST_P(FormatSweep, PrimaryFormatOfInputsDoesNotChangeResults) {
    // Feed each op the same content anchored in both primaries; every
    // combination must agree cell-for-cell.
    const auto seed = testing::random_matrix(24, 24, 0.2, 1010);
    Matrix as_csr = seed;
    as_csr.convert_to(Format::Csr, ctx());
    Matrix as_bitblocks = seed;
    as_bitblocks.convert_to(Format::BitBlocks, ctx());

    const auto expect_sq = storage::multiply(ctx(), seed, seed);
    for (const Matrix* lhs : {&as_csr, &as_bitblocks}) {
        for (const Matrix* rhs : {&as_csr, &as_bitblocks}) {
            EXPECT_EQ(storage::multiply(ctx(), *lhs, *rhs), expect_sq)
                << format_name(lhs->format()) << " x " << format_name(rhs->format());
            EXPECT_EQ(storage::ewise_add(ctx(), *lhs, *rhs), seed);
        }
    }
}

TEST_P(FormatSweep, DegenerateShapesSurvive) {
    const Matrix empty{17, 17, ctx()};
    const Matrix tall{64, 1, ctx()};
    const auto a = testing::random_matrix(17, 17, 0.2, 1011);

    EXPECT_EQ(storage::multiply(ctx(), empty, a).nnz(), 0u);
    EXPECT_EQ(storage::ewise_add(ctx(), empty, a), a);
    EXPECT_EQ(storage::ewise_mult(ctx(), empty, a).nnz(), 0u);
    EXPECT_EQ(storage::transpose(ctx(), tall).nrows(), 1u);
    EXPECT_EQ(storage::reduce_to_column(ctx(), empty).nnz(), 0u);
    EXPECT_EQ(storage::kronecker(ctx(), empty, a).nnz(), 0u);
}

TEST_P(FormatSweep, KroneckerShapeOverflowIsRejected) {
    // 65537 * 65536 output rows do not fit a 32-bit Index (wrapped, they
    // would pass for 65536). Every route must refuse.
    std::vector<Coord> column;
    for (Index i = 0; i < 65536; ++i) column.push_back({i, 0});
    const auto a = Matrix::from_coords(65537, 1, {{0, 0}}, ctx());
    const auto b = Matrix::from_coords(65536, 1, std::move(column), ctx());
    try {
        (void)storage::kronecker(ctx(), a, b);
        FAIL() << "kronecker accepted a result shape that overflows Index";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::OutOfRange);
    }
}

// ---------------------------------------------------------------------------
// kronecker_sum: the fused one-pass Kronecker sum must equal the
// kronecker + ewise_add fold it replaces, and fail cleanly.
// ---------------------------------------------------------------------------

/// A Kronecker sum input: the declared shape and the (A, B) factor pairs.
struct KronSumCase {
    const char* name;
    Index nrows, ncols;
    std::vector<std::pair<Matrix, Matrix>> factors;

    [[nodiscard]] std::vector<storage::KroneckerTerm> terms() const {
        std::vector<storage::KroneckerTerm> out;
        for (const auto& [a, b] : factors) out.push_back({&a, &b});
        return out;
    }
};

Matrix coords_matrix(Index nrows, Index ncols, std::vector<Coord> coords) {
    return Matrix{CsrMatrix::from_coords(nrows, ncols, std::move(coords)), ctx()};
}

/// Random matrix whose even rows are all empty.
Matrix odd_rows_only(Index nrows, Index ncols, double density, std::uint64_t seed) {
    auto coords = testing::random_csr(nrows, ncols, density, seed).to_coords();
    std::erase_if(coords, [](const Coord& c) { return c.row % 2 == 0; });
    return coords_matrix(nrows, ncols, std::move(coords));
}

/// The fold the drivers ran before kronecker_sum existed.
Matrix kron_fold(backend::Context& cx, const KronSumCase& c) {
    Matrix acc{c.nrows, c.ncols, cx};
    for (const auto& [a, b] : c.factors) {
        acc = storage::ewise_add(cx, acc, storage::kronecker(cx, a, b));
    }
    return acc;
}

KronSumCase make_kron_sum_case(int which) {
    // An NFA-shaped automaton: two targets from every state.
    const auto nfa = [] {
        return coords_matrix(4, 4, {{0, 1}, {0, 2}, {1, 2}, {1, 3},
                                    {2, 0}, {2, 3}, {3, 0}, {3, 1}});
    };
    switch (which) {
        case 0:
            return {"nfa_shaped", 4 * 30, 4 * 30,
                    {{nfa(), testing::random_matrix(30, 30, 0.2, 5001)}}};
        case 1: {
            // Three terms hit block (0, 1); two carry the same B, the third
            // overlaps it at random.
            KronSumCase c{"shared_block", 4 * 30, 4 * 30, {}};
            const auto b1 = testing::random_matrix(30, 30, 0.25, 5002);
            c.factors.emplace_back(nfa(), b1);
            c.factors.emplace_back(coords_matrix(4, 4, {{0, 1}, {3, 3}}),
                                   testing::random_matrix(30, 30, 0.25, 5003));
            c.factors.emplace_back(coords_matrix(4, 4, {{0, 1}, {2, 0}, {2, 1}}), b1);
            return c;
        }
        case 2:
            return {"empty_rows", 5 * 31, 5 * 29,
                    {{odd_rows_only(5, 5, 0.5, 5004), odd_rows_only(31, 29, 0.2, 5005)},
                     {testing::random_matrix(5, 5, 0.3, 5006), odd_rows_only(31, 29, 0.3, 5007)},
                     {Matrix{5, 5, ctx()}, testing::random_matrix(31, 29, 0.2, 5008)}}};
        case 3:
            return {"one_term", 3 * 7, 5 * 4,
                    {{testing::random_matrix(3, 5, 0.4, 5009),
                      testing::random_matrix(7, 4, 0.4, 5010)}}};
        default:
            return {"zero_terms", 12, 20, {}};
    }
}

TEST_P(FormatSweep, KroneckerSumMatchesTheFold) {
    const auto par_base = ctx().tracker().current_bytes();
    const auto seq_base = testing::seq_ctx().tracker().current_bytes();
    for (backend::Context* cx : {&ctx(), &testing::seq_ctx()}) {
        const char* policy = cx == &ctx() ? "parallel" : "sequential";
        for (int which = 0; which < 5; ++which) {
            {
                const KronSumCase c = make_kron_sum_case(which);
                const auto terms = c.terms();
                const Matrix got = storage::kronecker_sum(*cx, c.nrows, c.ncols, terms);
                EXPECT_EQ(got.nrows(), c.nrows) << c.name;
                EXPECT_EQ(got.ncols(), c.ncols) << c.name;
                EXPECT_EQ(got, kron_fold(*cx, c)) << c.name << " on " << policy;
                if (which == 4) {
                    EXPECT_EQ(got.nnz(), 0u);
                }
            }
            EXPECT_EQ(ctx().tracker().current_bytes(), par_base) << which;
            EXPECT_EQ(testing::seq_ctx().tracker().current_bytes(), seq_base) << which;
        }
    }
}

TEST_P(FormatSweep, KroneckerSumRejectsBadTermsWithoutAResult) {
    const auto par_base = ctx().tracker().current_bytes();
    const auto seq_base = testing::seq_ctx().tracker().current_bytes();
    const auto full = [](Index nrows, Index ncols, Index from_row, Index to_row) {
        std::vector<Coord> coords;
        for (Index i = from_row; i < to_row; ++i) {
            for (Index j = 0; j < ncols; ++j) coords.push_back({i, j});
        }
        return coords_matrix(nrows, ncols, std::move(coords));
    };
    struct Bad {
        const char* name;
        Status status;
        std::function<KronSumCase()> make;
    };
    const Bad cases[] = {
        {"a_shapes_differ", Status::DimensionMismatch,
         [] {
             return KronSumCase{"", 12, 12,
                                {{testing::random_matrix(3, 3, 0.5, 1), testing::random_matrix(4, 4, 0.5, 2)},
                                 {testing::random_matrix(3, 4, 0.5, 3), testing::random_matrix(4, 3, 0.5, 4)}}};
         }},
        {"b_shapes_differ", Status::DimensionMismatch,
         [] {
             return KronSumCase{"", 12, 12,
                                {{testing::random_matrix(3, 3, 0.5, 5), testing::random_matrix(4, 4, 0.5, 6)},
                                 {testing::random_matrix(3, 3, 0.5, 7), testing::random_matrix(4, 5, 0.5, 8)}}};
         }},
        {"declared_shape_differs", Status::DimensionMismatch,
         [] {
             return KronSumCase{"", 12, 13,
                                {{testing::random_matrix(3, 3, 0.5, 9), testing::random_matrix(4, 4, 0.5, 10)}}};
         }},
        {"shape_overflows", Status::OutOfRange,
         // 65537 * 65536 rows wrap to 65536 in 32 bits.
         [&] { return KronSumCase{"", 1, 1, {{full(65537, 1, 0, 1), full(65536, 1, 0, 65536)}}}; }},
        {"term_nnz_overflows", Status::OutOfRange,
         // 65536 * 65792 cells: one term alone is past 2^32.
         [&] { return KronSumCase{"", 256 * 256, 256 * 257,
                                  {{full(256, 256, 0, 256), full(256, 257, 0, 256)}}}; }},
        {"union_nnz_overflows", Status::OutOfRange,
         // Each half fits; only their disjoint union passes 2^32.
         [&] { return KronSumCase{"", 256 * 256, 256 * 257,
                                  {{full(256, 256, 0, 128), full(256, 257, 0, 256)},
                                   {full(256, 256, 128, 256), full(256, 257, 0, 256)}}}; }},
    };
    for (backend::Context* cx : {&ctx(), &testing::seq_ctx()}) {
        for (const Bad& bad : cases) {
            {
                const KronSumCase c = bad.make();
                const auto terms = c.terms();
                try {
                    (void)storage::kronecker_sum(*cx, c.nrows, c.ncols, terms);
                    ADD_FAILURE() << bad.name << ": accepted";
                } catch (const Error& e) {
                    EXPECT_EQ(e.status(), bad.status) << bad.name << ": " << e.what();
                }
            }
            EXPECT_EQ(ctx().tracker().current_bytes(), par_base) << bad.name;
            EXPECT_EQ(testing::seq_ctx().tracker().current_bytes(), seq_base) << bad.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Hints, FormatSweep, ::testing::ValuesIn(kHints),
                         hint_name);

// ---------------------------------------------------------------------------
// Route pins: the format the cost model picks under Auto, per op and input
// rung, read from the spbla.dispatch.<format> pick counters. FormatSweep only
// checks that every route computes the same result; these pins fail when a
// change to the dispatcher moves a decision.
// ---------------------------------------------------------------------------

/// One rung of the input ladder: square CSR operands of one shape and
/// density, optionally carrying cached bit-block tiles.
struct Rung {
    const char* name;
    Index n;
    double density;
    bool cache_bitblocks;
};

const Rung kRungs[] = {
    {"tiny", 1024, 16.0 / (1024.0 * 1024.0), false},  // 16 cells
    {"hypersparse", 1024, 0.0003, false},
    {"sparse", 512, 0.0015, false},
    {"above_bitblock_gate", 512, 0.008, false},
    {"above_bitblock_gate_cached", 512, 0.008, true},
    {"denseish", 128, 0.3, false},
};

struct RungOperands {
    Matrix a, b, c, s;
    SpVector x;
};

RungOperands make_rung(const Rung& r) {
    RungOperands o{testing::random_matrix(r.n, r.n, r.density, 4001),
                   testing::random_matrix(r.n, r.n, r.density, 4002),
                   testing::random_matrix(r.n, r.n, r.density, 4003),
                   testing::random_matrix(3, 3, 0.5, 4004), SpVector{}};
    for (Matrix* m : {&o.a, &o.b, &o.c}) {
        if (r.cache_bitblocks) (void)m->bitblocks(ctx());
    }
    std::vector<Index> set;
    for (Index i = 0; i < r.n; i += 8) set.push_back(i);
    o.x = SpVector::from_indices(r.n, std::move(set));
    return o;
}

/// The format the single dispatched op inside \p run was routed to.
std::string routed(const std::function<void()>& run) {
    const telemetry::Counter picks[] = {telemetry::Counter::DispatchCsr,
                                        telemetry::Counter::DispatchBitBlocks};
    const Format formats[] = {Format::Csr, Format::BitBlocks};
    const auto before = telemetry::snapshot();
    run();
    const auto after = telemetry::snapshot();
    std::string route;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumFormats; ++i) {
        const auto delta = after.counter(picks[i]) - before.counter(picks[i]);
        total += delta;
        if (delta > 0) route = format_name(formats[i]);
    }
    return total == 1 ? route : "picks=" + std::to_string(total);
}

using DispatchRoutes = testing::CheckedContext;

TEST_F(DispatchRoutes, AutoPicksArePinnedPerOpAndRung) {
    struct PinnedOp {
        const char* name;
        std::function<void(backend::Context&, const RungOperands&)> run;
        std::vector<std::string> expected;  // one format per rung
    };
    const PinnedOp ops[] = {
        {"multiply",
         [](auto& cx, const auto& o) { (void)storage::multiply(cx, o.a, o.b); },
         {"csr", "csr", "csr", "bitblock", "bitblock", "bitblock"}},
        {"multiply_add",
         [](auto& cx, const auto& o) { (void)storage::multiply_add(cx, o.c, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "bitblock", "bitblock"}},
        {"ewise_add",
         [](auto& cx, const auto& o) { (void)storage::ewise_add(cx, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "bitblock", "csr"}},
        {"ewise_mult",
         [](auto& cx, const auto& o) { (void)storage::ewise_mult(cx, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "bitblock", "csr"}},
        {"ewise_diff",
         [](auto& cx, const auto& o) { (void)storage::ewise_diff(cx, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"kronecker",
         [](auto& cx, const auto& o) { (void)storage::kronecker(cx, o.a, o.s); },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"kronecker_sum",
         [](auto& cx, const auto& o) {
             const storage::KroneckerTerm terms[] = {{&o.s, &o.a}, {&o.s, &o.b}};
             (void)storage::kronecker_sum(cx, o.s.nrows() * o.a.nrows(),
                                          o.s.ncols() * o.a.ncols(), terms);
         },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"transpose",
         [](auto& cx, const auto& o) { (void)storage::transpose(cx, o.a); },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"submatrix",
         [](auto& cx, const auto& o) {
             (void)storage::submatrix(cx, o.a, 0, 0, o.a.nrows() / 2, o.a.ncols() / 2);
         },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"reduce_to_column",
         [](auto& cx, const auto& o) { (void)storage::reduce_to_column(cx, o.a); },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"reduce_to_row",
         [](auto& cx, const auto& o) { (void)storage::reduce_to_row(cx, o.a); },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"mxv",
         [](auto& cx, const auto& o) { (void)storage::mxv(cx, o.a, o.x); },
         {"csr", "csr", "csr", "csr", "bitblock", "csr"}},
        {"vxm",
         [](auto& cx, const auto& o) { (void)storage::vxm(cx, o.x, o.a); },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
        {"multiply_masked",
         [](auto& cx, const auto& o) {
             (void)storage::multiply_masked(cx, o.c, o.a, o.b);
         },
         {"csr", "csr", "csr", "csr", "csr", "csr"}},
    };
    storage::ScopedHint automatic{storage::FormatHint::Auto};
    for (const auto& op : ops) {
        std::vector<std::string> got;
        std::string printed;
        for (const Rung& rung : kRungs) {
            const auto operands = make_rung(rung);
            got.push_back(routed([&] { op.run(ctx(), operands); }));
            printed += std::string{" "} + rung.name + "=" + got.back();
        }
        EXPECT_EQ(got, op.expected) << op.name << ":" << printed;
    }
}

// ---------------------------------------------------------------------------
// Cache accounting: the contract the ISSUE spells out. Secondary
// representations are device allocations — charged to the handle's context
// tracker, capped by the process budget, and released with the handle.
// ---------------------------------------------------------------------------

using StorageCache = testing::CheckedContext;

TEST_F(StorageCache, SecondaryRepresentationChargesTracker) {
    const auto m = testing::random_matrix(64, 64, 0.1, 2001);
    const auto base = ctx().tracker().current_bytes();
    const auto gauge_base = storage::cached_bytes();

    const auto& tiles = m.bitblocks(ctx());
    EXPECT_EQ(ctx().tracker().current_bytes(), base + tiles.device_bytes());
    EXPECT_EQ(m.cached_bytes(), tiles.device_bytes());
    EXPECT_EQ(storage::cached_bytes(), gauge_base + tiles.device_bytes());

    m.drop_cached();
    EXPECT_EQ(ctx().tracker().current_bytes(), base);
    EXPECT_EQ(m.cached_bytes(), 0u);
    EXPECT_EQ(storage::cached_bytes(), gauge_base);
}

TEST_F(StorageCache, MutationInvalidatesCachedSecondaries) {
    auto m = testing::random_matrix(32, 32, 0.2, 2002);
    (void)m.bitblocks(ctx());
    ASSERT_GT(m.cached_bytes(), 0u);

    m += Matrix::identity(32, ctx());  // content change
    EXPECT_EQ(m.cached_bytes(), 0u);
    EXPECT_TRUE(m.get(7, 7));
}

TEST_F(StorageCache, DispatchTrimsCachesBackUnderBudget) {
    const auto saved = storage::cache_budget();
    storage::set_cache_budget(0);
    {
        const auto a = testing::random_matrix(48, 48, 0.2, 2003);
        const auto b = testing::random_matrix(48, 48, 0.2, 2004);
        storage::ScopedHint force{storage::FormatHint::ForceBitBlocks};
        (void)storage::multiply(ctx(), a, b);
        // The forced bit-block multiply had to convert, but with a zero
        // budget the trim pass must have dropped every retained secondary
        // again.
        EXPECT_EQ(a.cached_bytes(), 0u);
        EXPECT_EQ(b.cached_bytes(), 0u);
    }
    storage::set_cache_budget(saved);
}

TEST_F(StorageCache, RepeatedDispatchHitsTheCache) {
    const auto a = testing::random_matrix(48, 48, 0.2, 2005);
    storage::ScopedHint force{storage::FormatHint::ForceBitBlocks};
    const auto before = telemetry::snapshot();
    for (int i = 0; i < 8; ++i) (void)storage::transpose(ctx(), a);
    const auto after = telemetry::snapshot();
    const auto conversions = after.counter(telemetry::Counter::StorageConversions) -
                             before.counter(telemetry::Counter::StorageConversions);
    const auto hits = after.counter(telemetry::Counter::StorageCacheHits) -
                      before.counter(telemetry::Counter::StorageCacheHits);
    // One conversion to bit blocks on the first round; the other seven
    // reuse it.
    EXPECT_LE(conversions, 1u);
    EXPECT_GE(hits, 7u);
}

// ---------------------------------------------------------------------------
// No-thrash: the hysteresis keeps fixpoint loops in a stable format, so the
// conversion counter stays bounded by the handles involved, not the rounds.
// ---------------------------------------------------------------------------

using DispatchStability = testing::CheckedContext;

/// Format conversions run inside \p run (the telemetry counter's delta).
std::uint64_t conversions_during(const std::function<void()>& run) {
    const auto before = telemetry::snapshot().counter(telemetry::Counter::StorageConversions);
    run();
    return telemetry::snapshot().counter(telemetry::Counter::StorageConversions) - before;
}

TEST_F(DispatchStability, RepeatedMultiplyConvertsAtMostOncePerOperand) {
    const auto a = testing::random_matrix(96, 96, 0.05, 3001);
    const auto b = testing::random_matrix(96, 96, 0.05, 3002);
    const auto conversions = conversions_during(
        [&] { for (int i = 0; i < 12; ++i) (void)storage::multiply(ctx(), a, b); });
    // Two live operands, at most kNumFormats - 1 secondary conversions each;
    // a thrashing dispatcher would instead pay per iteration (>= 12).
    EXPECT_LE(conversions, 2 * (kNumFormats - 1));
}

TEST_F(DispatchStability, TransitiveClosureConversionCountIsBoundedPerRun) {
    const auto adj = data::make_rmat(8, 8, 31);
    algorithms::ClosureStats stats;
    const auto conversions = conversions_during([&] {
        (void)algorithms::transitive_closure(
            ctx(), adj, algorithms::ClosureStrategy::Squaring, &stats);
    });
    ASSERT_GT(stats.rounds, 0u);
    // Each squaring round creates at most one fresh handle; hysteresis means
    // a handle converts at most once on the way into the loop's format plus
    // possibly once when the densifying endgame flips the model's choice.
    EXPECT_LE(conversions, 2 * stats.rounds + 4);
}

}  // namespace
}  // namespace spbla
