/// \file test_storage_dispatch.cpp
/// \brief Format sweep over the storage engine: every public dispatch
/// operation must compute the identical result under forced-CSR, forced-COO,
/// forced-dense and cost-model (auto) routing. Also pins down the cache
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
    storage::FormatHint::ForceCoo,
    storage::FormatHint::ForceDense,
    storage::FormatHint::ForceBitBlocks,
};

std::string hint_name(const ::testing::TestParamInfo<storage::FormatHint>& info) {
    switch (info.param) {
        case storage::FormatHint::Auto: return "Auto";
        case storage::FormatHint::ForceCsr: return "ForceCsr";
        case storage::FormatHint::ForceCoo: return "ForceCoo";
        case storage::FormatHint::ForceDense: return "ForceDense";
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
    // Feed each op the same content anchored in all four primaries; every
    // combination must agree cell-for-cell.
    const auto seed = testing::random_matrix(24, 24, 0.2, 1010);
    Matrix as_csr = seed;
    as_csr.convert_to(Format::Csr, ctx());
    Matrix as_coo = seed;
    as_coo.convert_to(Format::Coo, ctx());
    Matrix as_dense = seed;
    as_dense.convert_to(Format::Dense, ctx());
    Matrix as_bitblocks = seed;
    as_bitblocks.convert_to(Format::BitBlocks, ctx());

    const auto expect_sq = storage::multiply(ctx(), seed, seed);
    for (const Matrix* lhs : {&as_csr, &as_coo, &as_dense, &as_bitblocks}) {
        for (const Matrix* rhs : {&as_csr, &as_coo, &as_dense, &as_bitblocks}) {
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
    // would pass for 65536). Every route, dense included, must refuse.
    DenseMatrix tall{65537, 1};
    tall.set(0, 0);
    DenseMatrix full{65536, 1};
    for (Index i = 0; i < 65536; ++i) full.set(i, 0);
    const Matrix a{std::move(tall), ctx()};
    const Matrix b{std::move(full), ctx()};
    try {
        (void)storage::kronecker(ctx(), a, b);
        FAIL() << "kronecker accepted a result shape that overflows Index";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::OutOfRange);
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

/// One rung of the input ladder: square operands of one shape and density,
/// optionally re-anchored in another primary or carrying a cached secondary.
struct Rung {
    const char* name;
    Index n;
    double density;
    Format primary;
    bool cache_bitblocks;
};

const Rung kRungs[] = {
    {"hypersparse", 1024, 0.0003, Format::Csr, false},
    {"sparse", 512, 0.0015, Format::Csr, false},
    {"sparse_coo_primary", 512, 0.0015, Format::Coo, false},
    {"above_bitblock_gate", 512, 0.008, Format::Csr, false},
    {"above_bitblock_gate_cached", 512, 0.008, Format::Csr, true},
    {"denseish", 128, 0.3, Format::Csr, false},
    {"denseish_dense_primary", 128, 0.3, Format::Dense, false},
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
        if (r.primary != Format::Csr) m->convert_to(r.primary, ctx());
        if (r.cache_bitblocks) (void)m->bitblocks(ctx());
    }
    std::vector<Index> set;
    for (Index i = 0; i < r.n; i += 8) set.push_back(i);
    o.x = SpVector::from_indices(r.n, std::move(set));
    return o;
}

/// The format the single dispatched op inside \p run was routed to.
std::string routed(const std::function<void()>& run) {
    const telemetry::Counter picks[] = {
        telemetry::Counter::DispatchCsr, telemetry::Counter::DispatchCoo,
        telemetry::Counter::DispatchDense, telemetry::Counter::DispatchBitBlocks};
    const Format formats[] = {Format::Csr, Format::Coo, Format::Dense,
                              Format::BitBlocks};
    const auto before = telemetry::snapshot();
    run();
    const auto after = telemetry::snapshot();
    std::string route;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 4; ++i) {
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
         {"csr", "csr", "csr", "bitblock", "bitblock", "dense", "dense"}},
        {"multiply_add",
         [](auto& cx, const auto& o) { (void)storage::multiply_add(cx, o.c, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "bitblock", "dense", "dense"}},
        {"ewise_add",
         [](auto& cx, const auto& o) { (void)storage::ewise_add(cx, o.a, o.b); },
         {"csr", "csr", "coo", "csr", "bitblock", "csr", "dense"}},
        {"ewise_mult",
         [](auto& cx, const auto& o) { (void)storage::ewise_mult(cx, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "bitblock", "csr", "dense"}},
        {"ewise_diff",
         [](auto& cx, const auto& o) { (void)storage::ewise_diff(cx, o.a, o.b); },
         {"csr", "csr", "csr", "csr", "csr", "csr", "dense"}},
        {"kronecker",
         [](auto& cx, const auto& o) { (void)storage::kronecker(cx, o.a, o.s); },
         {"csr", "csr", "csr", "csr", "csr", "csr", "csr"}},
        {"transpose",
         [](auto& cx, const auto& o) { (void)storage::transpose(cx, o.a); },
         {"csr", "csr", "coo", "csr", "csr", "csr", "dense"}},
        {"submatrix",
         [](auto& cx, const auto& o) {
             (void)storage::submatrix(cx, o.a, 0, 0, o.a.nrows() / 2, o.a.ncols() / 2);
         },
         {"coo", "csr", "coo", "csr", "csr", "csr", "dense"}},
        {"reduce_to_column",
         [](auto& cx, const auto& o) { (void)storage::reduce_to_column(cx, o.a); },
         {"csr", "csr", "coo", "csr", "csr", "csr", "csr"}},
        {"reduce_to_row",
         [](auto& cx, const auto& o) { (void)storage::reduce_to_row(cx, o.a); },
         {"csr", "csr", "csr", "csr", "csr", "csr", "csr"}},
        {"mxv",
         [](auto& cx, const auto& o) { (void)storage::mxv(cx, o.a, o.x); },
         {"csr", "csr", "csr", "csr", "bitblock", "csr", "csr"}},
        {"vxm",
         [](auto& cx, const auto& o) { (void)storage::vxm(cx, o.x, o.a); },
         {"csr", "csr", "csr", "csr", "csr", "csr", "csr"}},
        {"multiply_masked",
         [](auto& cx, const auto& o) {
             (void)storage::multiply_masked(cx, o.c, o.a, o.b);
         },
         {"csr", "csr", "csr", "csr", "csr", "csr", "csr"}},
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

    const auto& coo = m.coo(ctx());
    EXPECT_EQ(ctx().tracker().current_bytes(), base + coo.device_bytes());
    EXPECT_EQ(m.cached_bytes(), coo.device_bytes());
    EXPECT_EQ(storage::cached_bytes(), gauge_base + coo.device_bytes());

    m.drop_cached();
    EXPECT_EQ(ctx().tracker().current_bytes(), base);
    EXPECT_EQ(m.cached_bytes(), 0u);
    EXPECT_EQ(storage::cached_bytes(), gauge_base);
}

TEST_F(StorageCache, MutationInvalidatesCachedSecondaries) {
    auto m = testing::random_matrix(32, 32, 0.2, 2002);
    (void)m.coo(ctx());
    (void)m.dense(ctx());
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
        storage::ScopedHint force{storage::FormatHint::ForceCoo};
        (void)storage::multiply(ctx(), a, b);
        // The forced-COO multiply had to convert, but with a zero budget the
        // trim pass must have dropped every retained secondary again.
        EXPECT_EQ(a.cached_bytes(), 0u);
        EXPECT_EQ(b.cached_bytes(), 0u);
    }
    storage::set_cache_budget(saved);
}

TEST_F(StorageCache, RepeatedDispatchHitsTheCache) {
    const auto a = testing::random_matrix(48, 48, 0.2, 2005);
    storage::ScopedHint force{storage::FormatHint::ForceCoo};
    storage::reset_stats();
    for (int i = 0; i < 8; ++i) (void)storage::transpose(ctx(), a);
    const auto conversions =
        storage::stats().format_conversions.load(std::memory_order_relaxed);
    const auto hits = storage::stats().repr_cache_hits.load(std::memory_order_relaxed);
    // One conversion to COO on the first round; the other seven reuse it.
    EXPECT_LE(conversions, 1u);
    EXPECT_GE(hits, 7u);
}

// ---------------------------------------------------------------------------
// No-thrash: the hysteresis keeps fixpoint loops in a stable format, so the
// conversion counter stays bounded by the handles involved, not the rounds.
// ---------------------------------------------------------------------------

using DispatchStability = testing::CheckedContext;

TEST_F(DispatchStability, RepeatedMultiplyConvertsAtMostOncePerOperand) {
    const auto a = testing::random_matrix(96, 96, 0.05, 3001);
    const auto b = testing::random_matrix(96, 96, 0.05, 3002);
    storage::reset_stats();
    for (int i = 0; i < 12; ++i) (void)storage::multiply(ctx(), a, b);
    const auto conversions =
        storage::stats().format_conversions.load(std::memory_order_relaxed);
    // Two live operands, at most kNumFormats - 1 secondary conversions each;
    // a thrashing dispatcher would instead pay per iteration (>= 12).
    EXPECT_LE(conversions, 2 * (kNumFormats - 1));
}

TEST_F(DispatchStability, TransitiveClosureConversionCountIsBoundedPerRun) {
    const auto adj = data::make_rmat(8, 8, 31);
    algorithms::ClosureStats stats;
    storage::reset_stats();
    (void)algorithms::transitive_closure(ctx(), adj,
                                         algorithms::ClosureStrategy::Squaring,
                                         &stats);
    const auto conversions =
        storage::stats().format_conversions.load(std::memory_order_relaxed);
    ASSERT_GT(stats.rounds, 0u);
    // Each squaring round creates at most one fresh handle; hysteresis means
    // a handle converts at most once on the way into the loop's format plus
    // possibly once when the densifying endgame flips the model's choice.
    EXPECT_LE(conversions, 2 * stats.rounds + 4);
}

}  // namespace
}  // namespace spbla
