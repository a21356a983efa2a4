#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "ops/ewise_add.hpp"
#include "ops/ewise_mult.hpp"
#include "ops/ewise_plan.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::random_csr;
using testing::seq_ctx;

// Op suites run on the shared contexts; CheckedContext asserts the
// MemoryTracker leak report is clean after every test.
using EwiseAddCsr = ::spbla::testing::CheckedContext;
using EwiseMult = ::spbla::testing::CheckedContext;
using EwiseDiff = ::spbla::testing::CheckedContext;

TEST_F(EwiseAddCsr, EmptyPlusEmpty) {
    const CsrMatrix a{4, 4}, b{4, 4};
    const auto c = ops::ewise_add(ctx(), a, b);
    EXPECT_EQ(c.nnz(), 0u);
}

TEST_F(EwiseAddCsr, ShapeMismatchThrows) {
    const CsrMatrix a{4, 4}, b{4, 5};
    EXPECT_THROW((void)ops::ewise_add(ctx(), a, b), Error);
}

TEST_F(EwiseAddCsr, UnionOfDisjoint) {
    const auto a = CsrMatrix::from_coords(2, 4, {{0, 0}, {1, 2}});
    const auto b = CsrMatrix::from_coords(2, 4, {{0, 3}, {1, 1}});
    const auto c = ops::ewise_add(ctx(), a, b);
    EXPECT_EQ(c.to_coords(), (std::vector<Coord>{{0, 0}, {0, 3}, {1, 1}, {1, 2}}));
}

TEST_F(EwiseAddCsr, OverlapCollapses) {
    const auto a = CsrMatrix::from_coords(1, 3, {{0, 1}});
    const auto b = CsrMatrix::from_coords(1, 3, {{0, 1}, {0, 2}});
    const auto c = ops::ewise_add(ctx(), a, b);
    EXPECT_EQ(c.nnz(), 2u);
}

TEST_F(EwiseAddCsr, IsIdempotent) {
    const auto a = random_csr(30, 30, 0.15, 42);
    EXPECT_EQ(ops::ewise_add(ctx(), a, a), a);
}

TEST_F(EwiseAddCsr, IsCommutative) {
    const auto a = random_csr(25, 40, 0.1, 43);
    const auto b = random_csr(25, 40, 0.1, 44);
    EXPECT_EQ(ops::ewise_add(ctx(), a, b), ops::ewise_add(ctx(), b, a));
}

TEST_F(EwiseAddCsr, IsAssociative) {
    const auto a = random_csr(20, 20, 0.1, 45);
    const auto b = random_csr(20, 20, 0.1, 46);
    const auto c = random_csr(20, 20, 0.1, 47);
    const auto left = ops::ewise_add(ctx(), ops::ewise_add(ctx(), a, b), c);
    const auto right = ops::ewise_add(ctx(), a, ops::ewise_add(ctx(), b, c));
    EXPECT_EQ(left, right);
}

TEST_F(EwiseAddCsr, ZeroIsNeutral) {
    const auto a = random_csr(30, 30, 0.2, 48);
    const CsrMatrix zero{30, 30};
    EXPECT_EQ(ops::ewise_add(ctx(), a, zero), a);
    EXPECT_EQ(ops::ewise_add(ctx(), zero, a), a);
}

TEST_F(EwiseAddCsr, BackendsAgree) {
    const auto a = random_csr(80, 80, 0.05, 49);
    const auto b = random_csr(80, 80, 0.05, 50);
    EXPECT_EQ(ops::ewise_add(ctx(), a, b), ops::ewise_add(seq_ctx(), a, b));
}

// ------------------------------ ewise_mult -------------------------------

TEST_F(EwiseMult, IntersectionBasics) {
    const auto a = CsrMatrix::from_coords(2, 4, {{0, 0}, {0, 2}, {1, 1}});
    const auto b = CsrMatrix::from_coords(2, 4, {{0, 2}, {0, 3}, {1, 1}});
    const auto c = ops::ewise_mult(ctx(), a, b);
    EXPECT_EQ(c.to_coords(), (std::vector<Coord>{{0, 2}, {1, 1}}));
}

TEST_F(EwiseMult, DisjointGivesEmpty) {
    const auto a = CsrMatrix::from_coords(2, 2, {{0, 0}});
    const auto b = CsrMatrix::from_coords(2, 2, {{1, 1}});
    EXPECT_EQ(ops::ewise_mult(ctx(), a, b).nnz(), 0u);
}

TEST_F(EwiseMult, IsIdempotentAndCommutative) {
    const auto a = random_csr(30, 30, 0.2, 60);
    const auto b = random_csr(30, 30, 0.2, 61);
    EXPECT_EQ(ops::ewise_mult(ctx(), a, a), a);
    EXPECT_EQ(ops::ewise_mult(ctx(), a, b), ops::ewise_mult(ctx(), b, a));
}

TEST_F(EwiseMult, AbsorptionWithAdd) {
    // A & (A | B) == A over the Boolean lattice.
    const auto a = random_csr(25, 25, 0.15, 62);
    const auto b = random_csr(25, 25, 0.15, 63);
    EXPECT_EQ(ops::ewise_mult(ctx(), a, ops::ewise_add(ctx(), a, b)), a);
}

TEST_F(EwiseMult, ShapeMismatchThrows) {
    const CsrMatrix a{2, 3}, b{3, 3};
    EXPECT_THROW((void)ops::ewise_mult(ctx(), a, b), Error);
}

// ------------------------------ ewise_diff -------------------------------

TEST_F(EwiseDiff, SetDifferenceBasics) {
    const auto a = CsrMatrix::from_coords(2, 4, {{0, 0}, {0, 2}, {1, 1}});
    const auto b = CsrMatrix::from_coords(2, 4, {{0, 2}});
    const auto c = ops::ewise_diff(ctx(), a, b);
    EXPECT_EQ(c.to_coords(), (std::vector<Coord>{{0, 0}, {1, 1}}));
}

TEST_F(EwiseDiff, SelfDifferenceIsEmpty) {
    const auto a = random_csr(20, 20, 0.3, 64);
    EXPECT_EQ(ops::ewise_diff(ctx(), a, a).nnz(), 0u);
}

TEST_F(EwiseDiff, PartitionLaw) {
    // (A \ B) | (A & B) == A, and the two parts are disjoint.
    const auto a = random_csr(30, 30, 0.2, 65);
    const auto b = random_csr(30, 30, 0.2, 66);
    const auto diff = ops::ewise_diff(ctx(), a, b);
    const auto inter = ops::ewise_mult(ctx(), a, b);
    EXPECT_EQ(ops::ewise_add(ctx(), diff, inter), a);
    EXPECT_EQ(ops::ewise_mult(ctx(), diff, inter).nnz(), 0u);
}

TEST_F(EwiseDiff, EmptySubtrahendIsIdentity) {
    const auto a = random_csr(10, 10, 0.3, 67);
    EXPECT_EQ(ops::ewise_diff(ctx(), a, CsrMatrix{10, 10}), a);
}

// Property sweep against the dense reference.
struct AddCase {
    Index m, n;
    double da, db;
    std::uint64_t seed;
};

class EwiseAddSweep : public ::spbla::testing::CheckedContextWithParam<AddCase> {};

TEST_P(EwiseAddSweep, MatchesDenseReference) {
    const auto p = GetParam();
    const auto a = random_csr(p.m, p.n, p.da, p.seed);
    const auto b = random_csr(p.m, p.n, p.db, p.seed + 100);
    const auto expected = to_csr(to_dense(a).ewise_or(to_dense(b)));
    const auto csr_sum = ops::ewise_add(ctx(), a, b);
    csr_sum.validate();
    EXPECT_EQ(csr_sum, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EwiseAddSweep,
    ::testing::Values(AddCase{1, 1, 1.0, 1.0, 1}, AddCase{1, 200, 0.1, 0.4, 2},
                      AddCase{200, 1, 0.4, 0.1, 3}, AddCase{50, 50, 0.01, 0.01, 4},
                      AddCase{50, 50, 0.7, 0.7, 5}, AddCase{33, 77, 0.2, 0.05, 6},
                      AddCase{128, 64, 0.1, 0.1, 7}, AddCase{64, 128, 0.15, 0.15, 8}));


// ------------------- differential cases across the runner's cut -------------------
// Every element-wise op against a cell-by-cell dense reference, on the
// parallel and the sequential context, with the tracker checked after each
// op: the one-pass runner's staging is freed when the op returns.

enum class EwiseOp { Add, Mult, Diff };

[[nodiscard]] CsrMatrix dense_reference(EwiseOp op, const CsrMatrix& a, const CsrMatrix& b) {
    const DenseMatrix da = to_dense(a);
    const DenseMatrix db = to_dense(b);
    std::vector<Coord> cells;
    for (Index r = 0; r < a.nrows(); ++r) {
        for (Index c = 0; c < a.ncols(); ++c) {
            const bool x = da.get(r, c);
            const bool y = db.get(r, c);
            const bool keep = op == EwiseOp::Add ? (x || y) : op == EwiseOp::Mult ? (x && y)
                                                                                 : (x && !y);
            if (keep) cells.push_back({r, c});
        }
    }
    return CsrMatrix::from_coords(a.nrows(), a.ncols(), std::move(cells));
}

[[nodiscard]] CsrMatrix run_op(EwiseOp op, backend::Context& c, const CsrMatrix& a,
                               const CsrMatrix& b) {
    switch (op) {
        case EwiseOp::Add: return ops::ewise_add(c, a, b);
        case EwiseOp::Mult: return ops::ewise_mult(c, a, b);
        case EwiseOp::Diff: return ops::ewise_diff(c, a, b);
    }
    return CsrMatrix{a.nrows(), a.ncols()};
}

/// All three ops on \p c against the dense reference; the tracker must be
/// back at its starting charge after each.
void expect_all_ops_match(backend::Context& c, const CsrMatrix& a, const CsrMatrix& b) {
    const std::size_t before = c.tracker().current_bytes();
    for (const auto op : {EwiseOp::Add, EwiseOp::Mult, EwiseOp::Diff}) {
        SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)));
        const CsrMatrix got = run_op(op, c, a, b);
        got.validate();
        EXPECT_EQ(got, dense_reference(op, a, b));
        EXPECT_EQ(c.tracker().current_bytes(), before) << c.tracker().leak_report();
    }
}

void expect_both_contexts_match(const CsrMatrix& a, const CsrMatrix& b) {
    {
        SCOPED_TRACE("parallel context");
        expect_all_ops_match(ctx(), a, b);
    }
    {
        SCOPED_TRACE("sequential context");
        expect_all_ops_match(seq_ctx(), a, b);
    }
}

/// \p src with every row that \p keep rejects emptied.
[[nodiscard]] CsrMatrix keep_rows(const CsrMatrix& src, bool (*keep)(Index)) {
    std::vector<Coord> cells;
    for (const auto& cell : src.to_coords()) {
        if (keep(cell.row)) cells.push_back(cell);
    }
    return CsrMatrix::from_coords(src.nrows(), src.ncols(), std::move(cells));
}

using EwiseRunnerCut = ::spbla::testing::CheckedContext;

TEST_F(EwiseRunnerCut, EmptyRowsOnEitherSide) {
    // Rows 0 mod 3 are empty in a, rows 1 mod 3 in b, rows 2 mod 3 in neither;
    // the last rows are empty on both sides.
    const auto a = keep_rows(random_csr(300, 300, 0.05, 61),
                             [](Index r) { return r % 3 != 0 && r < 290; });
    const auto b = keep_rows(random_csr(300, 300, 0.05, 62),
                             [](Index r) { return r % 3 != 1 && r < 290; });
    expect_both_contexts_match(a, b);
    expect_both_contexts_match(b, a);
}

TEST_F(EwiseRunnerCut, SixteenCellOperandAgainstTallMatrix) {
    const auto big = random_csr(4096, 96, 0.08, 63);
    // Eight cells spread over the rows (rows 7 mod 512, which the big
    // operand's cells below never share) and eight that coincide with the
    // big operand's cells.
    std::vector<Coord> cells;
    for (Index k = 0; k < 8; ++k) cells.push_back({k * 512 + 7, (k * 37) % 96});
    for (const auto& cell : big.to_coords()) {
        if (cells.size() == 16) break;
        if (cell.row % 512 == 3) cells.push_back(cell);
    }
    const auto small = CsrMatrix::from_coords(4096, 96, std::move(cells));
    ASSERT_EQ(small.nnz(), 16u);
    expect_both_contexts_match(big, small);
    expect_both_contexts_match(small, big);
}

TEST_F(EwiseRunnerCut, DisjointOperands) {
    const auto base = random_csr(200, 300, 0.1, 64);
    std::vector<Coord> even, odd;
    for (const auto& cell : base.to_coords()) (cell.col % 2 == 0 ? even : odd).push_back(cell);
    const auto a = CsrMatrix::from_coords(200, 300, std::move(even));
    const auto b = CsrMatrix::from_coords(200, 300, std::move(odd));
    expect_both_contexts_match(a, b);
}

TEST_F(EwiseRunnerCut, FullyOverlappingOperands) {
    const auto a = random_csr(200, 300, 0.1, 65);
    const CsrMatrix b = a;  // equal content, distinct arrays
    expect_both_contexts_match(a, b);
}

TEST_F(EwiseRunnerCut, AliasedOperand) {
    const auto a = random_csr(500, 400, 0.04, 66);
    expect_both_contexts_match(a, a);
    EXPECT_EQ(ops::ewise_add(ctx(), a, a), a);
    EXPECT_EQ(ops::ewise_mult(ctx(), a, a), a);
    EXPECT_EQ(ops::ewise_diff(seq_ctx(), a, a).nnz(), 0u);
}

TEST_F(EwiseRunnerCut, NarrowMatrices) {
    for (const Index n : {Index{1}, Index{17}, Index{255}}) {
        SCOPED_TRACE("ncols " + std::to_string(n));
        const auto a = random_csr(700, n, 0.3, 67 + n);
        const auto b = random_csr(700, n, 0.3, 68 + n);
        expect_both_contexts_match(a, b);
    }
}

TEST_F(EwiseRunnerCut, RunsAtTheFirstAndLastRow) {
    // b is empty over rows [0, 40) and [260, 300): copy runs of a's rows at
    // both ends; a is empty over rows [100, 140): a run of b's rows (union)
    // and of empty rows (intersection, difference) in the middle.
    const auto a = keep_rows(random_csr(300, 200, 0.05, 71),
                             [](Index r) { return r < 100 || r >= 140; });
    const auto b = keep_rows(random_csr(300, 200, 0.05, 72),
                             [](Index r) { return r >= 40 && r < 260; });
    expect_both_contexts_match(a, b);
    expect_both_contexts_match(b, a);
    // Rows 0 and m - 1 alone: the only written rows sit at the ends.
    const auto ends = keep_rows(random_csr(300, 200, 0.05, 73),
                                [](Index r) { return r == 0 || r == 299; });
    expect_both_contexts_match(a, ends);
    expect_both_contexts_match(ends, a);
}

TEST_F(EwiseRunnerCut, AllEmptyPartner) {
    const auto a = random_csr(400, 300, 0.04, 74);
    const CsrMatrix none{400, 300};
    expect_both_contexts_match(a, none);
    expect_both_contexts_match(none, a);
    expect_both_contexts_match(none, none);
}

TEST(EwiseRunnerSplit, RunCrossesAParallelChunkCut) {
    backend::Context par{backend::Policy::Parallel, 4};
    const Index m = 4096;
    // Balanced operands (neither is delta-sized, so the op splits), with b
    // empty over the middle half: the cut at half the staged room falls
    // inside that run of a's rows, and so does at least one cut for any
    // chunk count of two or more.
    const auto a = random_csr(m, 64, 0.2, 75);
    const auto b =
        keep_rows(random_csr(m, 64, 0.2, 76), [](Index r) { return r < 1024 || r >= 3072; });
    const Index* a_off = a.row_offsets().data();
    const Index* b_off = b.row_offsets().data();
    const auto cap = [&](Index i) {
        return std::uint64_t{a_off[i + 1] - a_off[i]} + (b_off[i + 1] - b_off[i]);
    };
    const std::uint64_t cap_sum = a.nnz() + b.nnz();
    const std::size_t n_chunks =
        ops::ewise_run_chunks(par, m, cap_sum, std::min(a.nnz(), b.nnz()));
    ASSERT_GE(n_chunks, 2u);
    std::vector<Index> first(n_chunks + 1);
    std::vector<std::uint64_t> base(n_chunks + 1);
    ops::lean_cuts(m, cap_sum, n_chunks, cap, first.data(), base.data());
    EXPECT_TRUE(std::any_of(first.begin() + 1, first.end() - 1,
                            [](Index cut) { return cut > 1024 && cut < 3072; }))
        << "no chunk cut falls inside the run";
    expect_all_ops_match(par, a, b);
    expect_all_ops_match(par, b, a);
    EXPECT_EQ(par.tracker().current_bytes(), 0u) << par.tracker().leak_report();
}

TEST(EwiseRunnerSplit, ParallelOpSplitsIntoChunksAndMatches) {
    // A 4-worker context of its own, so the op splits whatever the host's
    // core count.
    backend::Context par{backend::Policy::Parallel, 4};
    const auto a = random_csr(4096, 64, 0.2, 69);
    const auto b = random_csr(4096, 64, 0.2, 70);
    const std::uint64_t add_cap = a.nnz() + b.nnz();
    ASSERT_GE(ops::ewise_chunk_count(par, a.nrows(), add_cap), 2u);
    ASSERT_GE(ops::ewise_chunk_count(par, a.nrows(), a.nnz()), 2u);
    expect_all_ops_match(par, a, b);
    EXPECT_EQ(par.tracker().current_bytes(), 0u) << par.tracker().leak_report();
}

}  // namespace
}  // namespace spbla
