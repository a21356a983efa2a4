#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "ops/ewise_add.hpp"
#include "ops/ewise_mult.hpp"

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

}  // namespace
}  // namespace spbla
