#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "ops/ewise_add.hpp"
#include "ops/ewise_mult.hpp"
#include "ops/kronecker.hpp"
#include "ops/masked.hpp"
#include "ops/spgemm.hpp"
#include "ops/mxv.hpp"
#include "ops/reduce.hpp"
#include "ops/submatrix.hpp"
#include "ops/transpose.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::random_csr;
using testing::seq_ctx;

// Op suites run on the shared contexts; CheckedContext asserts the
// MemoryTracker leak report is clean after every test.
using Transpose = ::spbla::testing::CheckedContext;
using Submatrix = ::spbla::testing::CheckedContext;
using Kronecker = ::spbla::testing::CheckedContext;
using Reduce = ::spbla::testing::CheckedContext;
using Mxv = ::spbla::testing::CheckedContext;
using Vxm = ::spbla::testing::CheckedContext;
using MxvVxm = ::spbla::testing::CheckedContext;
using MaskedMultiply = ::spbla::testing::CheckedContext;
using Structural = ::spbla::testing::CheckedContext;

// ------------------------------- kronecker -------------------------------

TEST_F(Kronecker, SmallManualCase) {
    const auto a = CsrMatrix::from_coords(2, 2, {{0, 1}});
    const auto b = CsrMatrix::from_coords(2, 2, {{1, 0}});
    const auto k = ops::kronecker(ctx(), a, b);
    EXPECT_EQ(k.nrows(), 4u);
    EXPECT_EQ(k.ncols(), 4u);
    EXPECT_EQ(k.to_coords(), (std::vector<Coord>{{1, 2}}));
}

TEST_F(Kronecker, WithEmptyOperandIsEmpty) {
    const auto a = random_csr(4, 4, 0.5, 1);
    const CsrMatrix empty{3, 3};
    EXPECT_EQ(ops::kronecker(ctx(), a, empty).nnz(), 0u);
    EXPECT_EQ(ops::kronecker(ctx(), empty, a).nnz(), 0u);
}

TEST_F(Kronecker, NnzIsProductOfNnz) {
    const auto a = random_csr(6, 7, 0.3, 2);
    const auto b = random_csr(5, 4, 0.3, 3);
    const auto k = ops::kronecker(ctx(), a, b);
    EXPECT_EQ(k.nnz(), a.nnz() * b.nnz());
}

TEST_F(Kronecker, IdentityTimesIdentity) {
    const auto k = ops::kronecker(ctx(), CsrMatrix::identity(3), CsrMatrix::identity(4));
    EXPECT_EQ(k, CsrMatrix::identity(12));
}

TEST_F(Kronecker, MixedProductProperty) {
    // (A (x) B) * (C (x) D) == (A*C) (x) (B*D) over the Boolean semiring.
    const auto a = random_csr(5, 6, 0.3, 4);
    const auto b = random_csr(3, 4, 0.3, 5);
    const auto c = random_csr(6, 5, 0.3, 6);
    const auto d = random_csr(4, 3, 0.3, 7);
    const auto lhs = to_dense(ops::kronecker(ctx(), a, b))
                         .multiply(to_dense(ops::kronecker(ctx(), c, d)));
    const auto rhs_ac = to_dense(a).multiply(to_dense(c));
    const auto rhs_bd = to_dense(b).multiply(to_dense(d));
    EXPECT_EQ(lhs, to_dense(ops::kronecker(ctx(), to_csr(rhs_ac), to_csr(rhs_bd))));
}

class KroneckerSweep
    : public ::spbla::testing::CheckedContextWithParam<std::tuple<Index, Index, double>> {};

TEST_P(KroneckerSweep, MatchesDenseReference) {
    const auto [ar, br, density] = GetParam();
    const auto a = random_csr(ar, ar + 1, density, 10 + ar);
    const auto b = random_csr(br, br + 2, density, 20 + br);
    const auto got = ops::kronecker(ctx(), a, b);
    got.validate();
    EXPECT_EQ(got, to_csr(to_dense(a).kronecker(to_dense(b))));
}

INSTANTIATE_TEST_SUITE_P(Cases, KroneckerSweep,
                         ::testing::Combine(::testing::Values(1, 3, 8, 16),
                                            ::testing::Values(1, 4, 9),
                                            ::testing::Values(0.2, 0.6)));

TEST_F(Kronecker, SumMatchesFoldOnBothBackends) {
    // NFA-shaped automata (several targets per state) whose terms share
    // blocks, over B factors large enough to span many launch chunks.
    std::vector<CsrMatrix> as, bs;
    for (std::uint64_t t = 0; t < 4; ++t) {
        as.push_back(random_csr(6, 6, 0.35, 60 + t));
        bs.push_back(random_csr(300, 170, t == 3 ? 0.0 : 0.02, 70 + t));
    }
    as.push_back(as.front());  // a fifth term on exactly the blocks of the first
    bs.push_back(random_csr(300, 170, 0.02, 75));
    std::vector<ops::KroneckerTerm> terms;
    CsrMatrix fold{6 * 300, 6 * 170};
    for (std::size_t t = 0; t < as.size(); ++t) {
        terms.push_back({&as[t], &bs[t]});
        fold = ops::ewise_add(ctx(), fold, ops::kronecker(ctx(), as[t], bs[t]));
    }
    const auto par = ops::kronecker_sum(ctx(), terms);
    par.validate();
    EXPECT_EQ(par, fold);
    EXPECT_EQ(ops::kronecker_sum(seq_ctx(), terms), fold);
}

TEST_F(Kronecker, SumOfNoTermsIsRejected) {
    try {
        (void)ops::kronecker_sum(ctx(), {});
        FAIL() << "an empty Kronecker sum has no shape to return";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::InvalidArgument);
    }
}

// ------------------------------- transpose -------------------------------

TEST_F(Transpose, SmallManualCase) {
    const auto m = CsrMatrix::from_coords(2, 3, {{0, 2}, {1, 0}});
    const auto t = ops::transpose(ctx(), m);
    EXPECT_EQ(t.nrows(), 3u);
    EXPECT_EQ(t.ncols(), 2u);
    EXPECT_EQ(t.to_coords(), (std::vector<Coord>{{0, 1}, {2, 0}}));
}

TEST_F(Transpose, InvolutionProperty) {
    const auto m = random_csr(31, 47, 0.1, 30);
    EXPECT_EQ(ops::transpose(ctx(), ops::transpose(ctx(), m)), m);
}

TEST_F(Transpose, EmptyMatrix) {
    const CsrMatrix m{5, 3};
    const auto t = ops::transpose(ctx(), m);
    EXPECT_EQ(t.nrows(), 3u);
    EXPECT_EQ(t.nnz(), 0u);
}

TEST_F(Transpose, MatchesDenseReference) {
    const auto m = random_csr(60, 40, 0.15, 31);
    const auto t = ops::transpose(ctx(), m);
    t.validate();
    EXPECT_EQ(t, to_csr(to_dense(m).transpose()));
}

// ------------------------------- submatrix -------------------------------

TEST_F(Submatrix, FullWindowIsIdentityOp) {
    const auto m = random_csr(20, 30, 0.2, 40);
    EXPECT_EQ(ops::submatrix(ctx(), m, 0, 0, 20, 30), m);
}

TEST_F(Submatrix, WindowBeyondShapeThrows) {
    const auto m = random_csr(10, 10, 0.2, 41);
    EXPECT_THROW((void)ops::submatrix(ctx(), m, 5, 5, 6, 5), Error);
    EXPECT_THROW((void)ops::submatrix(ctx(), m, 5, 5, 5, 6), Error);
}

TEST_F(Submatrix, EmptyWindow) {
    const auto m = random_csr(10, 10, 0.3, 42);
    const auto s = ops::submatrix(ctx(), m, 3, 3, 0, 0);
    EXPECT_EQ(s.nrows(), 0u);
    EXPECT_EQ(s.nnz(), 0u);
}

TEST_F(Submatrix, RebasesIndices) {
    const auto m = CsrMatrix::from_coords(4, 4, {{2, 3}, {3, 2}});
    const auto s = ops::submatrix(ctx(), m, 2, 2, 2, 2);
    EXPECT_EQ(s.to_coords(), (std::vector<Coord>{{0, 1}, {1, 0}}));
}

class SubmatrixSweep
    : public ::spbla::testing::CheckedContextWithParam<std::tuple<Index, Index, Index, Index>> {};

TEST_P(SubmatrixSweep, MatchesDenseReference) {
    const auto [r0, c0, h, w] = GetParam();
    const auto m = random_csr(32, 32, 0.2, 43);
    const auto s = ops::submatrix(ctx(), m, r0, c0, h, w);
    s.validate();
    EXPECT_EQ(s, to_csr(to_dense(m).submatrix(r0, c0, h, w)));
}

INSTANTIATE_TEST_SUITE_P(Cases, SubmatrixSweep,
                         ::testing::Values(std::tuple{0u, 0u, 16u, 16u},
                                           std::tuple{16u, 16u, 16u, 16u},
                                           std::tuple{5u, 9u, 20u, 13u},
                                           std::tuple{31u, 0u, 1u, 32u},
                                           std::tuple{0u, 31u, 32u, 1u}));

// -------------------------------- reduce ---------------------------------

TEST_F(Reduce, ToColumnMarksNonEmptyRows) {
    const auto m = CsrMatrix::from_coords(4, 4, {{0, 1}, {2, 2}, {2, 3}});
    const auto v = ops::reduce_to_column(ctx(), m);
    EXPECT_EQ(v, SpVector::from_indices(4, {0, 2}));
}

TEST_F(Reduce, ToRowMarksNonEmptyColumns) {
    const auto m = CsrMatrix::from_coords(4, 4, {{0, 1}, {2, 2}, {3, 1}});
    const auto v = ops::reduce_to_row(ctx(), m);
    EXPECT_EQ(v, SpVector::from_indices(4, {1, 2}));
}

TEST_F(Reduce, RowColumnDuality) {
    const auto m = random_csr(25, 35, 0.1, 44);
    EXPECT_EQ(ops::reduce_to_row(ctx(), m),
              ops::reduce_to_column(ctx(), ops::transpose(ctx(), m)));
}

TEST_F(Reduce, ScalarIsNnz) {
    const auto m = random_csr(10, 10, 0.4, 45);
    EXPECT_EQ(ops::reduce_scalar(m), m.nnz());
}

// ------------------------------- mxv / vxm -------------------------------

TEST_F(Mxv, SelectsRowsHittingFrontier) {
    const auto m = CsrMatrix::from_coords(3, 3, {{0, 1}, {2, 0}});
    const auto x = SpVector::from_indices(3, {1});
    // Row 0 contains column 1 -> hit; rows 1, 2 do not.
    EXPECT_EQ(ops::mxv(ctx(), m, x), SpVector::from_indices(3, {0}));
}

TEST_F(Vxm, PushesFrontierAlongEdges) {
    const auto m = CsrMatrix::from_coords(3, 3, {{0, 1}, {1, 2}});
    const auto x = SpVector::from_indices(3, {0});
    EXPECT_EQ(ops::vxm(ctx(), x, m), SpVector::from_indices(3, {1}));
}

TEST_F(MxvVxm, ShapeMismatchThrows) {
    const CsrMatrix m{3, 4};
    const auto bad = SpVector::from_indices(3, {0});
    EXPECT_THROW((void)ops::mxv(ctx(), m, bad), Error);
    const auto bad2 = SpVector::from_indices(4, {0});
    EXPECT_THROW((void)ops::vxm(ctx(), bad2, m), Error);
}

TEST_F(MxvVxm, AgreeWithDenseSemantics) {
    const auto m = random_csr(30, 30, 0.1, 46);
    const auto x = SpVector::from_indices(30, {1, 5, 7, 20, 29});
    const auto y = ops::mxv(ctx(), m, x);
    const auto d = to_dense(m);
    for (Index i = 0; i < 30; ++i) {
        bool expect = false;
        for (const auto j : x.indices()) expect = expect || d.get(i, j);
        EXPECT_EQ(y.get(i), expect) << "row " << i;
    }
    const auto z = ops::vxm(ctx(), x, m);
    for (Index j = 0; j < 30; ++j) {
        bool expect = false;
        for (const auto i : x.indices()) expect = expect || d.get(i, j);
        EXPECT_EQ(z.get(j), expect) << "col " << j;
    }
}

TEST_F(MxvVxm, VxmEqualsMxvOnTranspose) {
    const auto m = random_csr(40, 40, 0.08, 47);
    const auto x = SpVector::from_indices(40, {0, 3, 9, 33});
    EXPECT_EQ(ops::vxm(ctx(), x, m), ops::mxv(ctx(), ops::transpose(ctx(), m), x));
}

// ---------------------------- masked multiply ----------------------------

TEST_F(MaskedMultiply, EqualsMultiplyThenFilter) {
    for (const auto seed : {70, 71, 72}) {
        const auto a = random_csr(30, 30, 0.12, seed);
        const auto b = random_csr(30, 30, 0.12, seed + 5);
        const auto mask = random_csr(30, 30, 0.25, seed + 9);
        const auto bt = ops::transpose(ctx(), b);
        const auto masked = ops::multiply_masked(ctx(), mask, a, bt);
        const auto filtered =
            ops::ewise_mult(ctx(), ops::multiply(ctx(), a, b), mask);
        EXPECT_EQ(masked, filtered) << seed;
    }
}

TEST_F(MaskedMultiply, ComplementEqualsMultiplyThenSubtract) {
    const auto a = random_csr(25, 25, 0.15, 80);
    const auto b = random_csr(25, 25, 0.15, 81);
    const auto mask = random_csr(25, 25, 0.3, 82);
    const auto bt = ops::transpose(ctx(), b);
    const auto masked = ops::multiply_masked(ctx(), mask, a, bt, /*complement=*/true);
    const auto expected = ops::ewise_diff(ctx(), ops::multiply(ctx(), a, b), mask);
    EXPECT_EQ(masked, expected);
}

TEST_F(MaskedMultiply, EmptyMaskGivesEmptyResult) {
    const auto a = random_csr(10, 10, 0.4, 83);
    const auto bt = ops::transpose(ctx(), a);
    EXPECT_EQ(ops::multiply_masked(ctx(), CsrMatrix{10, 10}, a, bt).nnz(), 0u);
}

TEST_F(MaskedMultiply, ShapeChecks) {
    const CsrMatrix a{3, 4}, bt{5, 4}, bad_mask{3, 4};
    EXPECT_THROW((void)ops::multiply_masked(ctx(), bad_mask, a, bt), Error);
    const CsrMatrix mask{3, 5};
    EXPECT_NO_THROW((void)ops::multiply_masked(ctx(), mask, a, bt));
}

TEST_F(MaskedMultiply, TriangleEdgeIdiom) {
    // C<A> = A x A over a symmetric adjacency marks edges on triangles.
    const auto adj = CsrMatrix::from_coords(
        4, 4, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}, {2, 3}, {3, 2}});
    const auto on_triangle = ops::multiply_masked(ctx(), adj, adj, adj);
    EXPECT_TRUE(on_triangle.get(0, 1));
    EXPECT_TRUE(on_triangle.get(1, 2));
    EXPECT_TRUE(on_triangle.get(0, 2));
    EXPECT_FALSE(on_triangle.get(2, 3));  // the pendant edge
}

TEST_F(Structural, SequentialBackendAgreesEverywhere) {
    const auto a = random_csr(24, 24, 0.15, 48);
    const auto b = random_csr(4, 4, 0.4, 49);
    EXPECT_EQ(ops::kronecker(ctx(), b, a), ops::kronecker(seq_ctx(), b, a));
    EXPECT_EQ(ops::transpose(ctx(), a), ops::transpose(seq_ctx(), a));
    EXPECT_EQ(ops::submatrix(ctx(), a, 2, 2, 10, 10),
              ops::submatrix(seq_ctx(), a, 2, 2, 10, 10));
}

}  // namespace
}  // namespace spbla
