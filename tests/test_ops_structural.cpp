#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "ops/ewise_add.hpp"
#include "ops/ewise_mult.hpp"
#include "ops/kronecker.hpp"
#include "ops/masked.hpp"
#include "ops/spgemm.hpp"
#include "ops/spgemm_plan.hpp"
#include "ops/mxv.hpp"
#include "ops/product_within.hpp"
#include "ops/reduce.hpp"
#include "ops/submatrix.hpp"
#include "ops/transpose.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::keep_rows;
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
using FoldBlocks = ::spbla::testing::CheckedContext;
using ProductWithin = ::spbla::testing::CheckedContext;

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

// ------------------------- kronecker_sum row cuts -------------------------

/// The terms A_t (x) B_t of as[t] and bs[t].
[[nodiscard]] std::vector<ops::KroneckerTerm> kron_terms(const std::vector<CsrMatrix>& as,
                                                         const std::vector<CsrMatrix>& bs) {
    std::vector<ops::KroneckerTerm> terms;
    for (std::size_t t = 0; t < as.size(); ++t) terms.push_back({&as[t], &bs[t]});
    return terms;
}

/// kronecker_sum of the terms on \p c against the fold of
/// ewise_add(kronecker(A_t, B_t)) and against the dense reference; the
/// tracker must be back at its starting charge.
void expect_sum_matches(backend::Context& c, const std::vector<CsrMatrix>& as,
                        const std::vector<CsrMatrix>& bs) {
    const std::size_t before = c.tracker().current_bytes();
    const auto terms = kron_terms(as, bs);
    const Index m = as[0].nrows() * bs[0].nrows();
    const Index n = as[0].ncols() * bs[0].ncols();
    CsrMatrix fold{m, n};
    DenseMatrix dense{m, n};
    for (std::size_t t = 0; t < as.size(); ++t) {
        fold = ops::ewise_add(c, fold, ops::kronecker(c, as[t], bs[t]));
        dense = dense.ewise_or(to_dense(as[t]).kronecker(to_dense(bs[t])));
    }
    const CsrMatrix got = ops::kronecker_sum(c, terms);
    got.validate();
    EXPECT_EQ(got, fold);
    EXPECT_EQ(got, to_csr(dense));
    EXPECT_EQ(c.tracker().current_bytes(), before) << c.tracker().leak_report();
}

void expect_sum_matches_on_both(const std::vector<CsrMatrix>& as,
                                const std::vector<CsrMatrix>& bs) {
    {
        SCOPED_TRACE("parallel context");
        expect_sum_matches(ctx(), as, bs);
    }
    {
        SCOPED_TRACE("sequential context");
        expect_sum_matches(seq_ctx(), as, bs);
    }
}

using KroneckerCut = ::spbla::testing::CheckedContext;

TEST_F(KroneckerCut, RowsWithZeroOneAndSeveralBlocks) {
    // A-row 0 has no block, row 1 one block, row 2 three blocks from two
    // terms, row 3 one block of the second term, row 4 none.
    const std::vector<CsrMatrix> as = {
        CsrMatrix::from_coords(5, 4, {{1, 2}, {2, 0}, {2, 3}}),
        CsrMatrix::from_coords(5, 4, {{2, 1}, {3, 3}}),
    };
    const std::vector<CsrMatrix> bs = {random_csr(40, 30, 0.1, 80), random_csr(40, 30, 0.1, 81)};
    expect_sum_matches_on_both(as, bs);
}

TEST_F(KroneckerCut, BlocksSharedByTwoAndThreeTerms) {
    // Block (0, 1) is set in terms 0 and 1, block (1, 2) in all three, and
    // block (2, 0) in term 2 alone.
    const std::vector<CsrMatrix> as = {
        CsrMatrix::from_coords(3, 3, {{0, 1}, {1, 2}}),
        CsrMatrix::from_coords(3, 3, {{0, 1}, {1, 2}}),
        CsrMatrix::from_coords(3, 3, {{1, 2}, {2, 0}}),
    };
    {
        SCOPED_TRACE("overlapping B rows");
        const auto b0 = random_csr(60, 50, 0.1, 82);
        const std::vector<CsrMatrix> bs = {
            b0, ops::ewise_add(ctx(), b0, random_csr(60, 50, 0.05, 83)),
            random_csr(60, 50, 0.1, 84)};
        expect_sum_matches_on_both(as, bs);
    }
    {
        SCOPED_TRACE("disjoint B rows");
        const std::vector<CsrMatrix> bs = {
            keep_rows(random_csr(60, 50, 0.1, 85), [](Index r) { return r % 3 == 0; }),
            keep_rows(random_csr(60, 50, 0.1, 86), [](Index r) { return r % 3 == 1; }),
            keep_rows(random_csr(60, 50, 0.1, 87), [](Index r) { return r % 3 == 2; })};
        expect_sum_matches_on_both(as, bs);
    }
}

TEST_F(KroneckerCut, TwoBlocksWithTheSameTermSet) {
    // Blocks (0, 1), (0, 3) and (2, 3) all read the union of B_0 and B_1.
    const auto a = CsrMatrix::from_coords(3, 4, {{0, 1}, {0, 3}, {2, 3}});
    const std::vector<CsrMatrix> as = {a, a};
    const std::vector<CsrMatrix> bs = {random_csr(70, 40, 0.08, 88), random_csr(70, 40, 0.08, 89)};
    expect_sum_matches_on_both(as, bs);
    // Equal B factors in two objects, and one B object in both terms.
    expect_sum_matches_on_both(as, {bs[0], bs[0]});
    const std::vector<ops::KroneckerTerm> one_b = {{&as[0], &bs[0]}, {&as[1], &bs[0]}};
    EXPECT_EQ(ops::kronecker_sum(ctx(), one_b), ops::kronecker(ctx(), a, bs[0]));
    EXPECT_EQ(ops::kronecker_sum(seq_ctx(), one_b), ops::kronecker(seq_ctx(), a, bs[0]));
}

TEST_F(KroneckerCut, EmptyFactors) {
    const auto a = random_csr(4, 5, 0.4, 90);
    const auto b = random_csr(30, 20, 0.1, 91);
    {
        SCOPED_TRACE("an empty B factor");
        expect_sum_matches_on_both({a, a}, {b, CsrMatrix{30, 20}});
    }
    {
        SCOPED_TRACE("an empty A factor");
        expect_sum_matches_on_both({CsrMatrix{4, 5}, a}, {b, random_csr(30, 20, 0.1, 92)});
    }
    {
        SCOPED_TRACE("every factor empty");
        expect_sum_matches_on_both({CsrMatrix{4, 5}}, {CsrMatrix{30, 20}});
        EXPECT_EQ(ops::kronecker_sum(ctx(), kron_terms({a}, {CsrMatrix{30, 20}})),
                  (CsrMatrix{120, 100}));
    }
}

TEST_F(KroneckerCut, NonSquareFactorsAndOneRowB) {
    const std::vector<CsrMatrix> as = {random_csr(3, 7, 0.4, 93), random_csr(3, 7, 0.4, 94)};
    expect_sum_matches_on_both(as, {random_csr(25, 9, 0.2, 95), random_csr(25, 9, 0.2, 96)});
    expect_sum_matches_on_both(as, {random_csr(1, 50, 0.3, 97), random_csr(1, 50, 0.3, 98)});
    expect_sum_matches_on_both(as, {CsrMatrix::identity(1), CsrMatrix::identity(1)});
}

TEST(KroneckerCutSplit, ChunkCutsFallInsideAnARow) {
    // A 4-worker context of its own, so the op splits whatever the host's
    // core count.
    backend::Context par{backend::Policy::Parallel, 4};
    const Index b_rows = 301;
    const std::vector<CsrMatrix> as = {random_csr(8, 8, 0.3, 99), random_csr(8, 8, 0.3, 100),
                                       random_csr(8, 8, 0.3, 101)};
    const std::vector<CsrMatrix> bs = {random_csr(b_rows, 200, 0.05, 102),
                                       random_csr(b_rows, 200, 0.05, 103),
                                       random_csr(b_rows, 200, 0.05, 104)};
    const CsrMatrix got = ops::kronecker_sum(par, kron_terms(as, bs));
    // The kernel cuts its m rows into lean_chunk_count equal chunks.
    const Index m = 8 * b_rows;
    const std::size_t n_chunks = ops::lean_chunk_count(4, m, 0, got.nnz());
    ASSERT_GE(n_chunks, 2u);
    const std::size_t grain = (m + n_chunks - 1) / n_chunks;
    bool inside = false;
    for (std::size_t cut = grain; cut < m; cut += grain) inside = inside || cut % b_rows != 0;
    EXPECT_TRUE(inside) << "no chunk cut falls inside an A-row";
    expect_sum_matches(par, as, bs);
    EXPECT_EQ(par.tracker().current_bytes(), 0u) << par.tracker().leak_report();
}

TEST_F(KroneckerCut, NnzOverflowIsRejectedBeforeTheOutputIsAllocated) {
    // 256 terms on disjoint A-cells: each holds 4095 * 512^2 < 2^32 cells,
    // and together 2^38, a TiB of column indices. An attempt to allocate the
    // output would surface as std::bad_alloc, not as OutOfRange.
    DenseMatrix full{512, 512};
    for (Index r = 0; r < 512; ++r) {
        for (Index c = 0; c < 512; ++c) full.set(r, c);
    }
    const CsrMatrix b = to_csr(full);
    ASSERT_EQ(b.nnz(), 512u * 512u);
    std::vector<CsrMatrix> as;
    for (Index t = 0; t < 256; ++t) {
        std::vector<Coord> cells;
        for (Index j = t * 4096; j < t * 4096 + 4095; ++j) cells.push_back({j / 1024, j % 1024});
        as.push_back(CsrMatrix::from_coords(1024, 1024, std::move(cells)));
    }
    const std::vector<CsrMatrix> bs(as.size(), b);
    const auto terms = kron_terms(as, bs);
    for (backend::Context* c : {&ctx(), &seq_ctx()}) {
        const std::size_t before = c->tracker().current_bytes();
        try {
            (void)ops::kronecker_sum(*c, terms);
            FAIL() << "a Kronecker sum past 2^32 cells must be rejected";
        } catch (const Error& e) {
            EXPECT_EQ(e.status(), Status::OutOfRange);
        }
        EXPECT_EQ(c->tracker().current_bytes(), before);
    }
    // One term alone past 2^32 cells: 2^18 * 2^18.
    try {
        (void)ops::kronecker(ctx(), b, b);
        FAIL() << "a Kronecker product past 2^32 cells must be rejected";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::OutOfRange);
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

// ------------------------------ fold_blocks ------------------------------

/// The fold built from the ops it replaces: one submatrix per block, OR'd
/// by ewise_add, the identity added and the minus taken away.
CsrMatrix fold_by_ops(backend::Context& cx, const CsrMatrix& src, Index row0,
                      const std::vector<Index>& col0s, Index n, bool with_identity,
                      const CsrMatrix* minus) {
    CsrMatrix out{n, n};
    for (const Index c0 : col0s) {
        out = ops::ewise_add(cx, out, ops::submatrix(cx, src, row0, c0, n, n));
    }
    if (with_identity) out = ops::ewise_add(cx, out, CsrMatrix::identity(n));
    return minus != nullptr ? ops::ewise_diff(cx, out, *minus) : out;
}

/// The same fold cell by cell on dense matrices.
CsrMatrix fold_dense(const CsrMatrix& src, Index row0, const std::vector<Index>& col0s,
                     Index n, bool with_identity, const CsrMatrix* minus) {
    const DenseMatrix d = to_dense(src);
    DenseMatrix out{n, n};
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < n; ++j) {
            bool set = with_identity && i == j;
            for (const Index c0 : col0s) set = set || d.get(row0 + i, c0 + j);
            if (set && (minus == nullptr || !minus->get(i, j))) out.set(i, j);
        }
    }
    return to_csr(out);
}

/// Folds on \p cx against both references.
void expect_fold(backend::Context& cx, const CsrMatrix& src, Index row0,
                 const std::vector<Index>& col0s, Index n, bool with_identity,
                 const CsrMatrix* minus) {
    const CsrMatrix got = ops::fold_blocks(cx, src, row0, col0s, n, n, with_identity, minus);
    got.validate();
    EXPECT_EQ(got, fold_by_ops(cx, src, row0, col0s, n, with_identity, minus));
    EXPECT_EQ(got, fold_dense(src, row0, col0s, n, with_identity, minus));
}

/// Every combination of identity and minus for one source and block list,
/// on both shared contexts.
void expect_fold_cases(const CsrMatrix& src, Index row0, const std::vector<Index>& col0s,
                       Index n) {
    const CsrMatrix minus = random_csr(n, n, 0.3, 60 + col0s.size());
    for (backend::Context* cx : {&ctx(), &seq_ctx()}) {
        for (const bool with_identity : {false, true}) {
            SCOPED_TRACE(::testing::Message() << col0s.size() << " blocks, identity "
                                              << with_identity);
            expect_fold(*cx, src, row0, col0s, n, with_identity, nullptr);
            expect_fold(*cx, src, row0, col0s, n, with_identity, &minus);
        }
    }
}

TEST_F(FoldBlocks, ZeroOneAndSeveralBlocks) {
    // A 4 x 4 block grid of a 40 x 40 matrix, folded from row block 1.
    const auto src = random_csr(40, 40, 0.2, 61);
    expect_fold_cases(src, 10, {}, 10);
    expect_fold_cases(src, 10, {20}, 10);
    expect_fold_cases(src, 10, {0, 30}, 10);
    expect_fold_cases(src, 10, {30, 0, 10, 20}, 10);
}

TEST_F(FoldBlocks, DuplicateBlocksCountOnceAndOverlapsAreRejected) {
    const auto src = random_csr(30, 30, 0.3, 62);
    expect_fold_cases(src, 5, {8, 8}, 10);
    try {
        (void)ops::fold_blocks(ctx(), src, 5, std::vector<Index>{0, 3, 17}, 10, 10, false,
                               nullptr);
        ADD_FAILURE() << "overlapping blocks were accepted";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::InvalidArgument);
    }
}

TEST_F(FoldBlocks, EmptySourceRows) {
    // Every other row of the source is empty, and so is a whole row block.
    const auto src =
        keep_rows(random_csr(48, 48, 0.3, 63), [](Index r) { return r % 2 == 0 && r < 36; });
    expect_fold_cases(src, 0, {0, 12, 24}, 12);
    expect_fold_cases(src, 36, {12, 36}, 12);
    expect_fold_cases(CsrMatrix{24, 24}, 12, {0, 12}, 12);
}

TEST_F(FoldBlocks, BlockBeyondSourceIsOutOfRange) {
    const auto src = random_csr(20, 20, 0.2, 65);
    const std::vector<Index> ok{0, 10};
    const auto status_of = [&](auto&& call) {
        try {
            call();
        } catch (const Error& e) {
            return e.status();
        }
        return Status::Ok;
    };
    EXPECT_EQ(status_of([&] {
                  (void)ops::fold_blocks(ctx(), src, 11, ok, 10, 10, false, nullptr);
              }),
              Status::OutOfRange);
    EXPECT_EQ(status_of([&] {
                  (void)ops::fold_blocks(ctx(), src, 0, std::vector<Index>{0, 11}, 10, 10,
                                         false, nullptr);
              }),
              Status::OutOfRange);
    const CsrMatrix wrong{10, 9};
    EXPECT_EQ(status_of([&] {
                  (void)ops::fold_blocks(ctx(), src, 0, ok, 10, 10, false, &wrong);
              }),
              Status::DimensionMismatch);
    EXPECT_EQ(status_of([&] {
                  (void)ops::fold_blocks(ctx(), src, 0, ok, 10, 9, true, nullptr);
              }),
              Status::DimensionMismatch);
}

TEST(FoldBlocksSplit, ChunkCutsUnderFourWorkers) {
    // A 4-worker context of its own, so the op splits whatever the host's
    // core count.
    backend::Context par{backend::Policy::Parallel, 4};
    const Index n = 3000;
    const auto src = random_csr(2 * n, 3 * n, 0.004, 66);
    const std::vector<Index> col0s{0, 2 * n};
    const auto row_block = src.row_offsets()[2 * n] - src.row_offsets()[n];
    ASSERT_GE(ops::lean_chunk_count(4, n, 0, row_block + n), 2u);
    const auto minus = random_csr(n, n, 0.003, 67);
    for (const bool with_identity : {false, true}) {
        expect_fold(par, src, n, col0s, n, with_identity, nullptr);
        expect_fold(par, src, n, col0s, n, with_identity, &minus);
    }
    EXPECT_EQ(ops::fold_blocks(par, src, n, col0s, n, n, true, &minus),
              ops::fold_blocks(seq_ctx(), src, n, col0s, n, n, true, &minus));
    EXPECT_EQ(par.tracker().current_bytes(), 0u) << par.tracker().leak_report();
}

// ---------------------------- product_within ----------------------------

TEST_F(ProductWithin, HoldsExactlyWhenTheProductIsContained) {
    for (backend::Context* cx : {&ctx(), &seq_ctx()}) {
        for (const std::uint64_t seed : {70u, 71u, 72u}) {
            const auto a = random_csr(30, 20, 0.1, seed);
            const auto b = random_csr(20, 25, 0.1, seed + 10);
            const auto product = ops::multiply(*cx, a, b);
            const auto extra = random_csr(30, 25, 0.1, seed + 20);
            EXPECT_TRUE(ops::product_within(*cx, a, b, product));
            EXPECT_TRUE(ops::product_within(*cx, a, b, ops::ewise_add(*cx, product, extra)));
            if (product.nnz() == 0) continue;
            // Any one product cell taken away, the first or the last
            // included, is seen missing.
            const auto cells = product.to_coords();
            for (const auto& cell : {cells.front(), cells[cells.size() / 2], cells.back()}) {
                const auto hole = CsrMatrix::from_coords(30, 25, {cell});
                EXPECT_FALSE(ops::product_within(*cx, a, b, ops::ewise_diff(*cx, product, hole)));
            }
        }
    }
}

TEST_F(ProductWithin, EmptyOperandsAndShapes) {
    const auto a = random_csr(8, 6, 0.3, 73);
    EXPECT_TRUE(ops::product_within(ctx(), a, CsrMatrix{6, 5}, CsrMatrix{8, 5}));
    EXPECT_TRUE(ops::product_within(ctx(), CsrMatrix{8, 6}, random_csr(6, 5, 0.3, 74),
                                    CsrMatrix{8, 5}));
    EXPECT_THROW((void)ops::product_within(ctx(), a, CsrMatrix{5, 5}, CsrMatrix{8, 5}), Error);
    EXPECT_THROW((void)ops::product_within(ctx(), a, CsrMatrix{6, 5}, CsrMatrix{8, 6}), Error);
}

TEST(ProductWithinSplit, ChunksShareTheStopFlag) {
    backend::Context par{backend::Policy::Parallel, 4};
    const Index n = 4000;
    const auto a = random_csr(n, n, 0.001, 75);
    const auto b = random_csr(n, n, 0.002, 76);
    const auto product = ops::multiply(par, a, b);
    ASSERT_GE(ops::lean_chunk_count(4, n, n, std::uint64_t{a.nnz()} * (b.nnz() / n + 1)), 2u);
    EXPECT_TRUE(ops::product_within(par, a, b, product));
    // A hole in the first row and one in the last: the chunk that meets
    // it stops the others, whichever runs first.
    const auto cells = product.to_coords();
    for (const auto& cell : {cells.front(), cells.back()}) {
        const auto hole = CsrMatrix::from_coords(n, n, {cell});
        EXPECT_FALSE(ops::product_within(par, a, b, ops::ewise_diff(par, product, hole)));
    }
    EXPECT_EQ(par.tracker().current_bytes(), 0u) << par.tracker().leak_report();
}

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
