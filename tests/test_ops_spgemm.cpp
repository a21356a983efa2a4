#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hpp"
#include "ops/ewise_add.hpp"
#include "ops/spgemm.hpp"
#include "ops/spgemm_plan.hpp"
#include "spbla/spbla.h"
#include "storage/matrix.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::random_csr;
using testing::seq_ctx;

// Op suites run on the shared contexts; CheckedContext asserts the
// MemoryTracker leak report is clean after every test.
using SpGemm = ::spbla::testing::CheckedContext;

CsrMatrix reference_multiply(const CsrMatrix& a, const CsrMatrix& b) {
    return to_csr(to_dense(a).multiply(to_dense(b)));
}

TEST_F(SpGemm, EmptyTimesEmpty) {
    const CsrMatrix a{3, 4}, b{4, 5};
    const auto c = ops::multiply(ctx(), a, b);
    EXPECT_EQ(c.nrows(), 3u);
    EXPECT_EQ(c.ncols(), 5u);
    EXPECT_EQ(c.nnz(), 0u);
}

TEST_F(SpGemm, DimensionMismatchThrows) {
    const CsrMatrix a{3, 4}, b{5, 5};
    EXPECT_THROW((void)ops::multiply(ctx(), a, b), Error);
}

TEST_F(SpGemm, IdentityIsNeutral) {
    const auto a = random_csr(20, 20, 0.2, 77);
    const auto i = CsrMatrix::identity(20);
    EXPECT_EQ(ops::multiply(ctx(), a, i), a);
    EXPECT_EQ(ops::multiply(ctx(), i, a), a);
}

TEST_F(SpGemm, SingleCellChain) {
    // (0,1) x (1,2) -> (0,2)
    const auto a = CsrMatrix::from_coords(3, 3, {{0, 1}});
    const auto b = CsrMatrix::from_coords(3, 3, {{1, 2}});
    const auto c = ops::multiply(ctx(), a, b);
    EXPECT_EQ(c.to_coords(), (std::vector<Coord>{{0, 2}}));
}

TEST_F(SpGemm, BooleanSaturationNoDuplicates) {
    // Two distinct middle vertices produce the same output cell; the Boolean
    // semiring must collapse them into one.
    const auto a = CsrMatrix::from_coords(2, 3, {{0, 0}, {0, 1}});
    const auto b = CsrMatrix::from_coords(3, 2, {{0, 1}, {1, 1}});
    const auto c = ops::multiply(ctx(), a, b);
    EXPECT_EQ(c.nnz(), 1u);
    EXPECT_TRUE(c.get(0, 1));
}

TEST_F(SpGemm, RectangularShapes) {
    const auto a = random_csr(7, 50, 0.15, 101);
    const auto b = random_csr(50, 13, 0.15, 102);
    EXPECT_EQ(ops::multiply(ctx(), a, b), reference_multiply(a, b));
}

TEST_F(SpGemm, MultiplyAddAccumulates) {
    const auto c0 = random_csr(20, 20, 0.1, 1);
    const auto a = random_csr(20, 20, 0.1, 2);
    const auto b = random_csr(20, 20, 0.1, 3);
    const auto result = ops::multiply_add(ctx(), c0, a, b);
    const auto expected = ops::ewise_add(ctx(), c0, reference_multiply(a, b));
    EXPECT_EQ(result, expected);
}

TEST_F(SpGemm, MultiplyAddShapeCheck) {
    const CsrMatrix c{3, 3}, a{3, 4}, b{4, 4};
    EXPECT_THROW((void)ops::multiply_add(ctx(), c, a, b), Error);
    const CsrMatrix ok{3, 4};
    EXPECT_NO_THROW((void)ops::multiply_add(ctx(), ok, a, b));
}

TEST_F(SpGemm, SequentialAndParallelBackendsAgree) {
    const auto a = random_csr(60, 60, 0.08, 55);
    const auto b = random_csr(60, 60, 0.08, 56);
    EXPECT_EQ(ops::multiply(ctx(), a, b), ops::multiply(seq_ctx(), a, b));
}

TEST_F(SpGemm, DenseRowFallbackProducesSameResult) {
    // A dense row (bipartite hub) exceeds the dense-row threshold.
    std::vector<Coord> coords;
    for (Index j = 0; j < 300; ++j) coords.push_back({0, j});
    const auto a = CsrMatrix::from_coords(2, 300, coords);
    const auto b = random_csr(300, 300, 0.05, 57);

    ops::SpGemmOptions with_binning;
    ops::SpGemmOptions without_binning;
    without_binning.use_binning = false;
    const auto c1 = ops::multiply(ctx(), a, b, with_binning);
    const auto c2 = ops::multiply(ctx(), a, b, without_binning);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(c1, reference_multiply(a, b));
}

TEST_F(SpGemm, TinyRowPathAgrees) {
    ops::SpGemmOptions all_tiny;
    all_tiny.tiny_row_threshold = 0xFFFFFFFFu;  // force the sort-merge path
    const auto a = random_csr(40, 40, 0.1, 58);
    const auto b = random_csr(40, 40, 0.1, 59);
    EXPECT_EQ(ops::multiply(ctx(), a, b, all_tiny), reference_multiply(a, b));
}

TEST_F(SpGemm, HashOnlyPathAgrees) {
    ops::SpGemmOptions hash_only;
    hash_only.tiny_row_threshold = 0;  // no tiny rows
    hash_only.use_binning = false;     // no dense fallback
    const auto a = random_csr(40, 40, 0.1, 60);
    const auto b = random_csr(40, 40, 0.1, 61);
    EXPECT_EQ(ops::multiply(ctx(), a, b, hash_only), reference_multiply(a, b));
}

TEST_F(SpGemm, LoadFactorExtremesAgree) {
    const auto a = random_csr(50, 50, 0.1, 62);
    const auto b = random_csr(50, 50, 0.1, 63);
    for (const double load : {0.1, 0.5, 0.99}) {
        ops::SpGemmOptions opts;
        opts.hash_load_factor = load;
        EXPECT_EQ(ops::multiply(ctx(), a, b, opts), reference_multiply(a, b))
            << "load factor " << load;
    }
}

TEST_F(SpGemm, LeavesNoTrackedMemoryBehind) {
    backend::Context local{backend::Policy::Sequential};
    const auto a = random_csr(30, 30, 0.2, 64);
    const auto b = random_csr(30, 30, 0.2, 65);
    (void)ops::multiply(local, a, b);
    EXPECT_EQ(local.tracker().current_bytes(), 0u);
    EXPECT_GT(local.tracker().peak_bytes(), 0u);
}

// Property sweep: random matrices across shapes and densities must match
// the dense reference on both backends.
struct MultiplyCase {
    Index m, k, n;
    double da, db;
    std::uint64_t seed;
};

class SpGemmSweep : public ::spbla::testing::CheckedContextWithParam<MultiplyCase> {};

TEST_P(SpGemmSweep, MatchesDenseReference) {
    const auto p = GetParam();
    const auto a = random_csr(p.m, p.k, p.da, p.seed);
    const auto b = random_csr(p.k, p.n, p.db, p.seed + 1);
    const auto expected = reference_multiply(a, b);
    const auto got = ops::multiply(ctx(), a, b);
    got.validate();
    EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpGemmSweep,
    ::testing::Values(MultiplyCase{1, 1, 1, 1.0, 1.0, 1},
                      MultiplyCase{10, 10, 10, 0.05, 0.05, 2},
                      MultiplyCase{10, 10, 10, 0.9, 0.9, 3},
                      MultiplyCase{33, 65, 17, 0.1, 0.2, 4},
                      MultiplyCase{100, 100, 100, 0.02, 0.02, 5},
                      MultiplyCase{100, 5, 100, 0.3, 0.3, 6},
                      MultiplyCase{5, 100, 5, 0.3, 0.3, 7},
                      MultiplyCase{128, 128, 128, 0.08, 0.01, 8},
                      MultiplyCase{64, 256, 64, 0.05, 0.05, 9},
                      MultiplyCase{50, 50, 50, 0.5, 0.5, 10}));


// ---------------------------------------------------------------------------
// Lean one-pass path: differential cases on both sides of its cut and for
// each of its row classes
// ---------------------------------------------------------------------------

/// Rows given as explicit column lists (one vector per row).
CsrMatrix rows_csr(Index ncols, const std::vector<std::vector<Index>>& rows) {
    std::vector<Coord> coords;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (const Index c : rows[r]) coords.push_back({static_cast<Index>(r), c});
    }
    return CsrMatrix::from_coords(static_cast<Index>(rows.size()), ncols, std::move(coords));
}

/// Random matrix with exactly \p per_row draws in each row (duplicates merge),
/// and every \p empty_every-th row left empty (0 keeps every row).
CsrMatrix per_row_csr(Index nrows, Index ncols, Index per_row, std::uint64_t seed,
                      Index empty_every = 0) {
    util::Rng rng{seed};
    std::vector<Coord> coords;
    for (Index r = 0; r < nrows; ++r) {
        if (empty_every != 0 && r % empty_every == 0) continue;
        for (Index k = 0; k < per_row; ++k) {
            coords.push_back({r, static_cast<Index>(rng.below(ncols))});
        }
    }
    return CsrMatrix::from_coords(nrows, ncols, std::move(coords));
}

/// Checks multiply and multiply_add against the dense reference on the
/// sequential and the parallel context, and that each run hands every
/// tracked byte back.
void expect_matches_dense(const std::string& name, const CsrMatrix& c, const CsrMatrix& a,
                          const CsrMatrix& b) {
    const auto product = to_dense(a).multiply(to_dense(b));
    const CsrMatrix expect_mul = to_csr(product);
    const CsrMatrix expect_fma = to_csr(to_dense(c).ewise_or(product));
    for (backend::Context* context : {&seq_ctx(), &ctx()}) {
        const char* policy =
            context->policy() == backend::Policy::Sequential ? "sequential" : "parallel";
        const auto before = context->tracker().current_bytes();
        {
            const CsrMatrix mul = ops::multiply(*context, a, b);
            mul.validate();
            EXPECT_EQ(mul, expect_mul) << name << ": multiply, " << policy;
            const CsrMatrix fma = ops::multiply_add(*context, c, a, b);
            fma.validate();
            EXPECT_EQ(fma, expect_fma) << name << ": multiply_add, " << policy;
        }
        EXPECT_EQ(context->tracker().current_bytes(), before)
            << name << ": tracker off its baseline, " << policy;
    }
}

TEST_F(SpGemm, LeanPathMatchesDenseAcrossItsCut) {
    const Index threshold = ops::SpGemmOptions{}.hash_large_threshold;
    ASSERT_EQ(threshold, 4096u) << "the cut cases below are sized for 64 x 64";
    // Wide enough that a 4096-bound row stays below the 1/64 dense crossover;
    // the staged output is far below ncols, so lean rows sort instead of
    // filling a marker.
    const Index wide = 300000;
    std::vector<std::vector<Index>> b_rows(65);
    for (Index k = 0; k < 64; ++k) {
        for (Index j = 0; j < 64; ++j) b_rows[k].push_back((k * 37 + j * 61) % 5000);
    }
    b_rows[64] = {wide - 1};
    const CsrMatrix b = rows_csr(wide, b_rows);
    std::vector<Index> first64(64);
    for (Index k = 0; k < 64; ++k) first64[k] = k;
    std::vector<Index> first65 = first64;
    first65.push_back(64);
    // Row 0's bound is exactly the threshold (lean); row 2 has no product
    // term but a non-empty accumulator row.
    const CsrMatrix a_at = rows_csr(65, {first64, {0, 5}, {}, {64}});
    // Row 0's bound is one above the threshold: the op keeps the bins.
    const CsrMatrix a_above = rows_csr(65, {first65, {0, 5}, {}, {64}});
    const CsrMatrix c_wide =
        rows_csr(wide, {{1, 7}, {}, {3, 4999, wide - 2}, {wide - 1}});
    expect_matches_dense("bound at threshold", c_wide, a_at, b);
    expect_matches_dense("bound above threshold", c_wide, a_above, b);

    // Rows past the 1/64 dense crossover (ncols 1024 -> bound >= 16), next to
    // tiny rows.
    expect_matches_dense("dense rows", per_row_csr(300, 1024, 40, 81),
                         per_row_csr(300, 300, 12, 82, 7), per_row_csr(300, 1024, 20, 83));
    // Zero-bound rows whose accumulator row is non-empty.
    expect_matches_dense("zero-bound rows", per_row_csr(400, 700, 9, 84),
                         per_row_csr(400, 400, 3, 85, 2), per_row_csr(400, 700, 5, 86, 3));
    // ncols < 256: the dense class never applies.
    expect_matches_dense("narrow", per_row_csr(120, 120, 6, 87),
                         per_row_csr(120, 90, 12, 88, 5), per_row_csr(90, 120, 12, 89));
    // A row-compacted shape (few rows, wide B): sort rows of every size
    // below the crossover (ncols 30000 -> bound >= 469 is dense) next to
    // dense rows, with no marker.
    std::vector<std::vector<Index>> wide_rows(6);
    for (Index k = 0; k < 6; ++k) {
        for (Index j = 0; j < 100; ++j) wide_rows[k].push_back((k * 7919 + j * 283) % 30000);
    }
    expect_matches_dense("compacted rows", rows_csr(30000, {{5}, {}, {1, 2, 3}, {29999}, {}}),
                         rows_csr(6, {{0}, {0, 1}, {0, 1, 2, 3, 4}, {}, {5, 4, 3, 2, 1, 0}}),
                         rows_csr(30000, wide_rows));
    // Enough work for several row chunks on the parallel context: tiny
    // marker rows, wider marker rows (bound 48 on 20000 columns), then dense
    // rows, each joined after the chunk scan.
    expect_matches_dense("chunked tiny rows", per_row_csr(3000, 20000, 4, 90),
                         per_row_csr(3000, 3000, 4, 91, 11), per_row_csr(3000, 20000, 6, 92));
    expect_matches_dense("chunked marker rows", per_row_csr(3000, 20000, 4, 101),
                         per_row_csr(3000, 3000, 8, 102, 11), per_row_csr(3000, 20000, 6, 103));
    expect_matches_dense("chunked dense rows", per_row_csr(3000, 3000, 5, 93),
                         per_row_csr(3000, 3000, 8, 94, 13), per_row_csr(3000, 3000, 8, 95));

    // Hypersparse B: at most nrows / 64 busy rows take the masked bounds
    // walk, one more keeps the per-row walk. 2600 rows: the limit is 40, and
    // the walk splits at its 1024-row grain on the parallel context. Every
    // row of A also holds column 0, a busy row of each B, so the masked walk
    // maps a hit in every row (row 0 and row n - 1 included) next to the
    // rare random ones.
    const Index n = 2600;
    const Index limit = n / 64;
    std::vector<Coord> a_cells = per_row_csr(n, n, 5, 110).to_coords();
    for (Index i = 0; i < n; ++i) a_cells.push_back({i, 0});
    const CsrMatrix a = CsrMatrix::from_coords(n, n, std::move(a_cells));
    const CsrMatrix c = per_row_csr(n, n, 3, 111, 4);
    for (const Index busy : {Index{1}, limit, limit + 1}) {
        const std::string name = "hypersparse B, " + std::to_string(busy) + " busy rows";
        std::vector<std::vector<Index>> rows(n);
        for (Index k = 0; k < busy; ++k) {
            const Index row = k * (n / busy);  // row 0 first
            rows[row] = {(row * 7) % n, (row * 13 + 5) % n, n - 1};
        }
        const CsrMatrix b = rows_csr(n, rows);
        std::vector<std::uint8_t> mask(n);
        EXPECT_EQ(ops::mark_hypersparse_rows(n, b.row_offsets().data(), mask.data()),
                  busy <= limit)
            << name;
        expect_matches_dense(name, c, a, b);
        // Aliased accumulator: C = A, the closure stream's A | A * delta.
        const auto product = to_dense(a).multiply(to_dense(b));
        const CsrMatrix expect_aliased = to_csr(to_dense(a).ewise_or(product));
        for (backend::Context* context : {&seq_ctx(), &ctx()}) {
            const auto before = context->tracker().current_bytes();
            EXPECT_EQ(ops::multiply_add(*context, a, a, b), expect_aliased) << name;
            EXPECT_EQ(context->tracker().current_bytes(), before) << name;
        }
    }
}

TEST_F(SpGemm, LeanMultiplyAddAliasedSquaring) {
    // multiply_add(m, m, m): the Squaring closure's step, with the output
    // reading its own accumulator.
    for (const auto& [n, per_row, seed] :
         {std::tuple<Index, Index, std::uint64_t>{500, 3, 96}, {4000, 6, 97}}) {
        const CsrMatrix m = per_row_csr(n, n, per_row, seed, 9);
        const auto dense = to_dense(m);
        const CsrMatrix expect = to_csr(dense.ewise_or(dense.multiply(dense)));
        for (backend::Context* context : {&seq_ctx(), &ctx()}) {
            const auto before = context->tracker().current_bytes();
            EXPECT_EQ(ops::multiply_add(*context, m, m, m), expect) << "n = " << n;
            EXPECT_EQ(context->tracker().current_bytes(), before) << "n = " << n;
        }
    }
}

TEST_F(SpGemm, CApiAccumulateMatchesFacadeMultiplyAdd) {
    const CsrMatrix a = per_row_csr(200, 200, 4, 98, 5);
    const CsrMatrix b = per_row_csr(200, 200, 4, 99);
    const CsrMatrix c = per_row_csr(200, 200, 2, 100);
    const auto expect = to_dense(c).ewise_or(to_dense(a).multiply(to_dense(b)));

    Matrix facade{c, ctx()};
    facade.multiply_add(Matrix{a, ctx()}, Matrix{b, ctx()});
    EXPECT_EQ(facade.csr(), to_csr(expect));

    ASSERT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_SUCCESS);
    const auto build = [](const CsrMatrix& m) {
        spbla_Matrix h = nullptr;
        EXPECT_EQ(spbla_Matrix_New(&h, m.nrows(), m.ncols()), SPBLA_STATUS_SUCCESS);
        std::vector<spbla_Index> rows, cols;
        for (const auto& [r, col] : m.to_coords()) {
            rows.push_back(r);
            cols.push_back(col);
        }
        EXPECT_EQ(spbla_Matrix_Build(h, rows.data(), cols.data(),
                                     static_cast<spbla_Index>(rows.size()), SPBLA_HINT_NO),
                  SPBLA_STATUS_SUCCESS);
        return h;
    };
    spbla_Matrix ha = build(a);
    spbla_Matrix hb = build(b);
    spbla_Matrix hc = build(c);
    ASSERT_EQ(spbla_MxM(hc, ha, hb, SPBLA_HINT_ACCUMULATE), SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(hc, &nvals), SPBLA_STATUS_SUCCESS);
    std::vector<spbla_Index> rows(nvals), cols(nvals);
    ASSERT_EQ(spbla_Matrix_ExtractPairs(hc, rows.data(), cols.data(), &nvals),
              SPBLA_STATUS_SUCCESS);
    std::vector<Coord> capi_cells;
    for (spbla_Index k = 0; k < nvals; ++k) capi_cells.push_back({rows[k], cols[k]});
    EXPECT_EQ(capi_cells, facade.to_coords());
    for (spbla_Matrix* h : {&ha, &hb, &hc}) {
        EXPECT_EQ(spbla_Matrix_Free(h), SPBLA_STATUS_SUCCESS);
    }
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
}

}  // namespace
}  // namespace spbla
