#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baseline/generic_csr.hpp"
#include "baseline/generic_ewise_add.hpp"
#include "baseline/generic_spgemm.hpp"
#include "helpers.hpp"
#include "ops/ewise_add.hpp"
#include "ops/ewise_mult.hpp"
#include "ops/spgemm.hpp"

namespace spbla::baseline {
namespace {

using testing::ctx;
using testing::random_csr;

TEST(GenericCsr, FromBooleanLiftsOnes) {
    const auto b = random_csr(10, 10, 0.2, 1);
    const auto g = GenericCsr::from_boolean(b);
    EXPECT_EQ(g.nnz(), b.nnz());
    for (const auto v : g.vals()) EXPECT_EQ(v, 1.0f);
    EXPECT_EQ(g.pattern(), b);
}

TEST(GenericCsr, DeviceBytesIncludeValueArray) {
    const auto b = random_csr(10, 10, 0.2, 2);
    const auto g = GenericCsr::from_boolean(b);
    EXPECT_EQ(g.device_bytes(), b.device_bytes() + b.nnz() * sizeof(float));
}

TEST(GenericSpGemm, HashPatternMatchesBooleanKernel) {
    const auto a = random_csr(40, 40, 0.1, 3);
    const auto b = random_csr(40, 40, 0.1, 4);
    const auto generic =
        multiply_hash(ctx(), GenericCsr::from_boolean(a), GenericCsr::from_boolean(b));
    EXPECT_EQ(generic.pattern(), ops::multiply(ctx(), a, b));
}

TEST(GenericSpGemm, EscPatternMatchesBooleanKernel) {
    const auto a = random_csr(40, 40, 0.1, 5);
    const auto b = random_csr(40, 40, 0.1, 6);
    const auto generic =
        multiply_esc(ctx(), GenericCsr::from_boolean(a), GenericCsr::from_boolean(b));
    EXPECT_EQ(generic.pattern(), ops::multiply(ctx(), a, b));
}

TEST(GenericSpGemm, ValuesCountWitnesses) {
    // With all-ones inputs, C(i,j) equals the number of distinct middle
    // vertices — the arithmetic the Boolean kernel gets to skip.
    const auto a = CsrMatrix::from_coords(2, 3, {{0, 0}, {0, 1}, {0, 2}});
    const auto b = CsrMatrix::from_coords(3, 2, {{0, 1}, {1, 1}, {2, 1}});
    const auto c =
        multiply_hash(ctx(), GenericCsr::from_boolean(a), GenericCsr::from_boolean(b));
    ASSERT_EQ(c.nnz(), 1u);
    EXPECT_FLOAT_EQ(c.vals()[0], 3.0f);
}

TEST(GenericSpGemm, HashAndEscAgreeOnValues) {
    struct Case {
        Index m, k, n;
        double da, db;
    };
    // Small rows; rows past the dense crossover cut into several chunks;
    // marker rows over wide B cut into several chunks; a few rows over a
    // wider B, too little work to repay a marker, which sort (col, val)
    // pairs; a heavy row that keeps the hash-map kernel.
    for (const Case c : {Case{30, 30, 30, 0.15, 0.15}, Case{3000, 3000, 3000, 0.003, 0.003},
                         Case{3000, 3000, 20000, 0.003, 0.0003},
                         Case{40, 3000, 30000, 0.002, 0.001}, Case{200, 200, 200, 0.5, 0.5}}) {
        const auto ga = GenericCsr::from_boolean(random_csr(c.m, c.k, c.da, 7));
        const auto gb = GenericCsr::from_boolean(random_csr(c.k, c.n, c.db, 8));
        const auto e = multiply_esc(ctx(), ga, gb);
        for (backend::Context* context : {&testing::seq_ctx(), &ctx()}) {
            const auto h = multiply_hash(*context, ga, gb);
            ASSERT_EQ(h.pattern(), e.pattern()) << c.m << "x" << c.n;
            for (std::size_t k = 0; k < h.nnz(); ++k) {
                ASSERT_FLOAT_EQ(h.vals()[k], e.vals()[k]) << c.m << "x" << c.n;
            }
        }
    }
}

TEST(GenericTwins, AgreeOnDeltaSizedOperands) {
    // The Boolean kernels' row runs and masked bounds walk on a delta: the
    // value-carrying twins take the same paths and must give the same
    // patterns, and the hash twin the expand-sort-compress values.
    const Index n = 2600;
    const auto big = random_csr(n, n, 0.002, 21);
    std::vector<Coord> cells;
    for (Index k = 0; k < 16; ++k) cells.push_back({k * 160 + 3, (k * 389) % n});
    cells.push_back({0, 1});
    cells.push_back({n - 1, n - 2});
    const auto delta = CsrMatrix::from_coords(n, n, std::move(cells));
    const auto g_big = GenericCsr::from_boolean(big);
    const auto g_delta = GenericCsr::from_boolean(delta);
    const auto e = multiply_esc(ctx(), g_big, g_delta);
    for (backend::Context* context : {&testing::seq_ctx(), &ctx()}) {
        const auto h = multiply_hash(*context, g_big, g_delta);
        ASSERT_EQ(h.pattern(), ops::multiply(*context, big, delta));
        ASSERT_EQ(h.pattern(), e.pattern());
        for (std::size_t k = 0; k < h.nnz(); ++k) ASSERT_FLOAT_EQ(h.vals()[k], e.vals()[k]);
        for (const bool delta_first : {false, true}) {
            const auto& x = delta_first ? g_delta : g_big;
            const auto& y = delta_first ? g_big : g_delta;
            const auto sum = ewise_add(*context, x, y);
            ASSERT_EQ(sum.pattern(), ops::ewise_add(*context, x.pattern(), y.pattern()));
            // Values: 2 where the operands share a cell, 1 elsewhere.
            const auto both = ops::ewise_mult(*context, big, delta);
            const auto offsets = sum.row_offsets();
            for (Index i = 0; i < n; ++i) {
                for (Index p = offsets[i]; p < offsets[i + 1]; ++p) {
                    const float want = both.get(i, sum.cols()[p]) ? 2.0f : 1.0f;
                    ASSERT_FLOAT_EQ(sum.vals()[p], want) << i;
                }
            }
        }
    }
}

TEST(GenericSpGemm, ShapeMismatchThrows) {
    const GenericCsr a{3, 4}, b{5, 5};
    EXPECT_THROW((void)multiply_hash(ctx(), a, b), Error);
    EXPECT_THROW((void)multiply_esc(ctx(), a, b), Error);
}

TEST(GenericEwiseAdd, PatternMatchesBooleanKernel) {
    const auto a = random_csr(50, 50, 0.1, 9);
    const auto b = random_csr(50, 50, 0.1, 10);
    const auto g =
        ewise_add(ctx(), GenericCsr::from_boolean(a), GenericCsr::from_boolean(b));
    EXPECT_EQ(g.pattern(), ops::ewise_add(ctx(), a, b));
}

TEST(GenericEwiseAdd, CoincidentValuesSum) {
    const auto a = CsrMatrix::from_coords(1, 2, {{0, 0}});
    const auto g =
        ewise_add(ctx(), GenericCsr::from_boolean(a), GenericCsr::from_boolean(a));
    ASSERT_EQ(g.nnz(), 1u);
    EXPECT_FLOAT_EQ(g.vals()[0], 2.0f);
}

TEST(GenericEwiseAdd, ShapeMismatchThrows) {
    const GenericCsr a{3, 4}, b{4, 4};
    EXPECT_THROW((void)ewise_add(ctx(), a, b), Error);
}

TEST(Baseline, BooleanFormatIsNeverLarger) {
    // The memory claim in its simplest form: for any matrix, the Boolean
    // CSR footprint is bounded by the generic footprint.
    for (const auto seed : {11, 12, 13}) {
        const auto b = random_csr(64, 64, 0.1, seed);
        EXPECT_LE(b.device_bytes(), GenericCsr::from_boolean(b).device_bytes());
    }
}

class GenericSweep : public ::testing::TestWithParam<double> {};

TEST_P(GenericSweep, AllThreeMultipliesAgreeAcrossDensities) {
    const double density = GetParam();
    const auto a = random_csr(48, 48, density, 21);
    const auto b = random_csr(48, 48, density, 22);
    const auto boolean = ops::multiply(ctx(), a, b);
    const auto ga = GenericCsr::from_boolean(a);
    const auto gb = GenericCsr::from_boolean(b);
    EXPECT_EQ(multiply_hash(ctx(), ga, gb).pattern(), boolean);
    EXPECT_EQ(multiply_esc(ctx(), ga, gb).pattern(), boolean);
}

INSTANTIATE_TEST_SUITE_P(Densities, GenericSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.3, 0.6));

}  // namespace
}  // namespace spbla::baseline
