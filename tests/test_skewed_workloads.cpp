/// \file test_skewed_workloads.cpp
/// \brief Correctness of the SpGEMM on skewed inputs.
///
/// Power-law matrices (R-MAT, Zipf) have hub rows whose product rows reach
/// the bitmap class and whose caps overshoot their output many times over.
/// These tests pin the Boolean kernel against the dense reference and the
/// generic (value-carrying) twin on exactly those inputs, across the
/// sequential and parallel policies, plus the structural edge cases (no
/// product at all, a single heavy row, all-bitmap rows, all-sort rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/generic_ewise_add.hpp"
#include "baseline/generic_spgemm.hpp"
#include "data/rmat.hpp"
#include "helpers.hpp"
#include "legacy_spgemm.hpp"
#include "ops/ewise_add.hpp"
#include "ops/spgemm.hpp"
#include "ops/transpose.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::seq_ctx;

// Op suites run on the shared contexts; CheckedContext asserts the
// MemoryTracker leak report is clean after every test.
using SkewedEdgeCases = ::spbla::testing::CheckedContext;

/// Dense reference product.
CsrMatrix reference_multiply(const CsrMatrix& a, const CsrMatrix& b) {
    return to_csr(to_dense(a).multiply(to_dense(b)));
}

/// The generic twin's pattern: lift to floats, multiply, drop values.
CsrMatrix generic_multiply(const CsrMatrix& a, const CsrMatrix& b) {
    const auto ga = baseline::GenericCsr::from_boolean(a);
    const auto gb = baseline::GenericCsr::from_boolean(b);
    return baseline::multiply_hash(testing::ctx(), ga, gb).pattern();
}

CsrMatrix generic_add(const CsrMatrix& a, const CsrMatrix& b) {
    const auto ga = baseline::GenericCsr::from_boolean(a);
    const auto gb = baseline::GenericCsr::from_boolean(b);
    return baseline::ewise_add(testing::ctx(), ga, gb).pattern();
}

class SkewedSpGemm : public ::spbla::testing::CheckedContextWithParam<const char*> {
protected:
    CsrMatrix matrix() const {
        const std::string name = GetParam();
        if (name == "rmat") return data::make_rmat(8, 8, 91).csr();
        if (name == "zipf-mild") return data::make_zipf(300, 300, 10, 0.8, 92).csr();
        if (name == "zipf-512-12") return data::make_zipf(512, 512, 12, 1.0, 99).csr();
        if (name == "zipf-300-14") return data::make_zipf(300, 300, 14, 1.2, 103).csr();
        if (name == "zipf-256-16") return data::make_zipf(256, 256, 16, 1.2, 100).csr();
        return data::make_zipf(256, 256, 16, 1.4, 93).csr();  // "zipf-heavy": hub rows
    }
};

TEST_P(SkewedSpGemm, BothPoliciesMatchDenseAndGeneric) {
    const auto a = matrix();
    const auto expected = reference_multiply(a, a);
    EXPECT_EQ(generic_multiply(a, a), expected);
    const auto par = ops::multiply(ctx(), a, a);
    par.validate();
    EXPECT_EQ(par, expected) << "parallel";
    EXPECT_EQ(ops::multiply(seq_ctx(), a, a), expected) << "sequential";
    const auto fused = to_csr(to_dense(a).ewise_or(to_dense(expected)));
    EXPECT_EQ(ops::multiply_add(ctx(), a, a, a), fused) << "parallel multiply_add";
    EXPECT_EQ(ops::multiply_add(seq_ctx(), a, a, a), fused) << "sequential multiply_add";
}

TEST_P(SkewedSpGemm, FrozenLadderKernelMatchesDense) {
    // The SpGEMM ladder times the library against this kernel; both must
    // give the right answer for the speedup to compare like with like.
    const auto a = matrix();
    EXPECT_EQ(bench::two_pass_static_multiply(a, a), reference_multiply(a, a));
}

TEST_P(SkewedSpGemm, EwiseAddMatchesGenericBaseline) {
    const auto a = matrix();
    const auto at = ops::transpose(ctx(), a);
    const auto expected = generic_add(a, at);
    EXPECT_EQ(ops::ewise_add(ctx(), a, at), expected);
    EXPECT_EQ(ops::ewise_add(seq_ctx(), a, at), expected);
}

INSTANTIATE_TEST_SUITE_P(Inputs, SkewedSpGemm,
                         ::testing::Values("rmat", "zipf-mild", "zipf-heavy", "zipf-512-12",
                                           "zipf-300-14", "zipf-256-16"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

TEST_F(SkewedEdgeCases, NoProductAnywhere) {
    // All-empty operand: every row is an empty run, no row is written.
    const CsrMatrix a{100, 100};
    const auto c = ops::multiply(ctx(), a, a);
    EXPECT_EQ(c.nnz(), 0u);
    EXPECT_EQ(c.nrows(), 100u);
}

TEST_F(SkewedEdgeCases, SingleHeavyRowAmongEmptyOnes) {
    // One full row (a bitmap row), everything else empty: one chunk holds
    // all the work.
    std::vector<Coord> coords;
    for (Index j = 0; j < 512; ++j) coords.push_back({7, j});
    const auto a = CsrMatrix::from_coords(512, 512, coords);
    const CsrMatrix b = data::make_zipf(512, 512, 4, 1.0, 94).csr();
    const auto expected = reference_multiply(a, b);
    EXPECT_EQ(ops::multiply(ctx(), a, b), expected);
    EXPECT_EQ(ops::multiply(seq_ctx(), a, b), expected);
}

TEST_F(SkewedEdgeCases, AllDenseRows) {
    // Near-full operands: every non-empty row is a bitmap row.
    const CsrMatrix a = data::make_uniform(300, 300, 0.6, 95).csr();
    const CsrMatrix b = data::make_uniform(300, 300, 0.6, 96).csr();
    const auto expected = reference_multiply(a, b);
    EXPECT_EQ(ops::multiply(ctx(), a, b), expected);
    EXPECT_EQ(ops::multiply(seq_ctx(), a, b), expected);
}

TEST_F(SkewedEdgeCases, AllTinyRows) {
    // Ultra-sparse operands: every row's product bound is a few columns.
    const auto a = testing::random_csr(400, 400, 0.004, 97);
    const auto b = testing::random_csr(400, 400, 0.004, 98);
    const auto expected = reference_multiply(a, b);
    EXPECT_EQ(ops::multiply(ctx(), a, b), expected);
    EXPECT_EQ(ops::multiply(seq_ctx(), a, b), expected);
}

TEST_F(SkewedEdgeCases, LeavesNoTrackedMemoryBehind) {
    backend::Context local{backend::Policy::Parallel, 2};
    const CsrMatrix a = data::make_zipf(256, 256, 8, 1.0, 101).csr();
    (void)ops::multiply(local, a, a);
    EXPECT_EQ(local.tracker().current_bytes(), 0u);
    EXPECT_GT(local.tracker().peak_bytes(), 0u);
}

TEST_F(SkewedEdgeCases, ZipfGeneratorShapeAndSkew) {
    const CsrMatrix a = data::make_zipf(1000, 1000, 8, 1.2, 102).csr();
    a.validate();
    EXPECT_EQ(a.nrows(), 1000u);
    EXPECT_EQ(a.ncols(), 1000u);
    EXPECT_GT(a.nnz(), 0u);
    // Hub property: the first row dominates a median row by a wide margin.
    EXPECT_GT(a.row_nnz(0), 20 * a.row_nnz(500) + 10);
}

}  // namespace
}  // namespace spbla
