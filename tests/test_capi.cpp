#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "capi/handles.hpp"  // white-box: reads handle epochs
#include "spbla/spbla.h"

namespace {

/// RAII library session so every test starts from a clean slate.
class CApiTest : public ::testing::Test {
protected:
    void SetUp() override {
        ASSERT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_SUCCESS);
    }
    void TearDown() override {
        ASSERT_EQ(spbla_GetLiveObjects(), 0u) << "test leaked matrix handles";
        ASSERT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
    }
};

TEST(CApiLifecycle, OperationsFailBeforeInitialize) {
    spbla_Matrix m = nullptr;
    EXPECT_EQ(spbla_Matrix_New(&m, 2, 2), SPBLA_STATUS_NOT_INITIALIZED);
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_NOT_INITIALIZED);
    EXPECT_EQ(spbla_IsInitialized(), 0);
}

TEST(CApiLifecycle, DoubleInitializeRejected) {
    ASSERT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_INVALID_STATE);
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
}

TEST(CApiLifecycle, FinalizeWithLiveObjectsRejected) {
    ASSERT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_SUCCESS);
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 4, 4), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_INVALID_STATE);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(m, nullptr);
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
}

TEST(CApiLifecycle, SequentialHintWorks) {
    ASSERT_EQ(spbla_Initialize(SPBLA_INIT_SEQUENTIAL), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_IsInitialized(), 1);
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
}

TEST(CApiLifecycle, UnknownInitHintIsRejected) {
    // Only 0 (default) and 1 (sequential) are hints; any other value used to
    // initialise a parallel context.
    for (const int raw : {2, 7, -1}) {
        EXPECT_EQ(spbla_Initialize(static_cast<spbla_InitHint>(raw)),
                  SPBLA_STATUS_INVALID_ARGUMENT)
            << raw;
        EXPECT_EQ(spbla_IsInitialized(), 0) << raw;
    }
    ASSERT_EQ(spbla_Initialize(SPBLA_INIT_DEFAULT), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Finalize(), SPBLA_STATUS_SUCCESS);
}

TEST(CApiLifecycle, StatusNamesAndVersion) {
    EXPECT_STREQ(spbla_Status_Name(SPBLA_STATUS_SUCCESS), "SUCCESS");
    EXPECT_STREQ(spbla_Status_Name(SPBLA_STATUS_DIMENSION_MISMATCH),
                 "DIMENSION_MISMATCH");
    EXPECT_GE(spbla_GetVersion(), 10000u);
}

TEST_F(CApiTest, NewQueryFree) {
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 3, 5), SPBLA_STATUS_SUCCESS);
    spbla_Index nrows = 0, ncols = 0, nvals = 99;
    EXPECT_EQ(spbla_Matrix_Nrows(m, &nrows), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Matrix_Ncols(m, &ncols), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Matrix_Nvals(m, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nrows, 3u);
    EXPECT_EQ(ncols, 5u);
    EXPECT_EQ(nvals, 0u);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, BuildAndExtractRoundTrip) {
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 4, 4), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 3> rows{2, 0, 2};
    const std::array<spbla_Index, 3> cols{1, 3, 1};  // duplicate (2,1) merges
    ASSERT_EQ(spbla_Matrix_Build(m, rows.data(), cols.data(), 3, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);

    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(m, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);

    std::array<spbla_Index, 2> out_rows{}, out_cols{};
    spbla_Index cap = 2;
    ASSERT_EQ(spbla_Matrix_ExtractPairs(m, out_rows.data(), out_cols.data(), &cap),
              SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(cap, 2u);
    EXPECT_EQ(out_rows[0], 0u);
    EXPECT_EQ(out_cols[0], 3u);
    EXPECT_EQ(out_rows[1], 2u);
    EXPECT_EQ(out_cols[1], 1u);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, BuildAccumulateHint) {
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 3, 3), SPBLA_STATUS_SUCCESS);
    const spbla_Index r0 = 0, c0 = 0;
    ASSERT_EQ(spbla_Matrix_Build(m, &r0, &c0, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    const spbla_Index r1 = 1, c1 = 1;
    ASSERT_EQ(spbla_Matrix_Build(m, &r1, &c1, 1, SPBLA_HINT_ACCUMULATE),
              SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(m, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, BuildOutOfRangeFails) {
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 2, 2), SPBLA_STATUS_SUCCESS);
    const spbla_Index r = 2, c = 0;
    EXPECT_EQ(spbla_Matrix_Build(m, &r, &c, 1, SPBLA_HINT_NO), SPBLA_STATUS_OUT_OF_RANGE);
    EXPECT_STRNE(spbla_GetLastError(), "");
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, KroneckerShapeOverflowFailsUnderEveryHint) {
    // 65537 * 65536 result rows overflow spbla_Index; under every accepted
    // hint the product must be rejected and the result left untouched.
    spbla_Matrix a = nullptr, b = nullptr, r = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&a, 65537, 1), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&b, 65536, 1), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&r, 1, 1), SPBLA_STATUS_SUCCESS);
    const spbla_Index zero = 0;
    ASSERT_EQ(spbla_Matrix_Build(a, &zero, &zero, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    std::vector<spbla_Index> rows(65536), cols(65536, 0);
    for (spbla_Index i = 0; i < 65536; ++i) rows[i] = i;
    ASSERT_EQ(spbla_Matrix_Build(b, rows.data(), cols.data(), 65536, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);

    for (const spbla_FormatHint hint : {SPBLA_FORMAT_AUTO, SPBLA_FORMAT_CSR}) {
        if (hint != SPBLA_FORMAT_AUTO) {
            ASSERT_EQ(spbla_Matrix_SetFormatHint(a, hint), SPBLA_STATUS_SUCCESS);
            ASSERT_EQ(spbla_Matrix_SetFormatHint(b, hint), SPBLA_STATUS_SUCCESS);
        }
        ASSERT_EQ(spbla_SetFormatHint(hint), SPBLA_STATUS_SUCCESS);
        EXPECT_NE(spbla_Kronecker(r, a, b), SPBLA_STATUS_SUCCESS) << hint;
        ASSERT_EQ(spbla_SetFormatHint(SPBLA_FORMAT_AUTO), SPBLA_STATUS_SUCCESS);
        spbla_Index nrows = 0;
        ASSERT_EQ(spbla_Matrix_Nrows(r, &nrows), SPBLA_STATUS_SUCCESS);
        EXPECT_EQ(nrows, 1u) << "failed kronecker must leave the result untouched";
    }

    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&r), SPBLA_STATUS_SUCCESS);
}

/// Builds a 4x4 matrix holding (0, 1) and (3, 2).
spbla_Matrix two_cell_matrix() {
    spbla_Matrix m = nullptr;
    EXPECT_EQ(spbla_Matrix_New(&m, 4, 4), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> rows{0, 3}, cols{1, 2};
    EXPECT_EQ(spbla_Matrix_Build(m, rows.data(), cols.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);
    return m;
}

/// The cells of \p m, in (row, col) order.
std::vector<std::array<spbla_Index, 2>> cells_of(spbla_Matrix m) {
    spbla_Index nvals = 0;
    EXPECT_EQ(spbla_Matrix_Nvals(m, &nvals), SPBLA_STATUS_SUCCESS);
    std::vector<spbla_Index> rows(nvals), cols(nvals);
    EXPECT_EQ(spbla_Matrix_ExtractPairs(m, rows.data(), cols.data(), &nvals),
              SPBLA_STATUS_SUCCESS);
    std::vector<std::array<spbla_Index, 2>> out;
    for (spbla_Index k = 0; k < nvals; ++k) out.push_back({rows[k], cols[k]});
    return out;
}

TEST_F(CApiTest, CsrFormatHintsChangeNothing) {
    spbla_Matrix m = two_cell_matrix();
    const auto cells = cells_of(m);
    const auto version = m->data.version();

    EXPECT_EQ(spbla_SetFormatHint(SPBLA_FORMAT_AUTO), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_SetFormatHint(SPBLA_FORMAT_CSR), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Matrix_SetFormatHint(m, SPBLA_FORMAT_CSR), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(m->data.version(), version);
    EXPECT_EQ(cells_of(m), cells);
    // AUTO names no format for a single matrix.
    EXPECT_EQ(spbla_Matrix_SetFormatHint(m, SPBLA_FORMAT_AUTO),
              SPBLA_STATUS_INVALID_ARGUMENT);
    EXPECT_EQ(m->data.version(), version);

    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, RetiredFormatValuesAreRejected) {
    // 2, 3 and 4 named the COO, dense and bit-block formats, which are no
    // longer representations: both calls refuse them and change nothing.
    spbla_Matrix m = two_cell_matrix();
    const auto cells = cells_of(m);
    const auto version = m->data.version();

    for (const int raw : {2, 3, 4, 5, -1}) {
        const auto hint = static_cast<spbla_FormatHint>(raw);
        EXPECT_EQ(spbla_SetFormatHint(hint), SPBLA_STATUS_INVALID_ARGUMENT) << raw;
        EXPECT_EQ(spbla_Matrix_SetFormatHint(m, hint), SPBLA_STATUS_INVALID_ARGUMENT)
            << raw;
        EXPECT_EQ(m->data.version(), version) << raw;
        EXPECT_EQ(cells_of(m), cells) << raw;
    }

    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, UnknownOpHintIsRejectedAndLeavesTheResult) {
    // Any spbla_OpHint other than ACCUMULATE used to overwrite the result.
    spbla_Matrix m = two_cell_matrix();
    spbla_Matrix a = two_cell_matrix();
    const auto cells = cells_of(m);
    const auto version = m->data.version();
    const spbla_Index r = 1, c = 1;

    for (const int raw : {2, 7, -1}) {
        const auto hint = static_cast<spbla_OpHint>(raw);
        EXPECT_EQ(spbla_Matrix_Build(m, &r, &c, 1, hint), SPBLA_STATUS_INVALID_ARGUMENT)
            << raw;
        EXPECT_STRNE(spbla_GetLastError(), "") << raw;
        EXPECT_EQ(spbla_MxM(m, a, a, hint), SPBLA_STATUS_INVALID_ARGUMENT) << raw;
        EXPECT_EQ(m->data.version(), version) << raw;
        EXPECT_EQ(cells_of(m), cells) << raw;
    }

    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, ExtractIntoTooSmallBuffer) {
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 2, 2), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> rows{0, 1}, cols{0, 1};
    ASSERT_EQ(spbla_Matrix_Build(m, rows.data(), cols.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);
    std::array<spbla_Index, 1> r{}, c{};
    spbla_Index cap = 1;
    EXPECT_EQ(spbla_Matrix_ExtractPairs(m, r.data(), c.data(), &cap),
              SPBLA_STATUS_OUT_OF_RANGE);
    EXPECT_EQ(cap, 2u);  // reports the required capacity
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, MxMWithAndWithoutAccumulate) {
    spbla_Matrix a = nullptr, b = nullptr, c = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&a, 3, 3), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&b, 3, 3), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&c, 3, 3), SPBLA_STATUS_SUCCESS);
    const spbla_Index ar = 0, ac = 1;
    ASSERT_EQ(spbla_Matrix_Build(a, &ar, &ac, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    const spbla_Index br = 1, bc = 2;
    ASSERT_EQ(spbla_Matrix_Build(b, &br, &bc, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    const spbla_Index cr = 2, cc = 0;
    ASSERT_EQ(spbla_Matrix_Build(c, &cr, &cc, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);

    // c += a*b keeps the old cell and adds (0,2).
    ASSERT_EQ(spbla_MxM(c, a, b, SPBLA_HINT_ACCUMULATE), SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(c, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);

    // Overwrite variant keeps only the product.
    ASSERT_EQ(spbla_MxM(c, a, b, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Nvals(c, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 1u);

    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&c), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, MxMDimensionMismatch) {
    spbla_Matrix a = nullptr, b = nullptr, c = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&a, 3, 4), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&b, 5, 3), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&c, 3, 3), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_MxM(c, a, b, SPBLA_HINT_NO), SPBLA_STATUS_DIMENSION_MISMATCH);
    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&c), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, EWiseAddKroneckerTransposeReduceSubmatrix) {
    spbla_Matrix a = nullptr, b = nullptr, r = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&a, 2, 2), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&b, 2, 2), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&r, 2, 2), SPBLA_STATUS_SUCCESS);
    const spbla_Index ar = 0, ac = 1;
    ASSERT_EQ(spbla_Matrix_Build(a, &ar, &ac, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    const spbla_Index br = 1, bc = 0;
    ASSERT_EQ(spbla_Matrix_Build(b, &br, &bc, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);

    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_EWiseAdd(r, a, b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Nvals(r, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);

    ASSERT_EQ(spbla_Kronecker(r, a, b), SPBLA_STATUS_SUCCESS);
    spbla_Index nrows = 0;
    ASSERT_EQ(spbla_Matrix_Nrows(r, &nrows), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nrows, 4u);

    ASSERT_EQ(spbla_Matrix_Transpose(r, a), SPBLA_STATUS_SUCCESS);
    std::array<spbla_Index, 1> trows{}, tcols{};
    spbla_Index cap = 1;
    ASSERT_EQ(spbla_Matrix_ExtractPairs(r, trows.data(), tcols.data(), &cap),
              SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(trows[0], 1u);
    EXPECT_EQ(tcols[0], 0u);

    ASSERT_EQ(spbla_Matrix_Reduce(r, a), SPBLA_STATUS_SUCCESS);
    spbla_Index ncols = 0;
    ASSERT_EQ(spbla_Matrix_Ncols(r, &ncols), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(ncols, 1u);
    ASSERT_EQ(spbla_Matrix_Nvals(r, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 1u);  // only row 0 of `a` is non-empty

    ASSERT_EQ(spbla_Matrix_ExtractSubMatrix(r, a, 0, 1, 1, 1), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Nvals(r, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 1u);

    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&r), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, EWiseMultIntersects) {
    spbla_Matrix a = nullptr, b = nullptr, r = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&a, 2, 2), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&b, 2, 2), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&r, 2, 2), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> ar{0, 1}, ac{0, 1};
    ASSERT_EQ(spbla_Matrix_Build(a, ar.data(), ac.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> br{0, 1}, bc{0, 0};
    ASSERT_EQ(spbla_Matrix_Build(b, br.data(), bc.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_EWiseMult(r, a, b), SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(r, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 1u);  // only (0,0) is in both
    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&b), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&r), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, DuplicateIsIndependent) {
    spbla_Matrix a = nullptr, d = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&a, 2, 2), SPBLA_STATUS_SUCCESS);
    const spbla_Index r = 0, c = 0;
    ASSERT_EQ(spbla_Matrix_Build(a, &r, &c, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Duplicate(a, &d), SPBLA_STATUS_SUCCESS);

    const spbla_Index r2 = 1, c2 = 1;
    ASSERT_EQ(spbla_Matrix_Build(a, &r2, &c2, 1, SPBLA_HINT_NO), SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(d, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 1u);  // duplicate untouched by the rebuild of `a`

    ASSERT_EQ(spbla_Matrix_Free(&a), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&d), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, VectorLifecycleAndOps) {
    spbla_Vector v = nullptr, w = nullptr, r = nullptr;
    ASSERT_EQ(spbla_Vector_New(&v, 6), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_New(&w, 6), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_New(&r, 6), SPBLA_STATUS_SUCCESS);

    const std::array<spbla_Index, 3> vi{1, 3, 3};  // duplicate merges
    ASSERT_EQ(spbla_Vector_Build(v, vi.data(), 3), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> wi{3, 5};
    ASSERT_EQ(spbla_Vector_Build(w, wi.data(), 2), SPBLA_STATUS_SUCCESS);

    spbla_Index size = 0, nvals = 0;
    ASSERT_EQ(spbla_Vector_Size(v, &size), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(size, 6u);
    ASSERT_EQ(spbla_Vector_Nvals(v, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);

    ASSERT_EQ(spbla_Vector_EWiseAdd(r, v, w), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_Nvals(r, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 3u);  // {1, 3, 5}

    ASSERT_EQ(spbla_Vector_EWiseMult(r, v, w), SPBLA_STATUS_SUCCESS);
    std::array<spbla_Index, 1> out{};
    spbla_Index cap = 1;
    ASSERT_EQ(spbla_Vector_ExtractValues(r, out.data(), &cap), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(cap, 1u);
    EXPECT_EQ(out[0], 3u);

    ASSERT_EQ(spbla_Vector_Free(&v), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_Free(&w), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_Free(&r), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, VectorMatrixProducts) {
    // Path 0 -> 1 -> 2; frontier {0} pushes to {1}.
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 3, 3), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> rows{0, 1}, cols{1, 2};
    ASSERT_EQ(spbla_Matrix_Build(m, rows.data(), cols.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);

    spbla_Vector frontier = nullptr, next = nullptr;
    ASSERT_EQ(spbla_Vector_New(&frontier, 3), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_New(&next, 3), SPBLA_STATUS_SUCCESS);
    const spbla_Index zero = 0;
    ASSERT_EQ(spbla_Vector_Build(frontier, &zero, 1), SPBLA_STATUS_SUCCESS);

    ASSERT_EQ(spbla_VxM(next, frontier, m), SPBLA_STATUS_SUCCESS);
    std::array<spbla_Index, 3> out{};
    spbla_Index cap = 3;
    ASSERT_EQ(spbla_Vector_ExtractValues(next, out.data(), &cap), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(cap, 1u);
    EXPECT_EQ(out[0], 1u);

    // mxv: rows whose neighbourhood intersects {2} -> row 1.
    const spbla_Index two = 2;
    ASSERT_EQ(spbla_Vector_Build(frontier, &two, 1), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_MxV(next, m, frontier), SPBLA_STATUS_SUCCESS);
    cap = 3;
    ASSERT_EQ(spbla_Vector_ExtractValues(next, out.data(), &cap), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(cap, 1u);
    EXPECT_EQ(out[0], 1u);

    // Reduce to vector: non-empty rows of m are {0, 1}.
    ASSERT_EQ(spbla_Matrix_ReduceVector(next, m), SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Vector_Nvals(next, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);

    ASSERT_EQ(spbla_Vector_Free(&frontier), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Vector_Free(&next), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, VectorErrors) {
    spbla_Vector v = nullptr;
    ASSERT_EQ(spbla_Vector_New(&v, 3), SPBLA_STATUS_SUCCESS);
    const spbla_Index bad = 3;
    EXPECT_EQ(spbla_Vector_Build(v, &bad, 1), SPBLA_STATUS_OUT_OF_RANGE);
    EXPECT_EQ(spbla_Vector_Free(&v), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_Vector_Free(&v), SPBLA_STATUS_INVALID_ARGUMENT);
    EXPECT_EQ(spbla_Vector_New(nullptr, 3), SPBLA_STATUS_INVALID_ARGUMENT);
}

TEST_F(CApiTest, ApplyDeltaMutatesInPlace) {
    spbla_Matrix m = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&m, 4, 4), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 3> rows{0, 1, 2};
    const std::array<spbla_Index, 3> cols{1, 2, 3};
    ASSERT_EQ(spbla_Matrix_Build(m, rows.data(), cols.data(), 3, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);

    // Insert (3, 0), delete (1, 2): the path rewires into a cycle chord.
    const spbla_Index add_r = 3, add_c = 0, del_r = 1, del_c = 2;
    ASSERT_EQ(spbla_MatrixApplyDelta(m, &add_r, &add_c, 1, &del_r, &del_c, 1),
              SPBLA_STATUS_SUCCESS);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(m, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 3u);
    std::array<spbla_Index, 3> out_r{}, out_c{};
    ASSERT_EQ(spbla_Matrix_ExtractPairs(m, out_r.data(), out_c.data(), &nvals),
              SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(out_r, (std::array<spbla_Index, 3>{0, 2, 3}));
    EXPECT_EQ(out_c, (std::array<spbla_Index, 3>{1, 3, 0}));

    // Empty batches are accepted no-ops; null arrays with nonzero counts are
    // rejected.
    EXPECT_EQ(spbla_MatrixApplyDelta(m, nullptr, nullptr, 0, nullptr, nullptr, 0),
              SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_MatrixApplyDelta(m, nullptr, nullptr, 1, nullptr, nullptr, 0),
              SPBLA_STATUS_INVALID_ARGUMENT);
    EXPECT_EQ(spbla_MatrixApplyDelta(nullptr, nullptr, nullptr, 0, nullptr, nullptr, 0),
              SPBLA_STATUS_INVALID_ARGUMENT);
    ASSERT_EQ(spbla_Matrix_Free(&m), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, ClosureIncrementalTracksEdgeStream) {
    spbla_Matrix adj = nullptr;
    spbla_Matrix closure = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&adj, 5, 5), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&closure, 5, 5), SPBLA_STATUS_SUCCESS);

    // Stream in the path 0→1→2→3→4 one edge at a time; the closure handle
    // starts empty, so the first batch triggers the scratch build.
    for (spbla_Index i = 0; i < 4; ++i) {
        const spbla_Index r = i, c = i + 1;
        ASSERT_EQ(spbla_ClosureIncremental(closure, adj, &r, &c, 1, nullptr,
                                           nullptr, 0),
                  SPBLA_STATUS_SUCCESS);
    }
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(closure, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 10u);  // all pairs i < j on a 5-path

    // Delete the middle edge: exactly the pairs crossing 2→3 disappear.
    const spbla_Index del_r = 2, del_c = 3;
    ASSERT_EQ(spbla_ClosureIncremental(closure, adj, nullptr, nullptr, 0, &del_r,
                                       &del_c, 1),
              SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Nvals(closure, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 4u);  // {01,02,12,34}
    ASSERT_EQ(spbla_Matrix_Nvals(adj, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 3u) << "adjacency must be updated in place";

    ASSERT_EQ(spbla_Matrix_Free(&adj), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&closure), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, ClosureIncrementalShapeMismatchLeavesHandlesUntouched) {
    // A 4x4 adjacency against a 5x5 closure: the call must fail before the
    // batch reaches either handle.
    spbla_Matrix adj = nullptr;
    spbla_Matrix closure = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&adj, 4, 4), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_New(&closure, 5, 5), SPBLA_STATUS_SUCCESS);
    const std::array<spbla_Index, 2> rows{0, 1};
    const std::array<spbla_Index, 2> cols{1, 2};
    ASSERT_EQ(spbla_Matrix_Build(adj, rows.data(), cols.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Build(closure, rows.data(), cols.data(), 2, SPBLA_HINT_NO),
              SPBLA_STATUS_SUCCESS);
    const auto adj_version = adj->data.version();
    const auto closure_version = closure->data.version();

    const spbla_Index r = 2, c = 3;
    EXPECT_EQ(spbla_ClosureIncremental(closure, adj, &r, &c, 1, nullptr, nullptr, 0),
              SPBLA_STATUS_DIMENSION_MISMATCH);
    spbla_Index nvals = 0;
    ASSERT_EQ(spbla_Matrix_Nvals(adj, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u) << "a failed call must not apply the batch to adj";
    EXPECT_EQ(adj->data.version(), adj_version);
    ASSERT_EQ(spbla_Matrix_Nvals(closure, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 2u);
    EXPECT_EQ(closure->data.version(), closure_version);

    // A non-square adjacency is rejected the same way.
    spbla_Matrix wide = nullptr;
    ASSERT_EQ(spbla_Matrix_New(&wide, 4, 5), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(spbla_ClosureIncremental(closure, wide, &r, &c, 1, nullptr, nullptr, 0),
              SPBLA_STATUS_DIMENSION_MISMATCH);
    ASSERT_EQ(spbla_Matrix_Nvals(wide, &nvals), SPBLA_STATUS_SUCCESS);
    EXPECT_EQ(nvals, 0u);

    ASSERT_EQ(spbla_Matrix_Free(&wide), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&adj), SPBLA_STATUS_SUCCESS);
    ASSERT_EQ(spbla_Matrix_Free(&closure), SPBLA_STATUS_SUCCESS);
}

TEST_F(CApiTest, NullArgumentsRejected) {
    EXPECT_EQ(spbla_Matrix_New(nullptr, 2, 2), SPBLA_STATUS_INVALID_ARGUMENT);
    EXPECT_EQ(spbla_Matrix_Free(nullptr), SPBLA_STATUS_INVALID_ARGUMENT);
    spbla_Matrix null_matrix = nullptr;
    EXPECT_EQ(spbla_Matrix_Free(&null_matrix), SPBLA_STATUS_INVALID_ARGUMENT);
    EXPECT_EQ(spbla_MxM(nullptr, nullptr, nullptr, SPBLA_HINT_NO),
              SPBLA_STATUS_INVALID_ARGUMENT);
}

}  // namespace
