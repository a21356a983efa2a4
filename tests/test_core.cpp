#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"

namespace spbla {
namespace {

using testing::random_csr;

// --------------------------------- COO -----------------------------------

TEST(Coo, EmptyMatrix) {
    CooMatrix m{3, 4};
    EXPECT_EQ(m.nrows(), 3u);
    EXPECT_EQ(m.ncols(), 4u);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_TRUE(m.empty());
    m.validate();
}

TEST(Coo, FromCoordsSortsAndDeduplicates) {
    const auto m = CooMatrix::from_coords(
        3, 3, {{2, 1}, {0, 2}, {2, 1}, {0, 0}, {0, 2}});
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_EQ(m.to_coords(), (std::vector<Coord>{{0, 0}, {0, 2}, {2, 1}}));
    m.validate();
}

TEST(Coo, FromCoordsRejectsOutOfRange) {
    EXPECT_THROW(CooMatrix::from_coords(2, 2, {{2, 0}}), Error);
    EXPECT_THROW(CooMatrix::from_coords(2, 2, {{0, 2}}), Error);
}

TEST(Coo, GetFindsPresentAndAbsentCells) {
    const auto m = CooMatrix::from_coords(4, 4, {{1, 2}, {3, 0}, {1, 0}});
    EXPECT_TRUE(m.get(1, 2));
    EXPECT_TRUE(m.get(3, 0));
    EXPECT_TRUE(m.get(1, 0));
    EXPECT_FALSE(m.get(0, 0));
    EXPECT_FALSE(m.get(1, 1));
    EXPECT_THROW((void)m.get(4, 0), Error);
}

TEST(Coo, DeviceBytesFormula) {
    const auto m = CooMatrix::from_coords(10, 10, {{0, 1}, {2, 3}, {4, 5}});
    EXPECT_EQ(m.device_bytes(), 2 * 3 * sizeof(Index));
}

TEST(Coo, EqualityComparesShapeAndContent) {
    const auto a = CooMatrix::from_coords(2, 2, {{0, 1}});
    const auto b = CooMatrix::from_coords(2, 2, {{0, 1}});
    const auto c = CooMatrix::from_coords(2, 2, {{1, 0}});
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
}

TEST(Coo, ValidateCatchesUnsortedInput) {
    EXPECT_THROW(
        CooMatrix::from_sorted(2, 2, {1, 0}, {0, 0}).validate(), Error);
}

// --------------------------------- CSR -----------------------------------

TEST(Csr, EmptyMatrix) {
    CsrMatrix m{5, 7};
    EXPECT_EQ(m.nrows(), 5u);
    EXPECT_EQ(m.ncols(), 7u);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_EQ(m.row_offsets().size(), 6u);
    m.validate();
}

TEST(Csr, ZeroByZeroMatrix) {
    CsrMatrix m{0, 0};
    EXPECT_EQ(m.nnz(), 0u);
    m.validate();
}

TEST(Csr, FromCoordsBuildsRowStructure) {
    const auto m = CsrMatrix::from_coords(3, 4, {{1, 3}, {0, 1}, {1, 0}, {0, 2}});
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_EQ(m.row_nnz(0), 2u);
    EXPECT_EQ(m.row_nnz(1), 2u);
    EXPECT_EQ(m.row_nnz(2), 0u);
    const auto r0 = m.row(0);
    EXPECT_EQ(std::vector<Index>(r0.begin(), r0.end()), (std::vector<Index>{1, 2}));
    const auto r1 = m.row(1);
    EXPECT_EQ(std::vector<Index>(r1.begin(), r1.end()), (std::vector<Index>{0, 3}));
    m.validate();
}

TEST(Csr, DuplicatesCollapse) {
    const auto m = CsrMatrix::from_coords(2, 2, {{0, 0}, {0, 0}, {1, 1}, {1, 1}});
    EXPECT_EQ(m.nnz(), 2u);
}

TEST(Csr, Identity) {
    const auto m = CsrMatrix::identity(4);
    EXPECT_EQ(m.nnz(), 4u);
    for (Index i = 0; i < 4; ++i) {
        EXPECT_TRUE(m.get(i, i));
        for (Index j = 0; j < 4; ++j) {
            if (i != j) {
                EXPECT_FALSE(m.get(i, j));
            }
        }
    }
    m.validate();
}

TEST(Csr, GetOutOfRangeThrows) {
    const auto m = CsrMatrix::identity(2);
    EXPECT_THROW((void)m.get(2, 0), Error);
    EXPECT_THROW((void)m.get(0, 2), Error);
}

TEST(Csr, DeviceBytesFormulaMatchesPaper) {
    // Paper: (m + NNZ(M)) * sizeof(IndexType) — plus the off-by-one slot of
    // the offsets array.
    const auto m = CsrMatrix::from_coords(10, 10, {{0, 1}, {2, 3}, {4, 5}});
    EXPECT_EQ(m.device_bytes(), (10 + 1 + 3) * sizeof(Index));
}

TEST(Csr, ToCoordsRoundTrips) {
    const std::vector<Coord> coords{{0, 1}, {2, 0}, {2, 3}};
    const auto m = CsrMatrix::from_coords(3, 4, coords);
    EXPECT_EQ(m.to_coords(), coords);
}

TEST(Csr, FromRawValidatesInDebug) {
#ifndef NDEBUG
    // Bad offsets: do not sum to nnz.
    EXPECT_THROW(CsrMatrix::from_raw(2, 2, {0, 1, 3}, {0, 1}), Error);
#else
    GTEST_SKIP() << "validation only runs in debug builds";
#endif
}

// -------------------------------- dense ----------------------------------

TEST(Dense, SetGetClear) {
    DenseMatrix m{3, 70};  // spans multiple 64-bit words per row
    m.set(1, 65);
    EXPECT_TRUE(m.get(1, 65));
    EXPECT_FALSE(m.get(1, 64));
    m.set(1, 65, false);
    EXPECT_FALSE(m.get(1, 65));
}

TEST(Dense, NnzCountsBits) {
    DenseMatrix m{2, 100};
    m.set(0, 0);
    m.set(0, 99);
    m.set(1, 50);
    EXPECT_EQ(m.nnz(), 3u);
}

TEST(Dense, MultiplyMatchesManual) {
    DenseMatrix a{2, 3}, b{3, 2};
    a.set(0, 1);  // row 0 selects b row 1
    b.set(1, 0);
    const auto c = a.multiply(b);
    EXPECT_TRUE(c.get(0, 0));
    EXPECT_EQ(c.nnz(), 1u);
}

TEST(Dense, KroneckerSmall) {
    DenseMatrix a{2, 2}, b{2, 2};
    a.set(0, 1);
    b.set(1, 0);
    const auto k = a.kronecker(b);
    EXPECT_EQ(k.nrows(), 4u);
    EXPECT_EQ(k.ncols(), 4u);
    EXPECT_TRUE(k.get(0 * 2 + 1, 1 * 2 + 0));
    EXPECT_EQ(k.nnz(), 1u);
}

TEST(Dense, TransposeInvolution) {
    DenseMatrix m{3, 5};
    m.set(0, 4);
    m.set(2, 1);
    const auto t = m.transpose();
    EXPECT_TRUE(t.get(4, 0));
    EXPECT_TRUE(t.get(1, 2));
    EXPECT_EQ(t.transpose(), m);
}

// ----------------------------- conversions -------------------------------

TEST(Convert, CooCsrRoundTrip) {
    const auto coo = CooMatrix::from_coords(5, 6, {{0, 5}, {4, 0}, {2, 2}, {2, 4}});
    const auto csr = to_csr(coo);
    csr.validate();
    EXPECT_EQ(to_coo(csr), coo);
}

TEST(Convert, DenseRoundTrip) {
    DenseMatrix d{4, 4};
    d.set(0, 0);
    d.set(3, 1);
    d.set(1, 3);
    EXPECT_EQ(to_dense(to_csr(d)), d);
}

TEST(Convert, EmptyMatrixRoundTrip) {
    const CooMatrix coo{4, 4};
    EXPECT_EQ(to_coo(to_csr(coo)), coo);
}

// Parameterized conversion round-trip over shapes and densities.
struct ShapeDensity {
    Index nrows, ncols;
    double density;
};

class ConversionSweep : public ::testing::TestWithParam<ShapeDensity> {};

TEST_P(ConversionSweep, RoundTripsPreserveContent) {
    const auto [nrows, ncols, density] = GetParam();
    const auto csr = random_csr(nrows, ncols, density, 1234 + nrows * 7 + ncols);
    csr.validate();
    const auto coo = to_coo(csr);
    coo.validate();
    EXPECT_EQ(to_csr(coo), csr);
    EXPECT_EQ(to_csr(to_dense(csr)), csr);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConversionSweep,
    ::testing::Values(ShapeDensity{1, 1, 1.0}, ShapeDensity{1, 100, 0.1},
                      ShapeDensity{100, 1, 0.1}, ShapeDensity{17, 31, 0.05},
                      ShapeDensity{64, 64, 0.02}, ShapeDensity{64, 64, 0.5},
                      ShapeDensity{200, 10, 0.3}, ShapeDensity{10, 200, 0.3}));

// ------------------------------- spvector --------------------------------

TEST(SpVector, FromIndicesSortsAndDedups) {
    const auto v = SpVector::from_indices(10, {5, 1, 5, 9, 1});
    EXPECT_EQ(v.nnz(), 3u);
    EXPECT_TRUE(v.get(1));
    EXPECT_TRUE(v.get(5));
    EXPECT_TRUE(v.get(9));
    EXPECT_FALSE(v.get(0));
    v.validate();
}

TEST(SpVector, OutOfRangeRejected) {
    EXPECT_THROW(SpVector::from_indices(3, {3}), Error);
    const auto v = SpVector::from_indices(3, {0});
    EXPECT_THROW((void)v.get(3), Error);
}

TEST(SpVector, EwiseOrAndAnd) {
    const auto a = SpVector::from_indices(8, {1, 3, 5});
    const auto b = SpVector::from_indices(8, {3, 4, 5, 7});
    const auto o = a.ewise_or(b);
    const auto n = a.ewise_and(b);
    EXPECT_EQ(o, SpVector::from_indices(8, {1, 3, 4, 5, 7}));
    EXPECT_EQ(n, SpVector::from_indices(8, {3, 5}));
}

TEST(SpVector, MismatchedSizesThrow) {
    const auto a = SpVector::from_indices(4, {0});
    const auto b = SpVector::from_indices(5, {0});
    EXPECT_THROW((void)a.ewise_or(b), Error);
    EXPECT_THROW((void)a.ewise_and(b), Error);
}

// -------------------------------- status ---------------------------------

TEST(Status, NamesAreStable) {
    EXPECT_STREQ(status_name(Status::Ok), "Ok");
    EXPECT_STREQ(status_name(Status::DimensionMismatch), "DimensionMismatch");
}

TEST(Status, ErrorCarriesStatusAndMessage) {
    try {
        check(false, Status::OutOfRange, "boom");
        FAIL() << "check did not throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::OutOfRange);
        EXPECT_STREQ(e.what(), "boom");
    }
}

}  // namespace
}  // namespace spbla
