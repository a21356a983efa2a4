#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "data/matrix_market.hpp"
#include "helpers.hpp"
#include "ops/ops.hpp"
#include "spbla/matrix.hpp"

namespace spbla {
namespace {

using testing::ctx;
using testing::random_csr;

// ------------------------------ Matrix facade -----------------------------

TEST(Facade, ConstructionAndQueries) {
    const auto m = Matrix::from_coords(3, 4, {{0, 1}, {2, 3}}, ctx());
    EXPECT_EQ(m.nrows(), 3u);
    EXPECT_EQ(m.ncols(), 4u);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_TRUE(m.get(0, 1));
    EXPECT_FALSE(m.get(1, 1));
}

TEST(Facade, OperatorsMatchKernels) {
    const auto a_csr = random_csr(20, 20, 0.15, 700);
    const auto b_csr = random_csr(20, 20, 0.15, 701);
    const Matrix a{a_csr, ctx()};
    const Matrix b{b_csr, ctx()};

    EXPECT_EQ((a + b).csr(), ops::ewise_add(ctx(), a_csr, b_csr));
    EXPECT_EQ((a * b).csr(), ops::multiply(ctx(), a_csr, b_csr));
    EXPECT_EQ(a.kron(b).csr(), ops::kronecker(ctx(), a_csr, b_csr));
    EXPECT_EQ(a.transposed().csr(), ops::transpose(ctx(), a_csr));
    EXPECT_EQ(a.submatrix(2, 2, 10, 10).csr(),
              ops::submatrix(ctx(), a_csr, 2, 2, 10, 10));
    EXPECT_EQ(a.reduce_to_column(), ops::reduce_to_column(ctx(), a_csr));
}

TEST(Facade, CompoundAssignment) {
    const auto a_csr = random_csr(10, 10, 0.2, 702);
    const auto b_csr = random_csr(10, 10, 0.2, 703);
    Matrix acc{a_csr, ctx()};
    acc += Matrix{b_csr, ctx()};
    EXPECT_EQ(acc.csr(), ops::ewise_add(ctx(), a_csr, b_csr));
}

TEST(Facade, MultiplyAddFusedForm) {
    const auto a = Matrix{random_csr(12, 12, 0.2, 704), ctx()};
    const auto b = Matrix{random_csr(12, 12, 0.2, 705), ctx()};
    Matrix c{12, 12, ctx()};
    c.multiply_add(a, b);
    EXPECT_EQ(c, a * b);
    // Accumulation keeps previous content.
    Matrix c2 = a;
    c2.multiply_add(a, b);
    EXPECT_EQ(c2, a + a * b);
}

TEST(Facade, IdentityNeutrality) {
    const auto a = Matrix{random_csr(15, 15, 0.2, 706), ctx()};
    const auto i = Matrix::identity(15, ctx());
    EXPECT_EQ(a * i, a);
    EXPECT_EQ(i * a, a);
}

TEST(Facade, TransitiveClosureIdiom) {
    // The README's fixpoint idiom written against the facade.
    const auto edges = Matrix::from_coords(4, 4, {{0, 1}, {1, 2}, {2, 3}}, ctx());
    Matrix closure = edges;
    for (;;) {
        const auto before = closure.nnz();
        closure.multiply_add(closure, closure);
        if (closure.nnz() == before) break;
    }
    EXPECT_EQ(closure.nnz(), 6u);
    EXPECT_TRUE(closure.get(0, 3));
}

TEST(Facade, MismatchedShapesThrow) {
    const Matrix a{3, 4, ctx()};
    const Matrix b{5, 4, ctx()};
    EXPECT_THROW((void)(a + b), Error);
    EXPECT_THROW((void)(a * b), Error);
}

// ------------------------------ Matrix Market -----------------------------

TEST(MatrixMarket, RoundTrip) {
    const auto m = Matrix{random_csr(30, 40, 0.1, 707), ctx()};
    std::stringstream ss;
    data::save_matrix_market(ss, m);
    EXPECT_EQ(data::load_matrix_market(ss), m);
}

TEST(MatrixMarket, PatternGeneral) {
    std::stringstream ss{
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% a comment\n"
        "3 4 2\n"
        "1 1\n"
        "3 4\n"};
    const auto m = data::load_matrix_market(ss);
    EXPECT_EQ(m.nrows(), 3u);
    EXPECT_EQ(m.ncols(), 4u);
    EXPECT_EQ(m.to_coords(), (std::vector<Coord>{{0, 0}, {2, 3}}));
}

TEST(MatrixMarket, RealValuesNonZeroBecomeTrue) {
    std::stringstream ss{
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 0.5\n"
        "1 2 0.0\n"
        "2 2 -3\n"};
    const auto m = data::load_matrix_market(ss);
    EXPECT_EQ(m.to_coords(), (std::vector<Coord>{{0, 0}, {1, 1}}));
}

TEST(MatrixMarket, SymmetricMirrorsEntries) {
    std::stringstream ss{
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "3 3 2\n"
        "2 1\n"
        "3 3\n"};
    const auto m = data::load_matrix_market(ss);
    // Off-diagonal mirrored, diagonal not duplicated.
    EXPECT_EQ(m.to_coords(), (std::vector<Coord>{{0, 1}, {1, 0}, {2, 2}}));
}

TEST(MatrixMarket, MalformedInputsRejected) {
    const auto parse = [](const char* text) {
        std::stringstream ss{text};
        return data::load_matrix_market(ss);
    };
    EXPECT_THROW((void)parse(""), Error);
    EXPECT_THROW((void)parse("%%MatrixMarket matrix array real general\n2 2\n"), Error);
    EXPECT_THROW((void)parse("%%MatrixMarket matrix coordinate complex general\n1 1 0\n"),
                 Error);
    EXPECT_THROW(
        (void)parse("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n"), Error);
    EXPECT_THROW(
        (void)parse("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n"),
        Error);
    EXPECT_THROW((void)parse("not a banner\n1 1 0\n"), Error);
    // An entry count no shape can hold is rejected before anything is sized
    // from it.
    EXPECT_THROW((void)parse("%%MatrixMarket matrix coordinate pattern general\n"
                             "2 2 4611686018427387904\n1 1\n"),
                 Error);
    EXPECT_THROW((void)parse("%%MatrixMarket matrix coordinate pattern general\n"
                             "2 2 50000000000\n1 1\n"),
                 Error);
}

TEST(MatrixMarket, FileRoundTrip) {
    const auto m = Matrix{random_csr(10, 10, 0.3, 708), ctx()};
    const std::string path = ::testing::TempDir() + "/spbla_mm_test.mtx";
    data::save_matrix_market_file(path, m);
    EXPECT_EQ(data::load_matrix_market_file(path), m);
    EXPECT_THROW((void)data::load_matrix_market_file("/no/such/file.mtx"), Error);
}

}  // namespace
}  // namespace spbla
