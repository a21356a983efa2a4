/// \file test_storage_dispatch.cpp
/// \brief Every public dispatch operation must compute the result of the raw
/// CSR kernel it routes to, and book exactly one dispatched op.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "helpers.hpp"
#include "ops/ops.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace spbla {
namespace {

using testing::ctx;

using DispatchResults = testing::CheckedContext;

// Reference results are computed by the raw CSR kernels on the handles'
// own CSR storage.

TEST_F(DispatchResults, MultiplyFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(40, 40, 0.12, 1001);
    const auto b = testing::random_matrix(40, 40, 0.18, 1002);
    const auto c = testing::random_matrix(40, 40, 0.05, 1003);

    EXPECT_EQ(storage::multiply(ctx(), a, b),
              Matrix(ops::multiply(ctx(), a.csr(), b.csr()), ctx()));
    EXPECT_EQ(storage::multiply_add(ctx(), c, a, b),
              Matrix(ops::multiply_add(ctx(), c.csr(), a.csr(), b.csr()),
                     ctx()));
    const auto bt = storage::transpose(ctx(), b);
    EXPECT_EQ(storage::multiply_masked(ctx(), c, a, bt),
              Matrix(ops::multiply_masked(ctx(), c.csr(), a.csr(), bt.csr()),
                     ctx()));
    EXPECT_EQ(storage::multiply_masked(ctx(), c, a, bt, /*complement=*/true),
              Matrix(ops::multiply_masked(ctx(), c.csr(), a.csr(), bt.csr(),
                                          /*complement=*/true),
                     ctx()));
}

TEST_F(DispatchResults, ElementwiseFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(33, 47, 0.2, 1004);
    const auto b = testing::random_matrix(33, 47, 0.2, 1005);

    EXPECT_EQ(storage::ewise_add(ctx(), a, b),
              Matrix(ops::ewise_add(ctx(), a.csr(), b.csr()), ctx()));
    EXPECT_EQ(storage::ewise_mult(ctx(), a, b),
              Matrix(ops::ewise_mult(ctx(), a.csr(), b.csr()), ctx()));
    EXPECT_EQ(storage::ewise_diff(ctx(), a, b),
              Matrix(ops::ewise_diff(ctx(), a.csr(), b.csr()), ctx()));
}

TEST_F(DispatchResults, StructuralFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(21, 34, 0.15, 1006);
    const auto b = testing::random_matrix(5, 7, 0.3, 1007);

    EXPECT_EQ(storage::transpose(ctx(), a),
              Matrix(ops::transpose(ctx(), a.csr()), ctx()));
    EXPECT_EQ(storage::kronecker(ctx(), b, a),
              Matrix(ops::kronecker(ctx(), b.csr(), a.csr()), ctx()));
    EXPECT_EQ(storage::submatrix(ctx(), a, 3, 5, 13, 20),
              Matrix(ops::submatrix(ctx(), a.csr(), 3, 5, 13, 20), ctx()));
}

TEST_F(DispatchResults, ReductionAndVectorFamilyMatchesCsrKernels) {
    const auto a = testing::random_matrix(29, 29, 0.18, 1008);
    util::Rng rng{1009};
    std::vector<Index> set;
    for (Index i = 0; i < 29; ++i) {
        if (rng.below(3) == 0) set.push_back(i);
    }
    const auto x = SpVector::from_indices(29, std::move(set));

    EXPECT_EQ(storage::reduce_to_column(ctx(), a),
              ops::reduce_to_column(ctx(), a.csr()));
    EXPECT_EQ(storage::reduce_to_row(ctx(), a),
              ops::reduce_to_row(ctx(), a.csr()));
    EXPECT_EQ(storage::reduce_scalar(a), a.csr().nnz());
    EXPECT_EQ(storage::mxv(ctx(), a, x), ops::mxv(ctx(), a.csr(), x));
    EXPECT_EQ(storage::vxm(ctx(), x, a), ops::vxm(ctx(), x, a.csr()));
}

TEST_F(DispatchResults, DegenerateShapesSurvive) {
    const Matrix empty{17, 17, ctx()};
    const Matrix tall{64, 1, ctx()};
    const auto a = testing::random_matrix(17, 17, 0.2, 1011);

    EXPECT_EQ(storage::multiply(ctx(), empty, a).nnz(), 0u);
    EXPECT_EQ(storage::ewise_add(ctx(), empty, a), a);
    EXPECT_EQ(storage::ewise_mult(ctx(), empty, a).nnz(), 0u);
    EXPECT_EQ(storage::transpose(ctx(), tall).nrows(), 1u);
    EXPECT_EQ(storage::reduce_to_column(ctx(), empty).nnz(), 0u);
    EXPECT_EQ(storage::kronecker(ctx(), empty, a).nnz(), 0u);
}

TEST_F(DispatchResults, KroneckerShapeOverflowIsRejected) {
    // 65537 * 65536 output rows do not fit a 32-bit Index (wrapped, they
    // would pass for 65536). The op must refuse.
    std::vector<Coord> column;
    for (Index i = 0; i < 65536; ++i) column.push_back({i, 0});
    const auto a = Matrix::from_coords(65537, 1, {{0, 0}}, ctx());
    const auto b = Matrix::from_coords(65536, 1, std::move(column), ctx());
    try {
        (void)storage::kronecker(ctx(), a, b);
        FAIL() << "kronecker accepted a result shape that overflows Index";
    } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::OutOfRange);
    }
}

// ---------------------------------------------------------------------------
// kronecker_sum: the fused one-pass Kronecker sum must equal the
// kronecker + ewise_add fold it replaces, and fail cleanly.
// ---------------------------------------------------------------------------

/// A Kronecker sum input: the declared shape and the (A, B) factor pairs.
struct KronSumCase {
    const char* name;
    Index nrows, ncols;
    std::vector<std::pair<Matrix, Matrix>> factors;

    [[nodiscard]] std::vector<storage::KroneckerTerm> terms() const {
        std::vector<storage::KroneckerTerm> out;
        for (const auto& [a, b] : factors) out.push_back({&a, &b});
        return out;
    }
};

Matrix coords_matrix(Index nrows, Index ncols, std::vector<Coord> coords) {
    return Matrix{CsrMatrix::from_coords(nrows, ncols, std::move(coords)), ctx()};
}

/// Random matrix whose even rows are all empty.
Matrix odd_rows_only(Index nrows, Index ncols, double density, std::uint64_t seed) {
    auto coords = testing::random_csr(nrows, ncols, density, seed).to_coords();
    std::erase_if(coords, [](const Coord& c) { return c.row % 2 == 0; });
    return coords_matrix(nrows, ncols, std::move(coords));
}

/// The fold the drivers ran before kronecker_sum existed.
Matrix kron_fold(backend::Context& cx, const KronSumCase& c) {
    Matrix acc{c.nrows, c.ncols, cx};
    for (const auto& [a, b] : c.factors) {
        acc = storage::ewise_add(cx, acc, storage::kronecker(cx, a, b));
    }
    return acc;
}

KronSumCase make_kron_sum_case(int which) {
    // An NFA-shaped automaton: two targets from every state.
    const auto nfa = [] {
        return coords_matrix(4, 4, {{0, 1}, {0, 2}, {1, 2}, {1, 3},
                                    {2, 0}, {2, 3}, {3, 0}, {3, 1}});
    };
    switch (which) {
        case 0:
            return {"nfa_shaped", 4 * 30, 4 * 30,
                    {{nfa(), testing::random_matrix(30, 30, 0.2, 5001)}}};
        case 1: {
            // Three terms hit block (0, 1); two carry the same B, the third
            // overlaps it at random.
            KronSumCase c{"shared_block", 4 * 30, 4 * 30, {}};
            const auto b1 = testing::random_matrix(30, 30, 0.25, 5002);
            c.factors.emplace_back(nfa(), b1);
            c.factors.emplace_back(coords_matrix(4, 4, {{0, 1}, {3, 3}}),
                                   testing::random_matrix(30, 30, 0.25, 5003));
            c.factors.emplace_back(coords_matrix(4, 4, {{0, 1}, {2, 0}, {2, 1}}), b1);
            return c;
        }
        case 2:
            return {"empty_rows", 5 * 31, 5 * 29,
                    {{odd_rows_only(5, 5, 0.5, 5004), odd_rows_only(31, 29, 0.2, 5005)},
                     {testing::random_matrix(5, 5, 0.3, 5006), odd_rows_only(31, 29, 0.3, 5007)},
                     {Matrix{5, 5, ctx()}, testing::random_matrix(31, 29, 0.2, 5008)}}};
        case 3:
            return {"one_term", 3 * 7, 5 * 4,
                    {{testing::random_matrix(3, 5, 0.4, 5009),
                      testing::random_matrix(7, 4, 0.4, 5010)}}};
        default:
            return {"zero_terms", 12, 20, {}};
    }
}

TEST_F(DispatchResults, KroneckerSumMatchesTheFold) {
    const auto par_base = ctx().tracker().current_bytes();
    const auto seq_base = testing::seq_ctx().tracker().current_bytes();
    for (backend::Context* cx : {&ctx(), &testing::seq_ctx()}) {
        const char* policy = cx == &ctx() ? "parallel" : "sequential";
        for (int which = 0; which < 5; ++which) {
            {
                const KronSumCase c = make_kron_sum_case(which);
                const auto terms = c.terms();
                const Matrix got = storage::kronecker_sum(*cx, c.nrows, c.ncols, terms);
                EXPECT_EQ(got.nrows(), c.nrows) << c.name;
                EXPECT_EQ(got.ncols(), c.ncols) << c.name;
                EXPECT_EQ(got, kron_fold(*cx, c)) << c.name << " on " << policy;
                if (which == 4) {
                    EXPECT_EQ(got.nnz(), 0u);
                }
            }
            EXPECT_EQ(ctx().tracker().current_bytes(), par_base) << which;
            EXPECT_EQ(testing::seq_ctx().tracker().current_bytes(), seq_base) << which;
        }
    }
}

TEST_F(DispatchResults, KroneckerSumRejectsBadTermsWithoutAResult) {
    const auto par_base = ctx().tracker().current_bytes();
    const auto seq_base = testing::seq_ctx().tracker().current_bytes();
    const auto full = [](Index nrows, Index ncols, Index from_row, Index to_row) {
        std::vector<Coord> coords;
        for (Index i = from_row; i < to_row; ++i) {
            for (Index j = 0; j < ncols; ++j) coords.push_back({i, j});
        }
        return coords_matrix(nrows, ncols, std::move(coords));
    };
    struct Bad {
        const char* name;
        Status status;
        std::function<KronSumCase()> make;
    };
    const Bad cases[] = {
        {"a_shapes_differ", Status::DimensionMismatch,
         [] {
             return KronSumCase{"", 12, 12,
                                {{testing::random_matrix(3, 3, 0.5, 1), testing::random_matrix(4, 4, 0.5, 2)},
                                 {testing::random_matrix(3, 4, 0.5, 3), testing::random_matrix(4, 3, 0.5, 4)}}};
         }},
        {"b_shapes_differ", Status::DimensionMismatch,
         [] {
             return KronSumCase{"", 12, 12,
                                {{testing::random_matrix(3, 3, 0.5, 5), testing::random_matrix(4, 4, 0.5, 6)},
                                 {testing::random_matrix(3, 3, 0.5, 7), testing::random_matrix(4, 5, 0.5, 8)}}};
         }},
        {"declared_shape_differs", Status::DimensionMismatch,
         [] {
             return KronSumCase{"", 12, 13,
                                {{testing::random_matrix(3, 3, 0.5, 9), testing::random_matrix(4, 4, 0.5, 10)}}};
         }},
        {"shape_overflows", Status::OutOfRange,
         // 65537 * 65536 rows wrap to 65536 in 32 bits.
         [&] { return KronSumCase{"", 1, 1, {{full(65537, 1, 0, 1), full(65536, 1, 0, 65536)}}}; }},
        {"term_nnz_overflows", Status::OutOfRange,
         // 65536 * 65792 cells: one term alone is past 2^32.
         [&] { return KronSumCase{"", 256 * 256, 256 * 257,
                                  {{full(256, 256, 0, 256), full(256, 257, 0, 256)}}}; }},
        {"union_nnz_overflows", Status::OutOfRange,
         // Each half fits; only their disjoint union passes 2^32.
         [&] { return KronSumCase{"", 256 * 256, 256 * 257,
                                  {{full(256, 256, 0, 128), full(256, 257, 0, 256)},
                                   {full(256, 256, 128, 256), full(256, 257, 0, 256)}}}; }},
    };
    for (backend::Context* cx : {&ctx(), &testing::seq_ctx()}) {
        for (const Bad& bad : cases) {
            {
                const KronSumCase c = bad.make();
                const auto terms = c.terms();
                try {
                    (void)storage::kronecker_sum(*cx, c.nrows, c.ncols, terms);
                    ADD_FAILURE() << bad.name << ": accepted";
                } catch (const Error& e) {
                    EXPECT_EQ(e.status(), bad.status) << bad.name << ": " << e.what();
                }
            }
            EXPECT_EQ(ctx().tracker().current_bytes(), par_base) << bad.name;
            EXPECT_EQ(testing::seq_ctx().tracker().current_bytes(), seq_base) << bad.name;
        }
    }
}

// ---------------------------------------------------------------------------
// Route counts: on every rung of the input ladder, each op books exactly one
// spbla.dispatch.ops and one spbla.dispatch.csr, read from the telemetry
// counters.
// ---------------------------------------------------------------------------

/// One rung of the input ladder: square CSR operands of one shape and
/// density.
struct Rung {
    const char* name;
    Index n;
    double density;
};

const Rung kRungs[] = {
    {"tiny", 1024, 16.0 / (1024.0 * 1024.0)},  // 16 cells
    {"hypersparse", 1024, 0.0003},
    {"sparse", 512, 0.0015},
    {"moderate", 512, 0.008},
    {"denseish", 128, 0.3},
};

struct RungOperands {
    Matrix a, b, c, s;
    SpVector x;
};

RungOperands make_rung(const Rung& r) {
    RungOperands o{testing::random_matrix(r.n, r.n, r.density, 4001),
                   testing::random_matrix(r.n, r.n, r.density, 4002),
                   testing::random_matrix(r.n, r.n, r.density, 4003),
                   testing::random_matrix(3, 3, 0.5, 4004), SpVector{}};
    std::vector<Index> set;
    for (Index i = 0; i < r.n; i += 8) set.push_back(i);
    o.x = SpVector::from_indices(r.n, std::move(set));
    return o;
}

using DispatchRoutes = testing::CheckedContext;

TEST_F(DispatchRoutes, EveryOpBooksOneCsrPickOnEveryRung) {
    struct Op {
        const char* name;
        std::function<void(backend::Context&, const RungOperands&)> run;
    };
    const Op ops[] = {
        {"multiply", [](auto& cx, const auto& o) { (void)storage::multiply(cx, o.a, o.b); }},
        {"multiply_add",
         [](auto& cx, const auto& o) { (void)storage::multiply_add(cx, o.c, o.a, o.b); }},
        {"ewise_add", [](auto& cx, const auto& o) { (void)storage::ewise_add(cx, o.a, o.b); }},
        {"ewise_mult", [](auto& cx, const auto& o) { (void)storage::ewise_mult(cx, o.a, o.b); }},
        {"ewise_diff", [](auto& cx, const auto& o) { (void)storage::ewise_diff(cx, o.a, o.b); }},
        {"kronecker", [](auto& cx, const auto& o) { (void)storage::kronecker(cx, o.a, o.s); }},
        {"kronecker_sum",
         [](auto& cx, const auto& o) {
             const storage::KroneckerTerm terms[] = {{&o.s, &o.a}, {&o.s, &o.b}};
             (void)storage::kronecker_sum(cx, o.s.nrows() * o.a.nrows(),
                                          o.s.ncols() * o.a.ncols(), terms);
         }},
        {"transpose", [](auto& cx, const auto& o) { (void)storage::transpose(cx, o.a); }},
        {"submatrix",
         [](auto& cx, const auto& o) {
             (void)storage::submatrix(cx, o.a, 0, 0, o.a.nrows() / 2, o.a.ncols() / 2);
         }},
        {"reduce_to_column",
         [](auto& cx, const auto& o) { (void)storage::reduce_to_column(cx, o.a); }},
        {"reduce_to_row", [](auto& cx, const auto& o) { (void)storage::reduce_to_row(cx, o.a); }},
        {"mxv", [](auto& cx, const auto& o) { (void)storage::mxv(cx, o.a, o.x); }},
        {"vxm", [](auto& cx, const auto& o) { (void)storage::vxm(cx, o.x, o.a); }},
        {"multiply_masked",
         [](auto& cx, const auto& o) { (void)storage::multiply_masked(cx, o.c, o.a, o.b); }},
    };
    for (const Rung& rung : kRungs) {
        const auto operands = make_rung(rung);
        for (const auto& op : ops) {
            const auto before = telemetry::snapshot();
            op.run(ctx(), operands);
            const auto after = telemetry::snapshot();
            const auto delta = [&](telemetry::Counter c) {
                return after.counter(c) - before.counter(c);
            };
            EXPECT_EQ(delta(telemetry::Counter::DispatchOps), 1u) << op.name << " on " << rung.name;
            EXPECT_EQ(delta(telemetry::Counter::DispatchCsr), 1u) << op.name << " on " << rung.name;
        }
    }
}

}  // namespace
}  // namespace spbla
