/// \file test_arena.cpp
/// \brief Scratch accounting: kernel scratch is exact Context::alloc
/// buffers, so every op leaves its context's tracker where it found it, the
/// peak during an op covers the staging it allocated, and an op nested in a
/// chunk body balances like any other.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "backend/context.hpp"
#include "helpers.hpp"
#include "ops/ops.hpp"
#include "ops/spgemm_plan.hpp"
#include "util/rng.hpp"

namespace spbla {
namespace {

using testing::random_csr;

/// A matrix whose row 0 is full: the product rows that reach it have a cap
/// of ncols, the runner's largest rows.
CsrMatrix with_hub_row(Index n, double density, std::uint64_t seed) {
    std::vector<Coord> coords = random_csr(n, n, density, seed).to_coords();
    for (Index c = 0; c < n; ++c) coords.push_back({0, c});
    return CsrMatrix::from_coords(n, n, std::move(coords));
}

class ScratchAccounting : public ::testing::TestWithParam<backend::Policy> {};

TEST_P(ScratchAccounting, EveryOpLeavesTheTrackerAtItsBaseline) {
    // A context of its own, so its tracker reads only these ops' scratch
    // (op outputs are host vectors, not device buffers).
    backend::Context c{GetParam(), 4};
    const auto& t = c.tracker();
    const auto a = random_csr(300, 300, 0.03, 31);
    const auto b = random_csr(300, 300, 0.03, 37);
    const auto hub = with_hub_row(1500, 0.01, 41);
    const auto hub_t = ops::transpose(c, hub);
    const ops::KroneckerTerm terms[] = {{&a, &b}, {&b, &a}};
    const auto x = SpVector::from_indices(300, {1, 7, 42, 299});

    const std::vector<std::pair<std::string, std::function<void()>>> ops_list = {
        {"multiply", [&] { (void)ops::multiply(c, a, b); }},
        {"multiply (hub row)", [&] { (void)ops::multiply(c, hub, hub); }},
        {"multiply (hub column)", [&] { (void)ops::multiply(c, hub_t, hub_t); }},
        {"multiply (hub row times hub column)", [&] { (void)ops::multiply(c, hub, hub_t); }},
        {"multiply_add", [&] { (void)ops::multiply_add(c, a, a, b); }},
        {"multiply_add (hub row)", [&] { (void)ops::multiply_add(c, hub, hub, hub); }},
        {"ewise_add", [&] { (void)ops::ewise_add(c, a, b); }},
        {"ewise_mult", [&] { (void)ops::ewise_mult(c, a, b); }},
        {"ewise_diff", [&] { (void)ops::ewise_diff(c, a, b); }},
        {"kronecker_sum", [&] { (void)ops::kronecker_sum(c, terms); }},
        {"transpose", [&] { (void)ops::transpose(c, a); }},
        {"submatrix", [&] { (void)ops::submatrix(c, a, 10, 20, 200, 150); }},
        {"multiply_masked", [&] { (void)ops::multiply_masked(c, a, a, b); }},
        {"mxv", [&] { (void)ops::mxv(c, a, x); }},
        {"reduce_to_column", [&] { (void)ops::reduce_to_column(c, a); }},
    };
    for (const auto& [name, run] : ops_list) {
        run();
        EXPECT_EQ(t.current_bytes(), 0u) << name << ": " << t.leak_report();
        EXPECT_EQ(t.alloc_count(), t.free_count()) << name;
    }
    // The SpGEMM scratch went through the tracker, not around it.
    EXPECT_GT(t.alloc_count(), 0u);
    EXPECT_GT(t.peak_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ScratchAccounting,
                         ::testing::Values(backend::Policy::Sequential,
                                           backend::Policy::Parallel),
                         [](const ::testing::TestParamInfo<backend::Policy>& info) {
                             return info.param == backend::Policy::Sequential
                                        ? std::string{"Sequential"}
                                        : std::string{"Parallel"};
                         });

TEST(ScratchPeak, SpGemmPeakCoversItsStaging) {
    for (const auto policy : {backend::Policy::Sequential, backend::Policy::Parallel}) {
        backend::Context c{policy, 4};
        const auto a = random_csr(2000, 2000, 0.002, 53);
        c.tracker().reset_peak();
        const CsrMatrix out = ops::multiply(c, a, a);
        ASSERT_GT(out.nnz(), 0u);
        // The bounds and the staged rows are live together at the join.
        EXPECT_GE(c.tracker().peak_bytes(),
                  out.nnz() * sizeof(Index) + a.nrows() * sizeof(std::uint64_t));
        EXPECT_EQ(c.tracker().current_bytes(), 0u);
    }
}

TEST(ScratchPeak, DuplicateHeavySpGemmStagesBelowItsCaps) {
    // Every row reaches 8 of 64 hub rows, each spanning the same 64
    // columns: a row's cap is 512, its output at most 64. A runner that
    // staged every cap at once would peak above 4 * out_bound bytes; the
    // per-chunk segments hold about the output instead.
    const Index n = 4096;
    std::vector<Coord> cells;
    util::Rng rng{131};
    for (Index i = 0; i < n; ++i) {
        for (int k = 0; k < 8; ++k) cells.push_back({i, static_cast<Index>(rng.below(64))});
    }
    for (Index k = 0; k < 64; ++k) {
        for (Index j = 0; j < 64; ++j) cells.push_back({k, j});
    }
    const auto a = CsrMatrix::from_coords(n, n, std::move(cells));
    for (const auto policy : {backend::Policy::Sequential, backend::Policy::Parallel}) {
        backend::Context c{policy, 4};
        std::uint64_t out_bound = 0;
        {
            const ops::RowBounds bounds =
                ops::row_bounds(c, n, n, n, a.row_offsets().data(), a.cols().data(),
                                a.row_offsets().data(), nullptr);
            out_bound = bounds.out_bound;
        }
        c.tracker().reset_peak();
        const CsrMatrix out = ops::multiply(c, a, a);
        ASSERT_GT(out_bound, 4 * out.nnz());
        EXPECT_LT(c.tracker().peak_bytes(), 4 * out_bound);
        EXPECT_EQ(c.tracker().current_bytes(), 0u);
    }
}

TEST(ScratchPeak, EwisePeakCoversItsStaging) {
    backend::Context c{backend::Policy::Sequential};
    const auto a = random_csr(1000, 1000, 0.01, 59);
    const auto b = random_csr(1000, 1000, 0.01, 61);
    const CsrMatrix out = ops::ewise_add(c, a, b);
    // The staged rows, the union's cells, are live together at the join.
    EXPECT_GE(c.tracker().peak_bytes(), out.nnz() * sizeof(Index));
    EXPECT_EQ(c.tracker().current_bytes(), 0u);
}

TEST(ScratchNesting, OpInsideAChunkBodyBalances) {
    // Each chunk holds a buffer of its own across a nested op (small enough
    // to run inline on the worker): the nested op's scratch must neither
    // clobber the chunk's buffer nor outlive the op.
    backend::Context c{backend::Policy::Parallel, 4};
    backend::Context reference{backend::Policy::Sequential};
    const auto a = random_csr(64, 64, 0.08, 67);
    const auto b = random_csr(64, 64, 0.08, 71);
    const auto want_product = ops::multiply(reference, a, b);
    const auto want_sum = ops::ewise_add(reference, a, b);
    std::atomic<std::size_t> bad{0};
    c.parallel_for_chunks(16, 1, [&](std::size_t c0, std::size_t c1) {
        for (std::size_t k = c0; k < c1; ++k) {
            auto mine = c.alloc<std::uint32_t>(512);
            for (std::size_t i = 0; i < mine.size(); ++i) {
                mine[i] = static_cast<std::uint32_t>(k * 1000 + i);
            }
            if (ops::multiply(c, a, b) != want_product) bad.fetch_add(1);
            if (ops::ewise_add(c, a, b) != want_sum) bad.fetch_add(1);
            for (std::size_t i = 0; i < mine.size(); ++i) {
                if (mine[i] != static_cast<std::uint32_t>(k * 1000 + i)) bad.fetch_add(1);
            }
        }
    });
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(c.tracker().current_bytes(), 0u) << c.tracker().leak_report();
    EXPECT_EQ(c.tracker().alloc_count(), c.tracker().free_count());
}

}  // namespace
}  // namespace spbla
