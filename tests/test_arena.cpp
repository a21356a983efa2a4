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

namespace spbla {
namespace {

using testing::random_csr;

/// A matrix whose row 0 is full: its product rows overflow the lean path's
/// hash-small class, so SpGEMM on it takes the binned kernel.
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
    ops::SpGemmOptions flat;
    flat.use_bin_scheduler = false;
    ops::SpGemmOptions legacy;
    legacy.legacy_accumulator_reset = true;
    const ops::KroneckerTerm terms[] = {{&a, &b}, {&b, &a}};
    const auto x = SpVector::from_indices(300, {1, 7, 42, 299});

    const std::vector<std::pair<std::string, std::function<void()>>> ops_list = {
        {"multiply (lean)", [&] { (void)ops::multiply(c, a, b); }},
        {"multiply (binned)", [&] { (void)ops::multiply(c, hub, hub); }},
        {"multiply (flat schedule)", [&] { (void)ops::multiply(c, hub, hub, flat); }},
        {"multiply (legacy reset)", [&] { (void)ops::multiply(c, hub, hub, legacy); }},
        {"multiply_add (lean)", [&] { (void)ops::multiply_add(c, a, a, b); }},
        {"multiply_add (binned)", [&] { (void)ops::multiply_add(c, hub, hub, hub); }},
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
        std::uint64_t staged = 0;
        {
            const ops::RowBounds bounds =
                ops::row_bounds(c, a.nrows(), a.nrows(), a.ncols(), a.row_offsets().data(),
                                a.cols().data(), a.row_offsets().data(), nullptr,
                                util::Schedule::Dynamic);
            ASSERT_TRUE(ops::lean_eligible(ops::SpGemmOptions{}, bounds.max, bounds.out_bound));
            staged = bounds.out_bound;
        }
        ASSERT_GT(staged, 0u);
        c.tracker().reset_peak();
        (void)ops::multiply(c, a, a);
        // The bounds and the staging buffer are live together while the
        // rows are written.
        EXPECT_GE(c.tracker().peak_bytes(),
                  staged * sizeof(Index) + a.nrows() * sizeof(std::uint64_t));
        EXPECT_EQ(c.tracker().current_bytes(), 0u);
    }
}

TEST(ScratchPeak, EwisePeakCoversItsStaging) {
    backend::Context c{backend::Policy::Sequential};
    const auto a = random_csr(1000, 1000, 0.01, 59);
    const auto b = random_csr(1000, 1000, 0.01, 61);
    (void)ops::ewise_add(c, a, b);
    // The union stages each row at |a| + |b|.
    EXPECT_GE(c.tracker().peak_bytes(), (a.nnz() + b.nnz()) * sizeof(Index));
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
