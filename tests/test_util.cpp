#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/bit_ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace spbla::util {
namespace {

// ------------------------------- bit_ops ---------------------------------

TEST(BitOps, NextPow2CoversBoundaries) {
    EXPECT_EQ(next_pow2(std::uint32_t{0}), 1u);
    EXPECT_EQ(next_pow2(std::uint32_t{1}), 1u);
    EXPECT_EQ(next_pow2(std::uint32_t{2}), 2u);
    EXPECT_EQ(next_pow2(std::uint32_t{3}), 4u);
    EXPECT_EQ(next_pow2(std::uint32_t{4}), 4u);
    EXPECT_EQ(next_pow2(std::uint32_t{5}), 8u);
    EXPECT_EQ(next_pow2(std::uint32_t{1025}), 2048u);
}

TEST(BitOps, NextPow2SixtyFourBit) {
    EXPECT_EQ(next_pow2(std::uint64_t{0x100000001ULL}), 0x200000000ULL);
}

TEST(BitOps, CeilDiv) {
    EXPECT_EQ(ceil_div(0, 4), 0u);
    EXPECT_EQ(ceil_div(1, 4), 1u);
    EXPECT_EQ(ceil_div(4, 4), 1u);
    EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(BitOps, IsPow2) {
    EXPECT_FALSE(is_pow2(0));
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(64));
    EXPECT_FALSE(is_pow2(65));
}

TEST(BitOps, Popcount64) {
    EXPECT_EQ(popcount64(0), 0);
    EXPECT_EQ(popcount64(1), 1);
    EXPECT_EQ(popcount64(~std::uint64_t{0}), 64);
    EXPECT_EQ(popcount64(0x8000000000000001ULL), 2);
    EXPECT_EQ(popcount64(0x5555555555555555ULL), 32);
}

TEST(BitOps, LowestSetBit) {
    EXPECT_EQ(lowest_set_bit(1), 0);
    EXPECT_EQ(lowest_set_bit(0x80), 7);
    EXPECT_EQ(lowest_set_bit(std::uint64_t{1} << 63), 63);
}

TEST(BitOps, ForEachSetBitVisitsAscending) {
    std::vector<int> seen;
    for_each_set_bit(0x8000000000000105ULL, [&](int b) { seen.push_back(b); });
    EXPECT_EQ(seen, (std::vector<int>{0, 2, 8, 63}));
    seen.clear();
    for_each_set_bit(0, [&](int b) { seen.push_back(b); });
    EXPECT_TRUE(seen.empty());
}

// --------------------------------- rng -----------------------------------

TEST(Rng, DeterministicForSeed) {
    Rng a{42}, b{42};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a{1}, b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a() == b();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Rng, BelowIsRoughlyUniform) {
    Rng rng{9};
    std::array<int, 8> histogram{};
    constexpr int kDraws = 80000;
    for (int i = 0; i < kDraws; ++i) ++histogram[rng.below(8)];
    for (const auto count : histogram) {
        EXPECT_NEAR(count, kDraws / 8, kDraws / 80);
    }
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng{13};
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng a{5};
    Rng b = a.split(1);
    Rng c = a.split(2);
    EXPECT_NE(b(), c());
}

// ------------------------------ thread pool ------------------------------

TEST(ThreadPool, RunsAllJobs) {
    ThreadPool pool{4};
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool{2};
    pool.wait_idle();  // must not deadlock
    SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequested) {
    ThreadPool pool{3};
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ReusableAcrossBatches) {
    ThreadPool pool{2};
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 5; ++batch) {
        for (int i = 0; i < 20; ++i) pool.submit([&counter] { ++counter; });
        pool.wait_idle();
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitManyRunsAllJobs) {
    ThreadPool pool{4};
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 250; ++i) jobs.emplace_back([&counter] { ++counter; });
    pool.submit_many(std::move(jobs));
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPool, SubmitManyEmptyBatchIsNoop) {
    ThreadPool pool{2};
    pool.submit_many({});
    pool.wait_idle();
    SUCCEED();
}

TEST(ThreadPool, RunDynamicCoversEveryTicketExactlyOnce) {
    ThreadPool pool{4};
    std::vector<std::atomic<int>> hits(1000);
    pool.run_dynamic(hits.size(), [&](std::size_t t) { hits[t].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunDynamicZeroTicketsReturns) {
    ThreadPool pool{2};
    bool called = false;
    pool.run_dynamic(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, RunDynamicSingleTicket) {
    ThreadPool pool{4};
    std::atomic<int> counter{0};
    pool.run_dynamic(1, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, RunDynamicBackToBackLaunches) {
    ThreadPool pool{4};
    std::atomic<int> counter{0};
    for (int round = 0; round < 20; ++round) {
        pool.run_dynamic(50, [&](std::size_t) { ++counter; });
    }
    EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, RunDynamicReentrantFromTicketBody) {
    // A ticket body launching its own bulk must make progress even when every
    // other worker is busy: the inner launcher claims its own tickets.
    ThreadPool pool{2};
    std::atomic<int> counter{0};
    pool.run_dynamic(4, [&](std::size_t) {
        pool.run_dynamic(8, [&](std::size_t) { ++counter; });
    });
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, RunDynamicConcurrentLaunchers) {
    ThreadPool pool{4};
    std::atomic<int> counter{0};
    // Raw threads on purpose: this test hammers the pool from *external*
    // launcher threads to prove run_dynamic is safe to call concurrently.
    std::vector<std::thread> launchers;  // lint:allow(std-thread)
    for (int l = 0; l < 3; ++l) {
        launchers.emplace_back([&pool, &counter] {
            pool.run_dynamic(200, [&](std::size_t) { ++counter; });
        });
    }
    for (auto& t : launchers) t.join();
    EXPECT_EQ(counter.load(), 600);
}

TEST(ThreadPool, RunDynamicInterleavesWithSubmit) {
    ThreadPool pool{4};
    std::atomic<int> jobs{0};
    std::atomic<int> tickets{0};
    for (int i = 0; i < 50; ++i) pool.submit([&jobs] { ++jobs; });
    pool.run_dynamic(100, [&](std::size_t) { ++tickets; });
    pool.wait_idle();
    EXPECT_EQ(jobs.load(), 50);
    EXPECT_EQ(tickets.load(), 100);
}

// ------------------------------- parallel --------------------------------

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
    ThreadPool pool{4};
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(&pool, hits.size(), 16, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ForWithNullPoolIsSequential) {
    std::vector<int> hits(257, 0);
    parallel_for(nullptr, hits.size(), 16, [&](std::size_t i) { hits[i] += 1; });
    for (const auto h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ForZeroElementsIsNoop) {
    ThreadPool pool{2};
    bool called = false;
    parallel_for(&pool, 0, 1, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, ChunksPartitionTheRange) {
    ThreadPool pool{4};
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallel_for_chunks(&pool, 1000, 10, [&](std::size_t b, std::size_t e) {
        std::lock_guard lock{m};
        chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    std::size_t expected_begin = 0;
    for (const auto& [b, e] : chunks) {
        EXPECT_EQ(b, expected_begin);
        EXPECT_LT(b, e);
        expected_begin = e;
    }
    EXPECT_EQ(expected_begin, 1000u);
}

TEST(Parallel, StaticScheduleCoversEveryIndexExactlyOnce) {
    ThreadPool pool{4};
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(
        &pool, hits.size(), 16, [&](std::size_t i) { hits[i].fetch_add(1); },
        Schedule::Static);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, BothSchedulesHandleGrainEdgeCases) {
    ThreadPool pool{3};
    for (const auto schedule : {Schedule::Dynamic, Schedule::Static}) {
        for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
            std::vector<std::atomic<int>> hits(97);
            parallel_for(
                &pool, hits.size(), grain, [&](std::size_t i) { hits[i].fetch_add(1); },
                schedule);
            for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
        }
    }
}

TEST(Parallel, StaticChunksPartitionTheRange) {
    ThreadPool pool{4};
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallel_for_chunks(
        &pool, 1000, 10,
        [&](std::size_t b, std::size_t e) {
            std::lock_guard lock{m};
            chunks.emplace_back(b, e);
        },
        Schedule::Static);
    std::sort(chunks.begin(), chunks.end());
    std::size_t expected_begin = 0;
    for (const auto& [b, e] : chunks) {
        EXPECT_EQ(b, expected_begin);
        EXPECT_LT(b, e);
        expected_begin = e;
    }
    EXPECT_EQ(expected_begin, 1000u);
}

TEST(Parallel, ExclusiveScanMatchesStdVersion) {
    std::vector<std::uint32_t> data{3, 0, 7, 1, 4};
    const auto total = exclusive_scan(data);
    EXPECT_EQ(total, 15u);
    EXPECT_EQ(data, (std::vector<std::uint32_t>{0, 3, 3, 10, 11}));
}

TEST(Parallel, ExclusiveScanEmpty) {
    std::vector<std::uint32_t> data;
    EXPECT_EQ(exclusive_scan(data), 0u);
}

TEST(Parallel, ExclusiveScan64) {
    std::vector<std::uint64_t> data{1, 2, 3};
    EXPECT_EQ(exclusive_scan(data), 6u);
    EXPECT_EQ(data, (std::vector<std::uint64_t>{0, 1, 3}));
}

TEST(Parallel, ParallelExclusiveScanMatchesSequential) {
    ThreadPool pool{4};
    Rng rng{99};
    // Spans both the sequential small-input fallback and the two-level path.
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1000},
                                std::size_t{100000}}) {
        std::vector<std::uint32_t> data(n);
        for (auto& v : data) v = static_cast<std::uint32_t>(rng.below(100));
        auto expected = data;
        const auto expected_total = exclusive_scan(expected);
        const auto total = exclusive_scan(&pool, data);
        EXPECT_EQ(total, expected_total) << "n=" << n;
        EXPECT_EQ(data, expected) << "n=" << n;
    }
}

TEST(Parallel, ParallelExclusiveScanNullPoolFallsBack) {
    std::vector<std::uint32_t> data{5, 1, 2};
    EXPECT_EQ(exclusive_scan(nullptr, data), 8u);
    EXPECT_EQ(data, (std::vector<std::uint32_t>{0, 5, 6}));
}

// --------------------------------- zipf ----------------------------------

TEST(Zipf, UniformWhenSkewZero) {
    ZipfSampler z{4, 0.0};
    Rng rng{21};
    std::array<int, 4> histogram{};
    for (int i = 0; i < 40000; ++i) ++histogram[z(rng)];
    for (const auto count : histogram) EXPECT_NEAR(count, 10000, 800);
}

TEST(Zipf, SkewedFavoursSmallIndices) {
    ZipfSampler z{16, 1.2};
    Rng rng{22};
    std::array<int, 16> histogram{};
    for (int i = 0; i < 40000; ++i) ++histogram[z(rng)];
    EXPECT_GT(histogram[0], histogram[1]);
    EXPECT_GT(histogram[1], histogram[4]);
    EXPECT_GT(histogram[0], 4 * histogram[8]);
}

TEST(Zipf, SamplesInRange) {
    ZipfSampler z{5, 2.0};
    Rng rng{23};
    for (int i = 0; i < 1000; ++i) EXPECT_LT(z(rng), 5u);
}

}  // namespace
}  // namespace spbla::util
