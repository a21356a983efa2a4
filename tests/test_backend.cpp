#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "backend/block_cache.hpp"
#include "backend/context.hpp"
#include "backend/device_buffer.hpp"
#include "backend/memory_tracker.hpp"

namespace spbla::backend {
namespace {

TEST(MemoryTracker, TracksCurrentAndPeak) {
    MemoryTracker t;
    t.on_alloc(100);
    t.on_alloc(50);
    EXPECT_EQ(t.current_bytes(), 150u);
    EXPECT_EQ(t.peak_bytes(), 150u);
    t.on_free(100);
    EXPECT_EQ(t.current_bytes(), 50u);
    EXPECT_EQ(t.peak_bytes(), 150u);  // high-water mark persists
    t.on_alloc(10);
    EXPECT_EQ(t.peak_bytes(), 150u);
}

TEST(MemoryTracker, ResetPeakDropsToCurrent) {
    MemoryTracker t;
    t.on_alloc(100);
    t.on_free(100);
    t.reset_peak();
    EXPECT_EQ(t.peak_bytes(), 0u);
}

TEST(MemoryTracker, CountsAllocations) {
    MemoryTracker t;
    t.on_alloc(1);
    t.on_alloc(1);
    EXPECT_EQ(t.alloc_count(), 2u);
}

TEST(DeviceBuffer, ChargesAndReleasesTracker) {
    MemoryTracker t;
    {
        DeviceBuffer<std::uint32_t> buf{&t, 10};
        EXPECT_EQ(buf.size(), 10u);
        EXPECT_EQ(t.current_bytes(), 40u);
    }
    EXPECT_EQ(t.current_bytes(), 0u);
    EXPECT_EQ(t.peak_bytes(), 40u);
}

TEST(DeviceBuffer, CopyChargesTwice) {
    MemoryTracker t;
    DeviceBuffer<std::uint64_t> a{&t, 4};
    DeviceBuffer<std::uint64_t> b{a};
    EXPECT_EQ(t.current_bytes(), 2 * 4 * sizeof(std::uint64_t));
    b.release();
    EXPECT_EQ(t.current_bytes(), 4 * sizeof(std::uint64_t));
    a.release();
    EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(DeviceBuffer, CopyDuplicatesContents) {
    MemoryTracker t;
    DeviceBuffer<std::uint32_t> a{&t, 6};
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<std::uint32_t>(10 * i);
    DeviceBuffer<std::uint32_t> b{a};
    a[0] = 99;
    ASSERT_EQ(b.size(), 6u);
    EXPECT_NE(b.data(), a.data());
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 10 * i);
}

TEST(DeviceBuffer, MoveDoesNotDoubleCharge) {
    MemoryTracker t;
    DeviceBuffer<int> a{&t, 8};
    const auto bytes = t.current_bytes();
    DeviceBuffer<int> b{std::move(a)};
    EXPECT_EQ(t.current_bytes(), bytes);
    b.release();
    EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(DeviceBuffer, ElementsAreWritable) {
    MemoryTracker t;
    DeviceBuffer<int> buf{&t, 5};
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<int>(i * i);
    EXPECT_EQ(buf[3], 9);
}

TEST(Context, SequentialPolicyHasNoPool) {
    Context ctx{Policy::Sequential};
    EXPECT_EQ(ctx.pool(), nullptr);
    EXPECT_EQ(ctx.policy(), Policy::Sequential);
}

TEST(Context, ParallelPolicyHasPool) {
    Context ctx{Policy::Parallel, 2};
    ASSERT_NE(ctx.pool(), nullptr);
    EXPECT_EQ(ctx.pool()->size(), 2u);
}

TEST(Context, ParallelForChunksWorksUnderBothPolicies) {
    for (const auto policy : {Policy::Sequential, Policy::Parallel}) {
        Context ctx{policy, 2};
        std::vector<std::atomic<int>> hits(100);
        ctx.parallel_for_chunks(hits.size(), 8, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
        bool called = false;
        ctx.parallel_for_chunks(0, 8, [&](std::size_t, std::size_t) { called = true; });
        EXPECT_FALSE(called);
    }
}

TEST(Context, AllocChargesItsTracker) {
    Context ctx{Policy::Sequential};
    {
        auto buf = ctx.alloc<std::uint32_t>(100);
        EXPECT_EQ(ctx.tracker().current_bytes(), 400u);
    }
    EXPECT_EQ(ctx.tracker().current_bytes(), 0u);
}

TEST(Context, FreedSegmentsAreReusedUncharged) {
    Context ctx{Policy::Sequential};
    const std::uint32_t* first = nullptr;
    {
        auto seg = ctx.alloc_segment<std::uint32_t>(4096);
        first = seg.data();
        EXPECT_EQ(ctx.tracker().current_bytes(), 16384u);
    }
    // The freed block waits in the cache, charged to nobody.
    EXPECT_EQ(ctx.tracker().current_bytes(), 0u);
    EXPECT_EQ(ctx.cached_segment_bytes(), 16384u);
    {
        // Same byte size, other element type: the cached block comes back.
        auto seg = ctx.alloc_segment<float>(4096);
        EXPECT_EQ(static_cast<const void*>(seg.data()), static_cast<const void*>(first));
        EXPECT_EQ(ctx.cached_segment_bytes(), 0u);
        EXPECT_EQ(ctx.tracker().current_bytes(), 16384u);
        // Another size misses the cache.
        auto other = ctx.alloc_segment<std::uint32_t>(2048);
        EXPECT_EQ(ctx.tracker().current_bytes(), 16384u + 8192u);
    }
    EXPECT_EQ(ctx.cached_segment_bytes(), 16384u + 8192u);
    // A size that is not a power of two is freed, not kept.
    { auto odd = ctx.alloc_segment<std::uint32_t>(3000); }
    EXPECT_EQ(ctx.cached_segment_bytes(), 16384u + 8192u);
    EXPECT_EQ(ctx.tracker().current_bytes(), 0u);
    // alloc() never takes from the cache nor gives to it.
    { auto plain = ctx.alloc<std::uint32_t>(4096); }
    EXPECT_EQ(ctx.cached_segment_bytes(), 16384u + 8192u);
}

TEST(BlockCache, HoldsAtMostItsLimit) {
    BlockCache cache;
    constexpr std::size_t kBlock = BlockCache::kMaxBytes / 4;
    for (int k = 0; k < 5; ++k) {
        cache.give(std::make_unique_for_overwrite<std::byte[]>(kBlock), kBlock);
    }
    EXPECT_EQ(cache.cached_bytes(), BlockCache::kMaxBytes);
    for (int k = 0; k < 4; ++k) EXPECT_NE(cache.take(kBlock), nullptr);
    EXPECT_EQ(cache.take(kBlock), nullptr);
    EXPECT_EQ(cache.cached_bytes(), 0u);
}

TEST(Context, DefaultContextIsSingleton) {
    EXPECT_EQ(&default_context(), &default_context());
}

}  // namespace
}  // namespace spbla::backend
