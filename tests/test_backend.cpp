#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

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

TEST(Context, DefaultContextIsSingleton) {
    EXPECT_EQ(&default_context(), &default_context());
}

}  // namespace
}  // namespace spbla::backend
