/// \file test_thread_safety.cpp
/// \brief Races the synchronised Matrix repr cache under real concurrency.
///
/// First materialisation of a representation is synchronised by a per-slot
/// latch. These tests pin that contract directly: both representations of
/// one handle materialised from 8 pool threads at once, conversions run
/// exactly once, tracker charges balance. They carry
/// the `parallel` ctest label, so the tsan preset (`ctest -L parallel`)
/// race-checks them — the parallel-capture suppressions below are the
/// sanctioned kind: hammering accessors from a parallel region is the
/// point of the file.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "backend/context.hpp"
#include "helpers.hpp"
#include "storage/matrix.hpp"
#include "telemetry/metrics.hpp"

namespace spbla {
namespace {

/// More workers than formats, so several threads always collide on the
/// same missing slot.
constexpr std::size_t kThreads = 8;

/// Conversions and cache stores so far, read from the telemetry counters.
struct StatsDelta {
    std::uint64_t conversions;
    std::uint64_t stores;

    static StatsDelta now() {
        const auto snap = telemetry::snapshot();
        return {snap.counter(telemetry::Counter::StorageConversions),
                snap.counter(telemetry::Counter::StorageCacheStores)};
    }
};

TEST(ThreadSafety, ConcurrentFirstMaterialisationAllFormats) {
    backend::Context dev{backend::Policy::Parallel, kThreads};
    {
        const Matrix m{testing::random_csr(96, 80, 0.08, /*seed=*/7), dev};
        const std::vector<Coord> expected = m.to_coords();

        for (int round = 0; round < 4; ++round) {
            const StatsDelta before = StatsDelta::now();
            std::atomic<int> mismatches{0};
            dev.pool()->run_dynamic(kThreads * 2, [&](std::size_t t) {
                std::vector<Coord> got;
                if (t % kNumFormats == 0) {
                    got = m.csr(dev).to_coords();  // lint:allow(parallel-capture)
                } else {
                    got = m.bitblocks(dev).to_coords();  // lint:allow(parallel-capture)
                }
                if (got != expected) mismatches.fetch_add(1);
            });
            EXPECT_EQ(mismatches.load(), 0);

            // Losing racers must reuse the winner's conversion: exactly one
            // conversion (and one cache store) for the secondary format, no
            // matter how many threads collided on the empty slot.
            const StatsDelta after = StatsDelta::now();
            EXPECT_EQ(after.conversions - before.conversions, kNumFormats - 1);
            EXPECT_EQ(after.stores - before.stores, kNumFormats - 1);

            m.drop_cached();  // re-race first materialisation next round
        }
    }
    EXPECT_EQ(dev.tracker().current_bytes(), 0u) << dev.tracker().leak_report();
}

TEST(ThreadSafety, ConcurrentMixedReadersAndMaterialisers) {
    backend::Context dev{backend::Policy::Parallel, kThreads};
    {
        const Matrix m{testing::random_csr(64, 64, 0.2, /*seed=*/11), dev};
        // Counted as a TU prewarm by the lint rule: m's CSR is read
        // serially before the parallel region.
        const std::size_t expected_nnz = m.csr(dev).nnz();

        std::atomic<int> bad{0};
        dev.pool()->run_dynamic(kThreads * 6, [&](std::size_t t) {
            switch (t % 3) {
                case 0:  // lock-free primary read path
                    if (m.csr(dev).nnz() != expected_nnz) bad.fetch_add(1);
                    break;
                case 1:  // secondary materialisation race
                    if (m.bitblocks(dev).nnz() != expected_nnz) bad.fetch_add(1);  // lint:allow(parallel-capture)
                    break;
                default:  // metadata + charge accounting reads
                    (void)m.has_format(Format::BitBlocks);
                    (void)m.cached_bytes();
                    break;
            }
        });
        EXPECT_EQ(bad.load(), 0);
    }
    EXPECT_EQ(dev.tracker().current_bytes(), 0u) << dev.tracker().leak_report();
}

TEST(ThreadSafety, ChargesBalanceAfterMaterialisationRace) {
    backend::Context dev{backend::Policy::Parallel, kThreads};
    const std::size_t gauge_before = storage::cached_bytes();
    {
        const Matrix m{testing::random_csr(72, 72, 0.1, /*seed=*/23), dev};
        const std::size_t primary_bytes = dev.tracker().current_bytes();

        dev.pool()->run_dynamic(kThreads * 2, [&](std::size_t t) {
            if (t % kNumFormats == 0) {
                (void)m.csr(dev);
            } else {
                (void)m.bitblocks(dev);  // lint:allow(parallel-capture)
            }
        });

        // Exactly one charge for the secondary, regardless of the race
        // outcome.
        const std::size_t secondaries = m.bitblocks(dev).device_bytes();
        EXPECT_EQ(m.cached_bytes(), secondaries);
        EXPECT_EQ(dev.tracker().current_bytes(), primary_bytes + secondaries);
        EXPECT_EQ(storage::cached_bytes(), gauge_before + secondaries);

        m.drop_cached();
        EXPECT_EQ(m.cached_bytes(), 0u);
        EXPECT_EQ(dev.tracker().current_bytes(), primary_bytes);
    }
    EXPECT_EQ(storage::cached_bytes(), gauge_before);
    EXPECT_EQ(dev.tracker().current_bytes(), 0u) << dev.tracker().leak_report();
}

}  // namespace
}  // namespace spbla
