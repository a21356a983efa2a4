/// \file test_telemetry.cpp
/// \brief spbla::telemetry — sharded registry arithmetic under pool
/// concurrency, log2 bucket boundaries, quantile estimation, JSON and
/// Prometheus exporters, the crash flight ring, and the dispatcher's
/// always-on instrumentation invariants.
///
/// The registry is process-global and other suites in this binary would
/// pollute it, so every test that asserts absolute values first calls
/// telemetry::reset() and computes deltas from a fresh snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "backend/context.hpp"
#include "helpers.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"
#include "util/thread_pool.hpp"

namespace spbla {
namespace {

using testing::ctx;

// --------------------------- bucket arithmetic -----------------------------

TEST(TelemetryBuckets, BucketOfMatchesBitWidth) {
    EXPECT_EQ(telemetry::bucket_of(0), 0u);
    EXPECT_EQ(telemetry::bucket_of(1), 1u);
    EXPECT_EQ(telemetry::bucket_of(2), 2u);
    EXPECT_EQ(telemetry::bucket_of(3), 2u);
    EXPECT_EQ(telemetry::bucket_of(4), 3u);
    EXPECT_EQ(telemetry::bucket_of(7), 3u);
    EXPECT_EQ(telemetry::bucket_of(8), 4u);
    EXPECT_EQ(telemetry::bucket_of(1023), 10u);
    EXPECT_EQ(telemetry::bucket_of(1024), 11u);
    EXPECT_EQ(telemetry::bucket_of(~std::uint64_t{0}),
              telemetry::kHistogramBuckets - 1);
}

TEST(TelemetryBuckets, EveryBucketBoundaryRoundTrips) {
    // For each bucket i, the inclusive upper bound must land in bucket i and
    // upper+1 in bucket i+1 (except at the 64-bit ceiling).
    for (std::size_t i = 0; i < telemetry::kHistogramBuckets; ++i) {
        const std::uint64_t upper = telemetry::bucket_upper(i);
        EXPECT_EQ(telemetry::bucket_of(upper), i) << "bucket " << i;
        if (i + 1 < telemetry::kHistogramBuckets) {
            EXPECT_EQ(telemetry::bucket_of(upper + 1), i + 1) << "bucket " << i;
        }
    }
    EXPECT_EQ(telemetry::bucket_upper(0), 0u);
    EXPECT_EQ(telemetry::bucket_upper(1), 1u);
    EXPECT_EQ(telemetry::bucket_upper(4), 15u);
}

TEST(TelemetryBuckets, QuantileReturnsBucketUpperAtNearestRank) {
    telemetry::HistogramSnapshot hist;
    EXPECT_EQ(hist.quantile(0.5), 0u);  // empty histogram

    // 90 observations of 1 (bucket 1) and 10 of 1000 (bucket 10): the p50
    // lands in bucket 1, the p95 and p99 in bucket 10.
    hist.count = 100;
    hist.buckets[telemetry::bucket_of(1)] = 90;
    hist.buckets[telemetry::bucket_of(1000)] = 10;
    EXPECT_EQ(hist.quantile(0.50), telemetry::bucket_upper(1));
    EXPECT_EQ(hist.quantile(0.90), telemetry::bucket_upper(1));
    EXPECT_EQ(hist.quantile(0.95), telemetry::bucket_upper(10));
    EXPECT_EQ(hist.quantile(0.99), telemetry::bucket_upper(10));
}

// ----------------------------- registry ------------------------------------

TEST(TelemetryRegistry, CountersAndHistogramsAggregate) {
    telemetry::reset();
    telemetry::count(telemetry::Counter::ProfSpans, 3);
    telemetry::count(telemetry::Counter::ProfSpans);
    telemetry::observe(telemetry::Histogram::ProfSpanNs, 0);
    telemetry::observe(telemetry::Histogram::ProfSpanNs, 5);
    telemetry::observe(telemetry::Histogram::ProfSpanNs, 300);

    const auto snap = telemetry::snapshot();
    EXPECT_EQ(snap.counter(telemetry::Counter::ProfSpans), 4u);
    const auto& hist = snap.histogram(telemetry::Histogram::ProfSpanNs);
    EXPECT_EQ(hist.count, 3u);
    EXPECT_EQ(hist.sum, 305u);
    EXPECT_EQ(hist.max, 300u);
    EXPECT_EQ(hist.buckets[telemetry::bucket_of(0)], 1u);
    EXPECT_EQ(hist.buckets[telemetry::bucket_of(5)], 1u);
    EXPECT_EQ(hist.buckets[telemetry::bucket_of(300)], 1u);

    telemetry::reset();
    const auto clean = telemetry::snapshot();
    EXPECT_EQ(clean.counter(telemetry::Counter::ProfSpans), 0u);
    EXPECT_EQ(clean.histogram(telemetry::Histogram::ProfSpanNs).count, 0u);
}

TEST(TelemetryRegistry, GaugeSemantics) {
    telemetry::gauge_set(telemetry::Gauge::PoolQueueDepth, 7);
    EXPECT_EQ(telemetry::gauge_add(telemetry::Gauge::PoolQueueDepth, -3), 4);
    telemetry::gauge_max(telemetry::Gauge::PoolQueueDepth, 2);  // no-op, lower
    EXPECT_EQ(telemetry::snapshot().gauge(telemetry::Gauge::PoolQueueDepth), 4);
    telemetry::gauge_max(telemetry::Gauge::PoolQueueDepth, 9);
    EXPECT_EQ(telemetry::snapshot().gauge(telemetry::Gauge::PoolQueueDepth), 9);
    telemetry::gauge_set(telemetry::Gauge::PoolQueueDepth, 0);
}

TEST(TelemetryRegistry, ResetRebaselinesPeakToLive) {
    const auto live0 =
        telemetry::snapshot().gauge(telemetry::Gauge::MemLiveBytes);
    telemetry::gauge_max(telemetry::Gauge::MemPeakBytes, live0 + (1 << 20));
    telemetry::reset();
    const auto snap = telemetry::snapshot();
    EXPECT_EQ(snap.gauge(telemetry::Gauge::MemPeakBytes),
              snap.gauge(telemetry::Gauge::MemLiveBytes));
}

/// 8 pool workers hammer the same counter, histogram and gauge; the
/// aggregated totals must be exact (the shards are per-thread, so this is
/// the test that a shard is never lost or double-merged). Runs under the
/// `parallel` TSan label.
TEST(TelemetryRegistry, ExactUnderPoolConcurrency) {
    telemetry::reset();
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;

    util::ThreadPool pool(kThreads);
    pool.run_dynamic(kThreads, [&](std::size_t t) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            telemetry::count(telemetry::Counter::ProfSpans);
            telemetry::observe(telemetry::Histogram::ProfSpanNs, t + 1);
            telemetry::gauge_add(telemetry::Gauge::PoolInFlight, 1);
            telemetry::gauge_add(telemetry::Gauge::PoolInFlight, -1);
        }
    });
    pool.wait_idle();

    const auto snap = telemetry::snapshot();
    EXPECT_EQ(snap.counter(telemetry::Counter::ProfSpans),
              kThreads * kPerThread);
    const auto& hist = snap.histogram(telemetry::Histogram::ProfSpanNs);
    EXPECT_EQ(hist.count, kThreads * kPerThread);
    std::uint64_t bucket_sum = 0;
    for (const auto b : hist.buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, hist.count);
    EXPECT_EQ(snap.gauge(telemetry::Gauge::PoolInFlight), 0);
    telemetry::reset();
}

// ----------------------------- exporters -----------------------------------

TEST(TelemetryExport, JsonEscaping) {
    EXPECT_EQ(telemetry::json_escape("plain"), "plain");
    EXPECT_EQ(telemetry::json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(telemetry::json_escape("tab\there"), "tab\\there");
    EXPECT_EQ(telemetry::json_escape(std::string("nul\0byte", 8)),
              "nul\\u0000byte");
}

TEST(TelemetryExport, JsonCarriesSchemaAndRecordedValues) {
    telemetry::reset();
    telemetry::count(telemetry::Counter::DispatchOps, 12);
    telemetry::observe(telemetry::Histogram::OpNnzIn, 100);

    const auto json = telemetry::to_json(telemetry::snapshot());
    EXPECT_NE(json.find("\"schema\": \"spbla.metrics.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"spbla.dispatch.ops\": 12"), std::string::npos);
    EXPECT_NE(json.find("\"spbla.op.nnz_in\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    telemetry::reset();
}

TEST(TelemetryExport, PrometheusShapeIsWellFormed) {
    telemetry::reset();
    telemetry::count(telemetry::Counter::DispatchOps, 5);
    telemetry::observe(telemetry::Histogram::OpNnzIn, 3);
    telemetry::observe(telemetry::Histogram::OpNnzIn, 900);

    const auto text = telemetry::to_prometheus(telemetry::snapshot());
    EXPECT_NE(text.find("# TYPE spbla_dispatch_ops counter"),
              std::string::npos);
    EXPECT_NE(text.find("spbla_dispatch_ops 5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE spbla_op_nnz_in histogram"), std::string::npos);
    // Cumulative buckets end in +Inf == _count.
    EXPECT_NE(text.find("spbla_op_nnz_in_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("spbla_op_nnz_in_count 2"), std::string::npos);
    EXPECT_NE(text.find("spbla_op_nnz_in_sum 903"), std::string::npos);
    // Dots never survive into Prometheus metric names.
    EXPECT_EQ(text.find("spbla."), std::string::npos);
    telemetry::reset();
}

TEST(TelemetryExport, ContextSnapshotMatchesFreeFunction) {
    telemetry::reset();
    telemetry::count(telemetry::Counter::DispatchOps, 2);
    const auto snap = backend::Context::metrics_snapshot();
    EXPECT_EQ(snap.counter(telemetry::Counter::DispatchOps), 2u);
    telemetry::reset();
}

// ----------------------------- flight ring ---------------------------------

TEST(TelemetryFlight, RingWrapKeepsNewestInOrder) {
    const auto base = telemetry::flight::total_recorded();
    constexpr std::uint64_t kRecords = telemetry::flight::kCapacity + 70;
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
        telemetry::flight::record("test_op", "csr", 10, 20, i, i * 2, i * 100);
    }
    EXPECT_EQ(telemetry::flight::total_recorded(), base + kRecords);

    const auto records = telemetry::flight::snapshot_records();
    ASSERT_EQ(records.size(), telemetry::flight::kCapacity);
    // Oldest-first, strictly consecutive seq, ending at the global head.
    for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
    }
    EXPECT_EQ(records.back().seq, base + kRecords);
    EXPECT_STREQ(records.back().op, "test_op");
    EXPECT_STREQ(records.back().format, "csr");
    EXPECT_EQ(records.back().nnz_in, kRecords);
    EXPECT_EQ(records.back().nnz_out, kRecords * 2);
    EXPECT_EQ(records.back().duration_ns, kRecords * 100);
}

TEST(TelemetryFlight, LongNamesAreTruncatedNotOverflowed) {
    telemetry::flight::record("an_operation_name_far_too_long",
                              "a_format_name_too_long", 1, 1, 0, 0, 0);
    const auto records = telemetry::flight::snapshot_records();
    ASSERT_FALSE(records.empty());
    const auto& last = records.back();
    EXPECT_LT(std::string(last.op).size(), sizeof(last.op));
    EXPECT_LT(std::string(last.format).size(), sizeof(last.format));
    EXPECT_EQ(std::string(last.op).rfind("an_operation", 0), 0u);
}

/// Concurrent recorders racing across a ring wrap: every published slot a
/// reader returns must be internally consistent (seq matches the payload the
/// writer stamped). Runs under the `parallel` TSan label — this is the
/// seqlock protocol's race test.
TEST(TelemetryFlight, ConcurrentRecordAndSnapshot) {
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 2000;
    util::ThreadPool pool(kThreads);
    pool.run_dynamic(kThreads, [&](std::size_t t) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            telemetry::flight::record("race_op", "coo", 1, 1, t, i, 1);
            if (i % 128 == 0) {
                // Interleave readers with writers mid-wrap.
                const auto records = telemetry::flight::snapshot_records();
                for (std::size_t k = 1; k < records.size(); ++k) {
                    EXPECT_GT(records[k].seq, records[k - 1].seq);
                }
            }
        }
    });
    pool.wait_idle();
}

// ------------------------ dispatcher instrumentation -----------------------

using TelemetryDispatch = spbla::testing::CheckedContext;

TEST_F(TelemetryDispatch, OpsLandInExactlyOneLatencyHistogram) {
    telemetry::reset();
    const auto a = testing::random_matrix(48, 48, 0.10, 7001);
    const auto b = testing::random_matrix(48, 48, 0.12, 7002);

    const auto c = storage::multiply(ctx(), a, b);
    const auto d = storage::ewise_add(ctx(), a, b);
    const auto e = storage::transpose(ctx(), a);
    (void)c; (void)d; (void)e;

    const auto snap = telemetry::snapshot();
    const auto ops = snap.counter(telemetry::Counter::DispatchOps);
    EXPECT_EQ(ops, 3u);
    EXPECT_EQ(snap.histogram(telemetry::Histogram::OpLatencyCsrNs).count, ops);
    EXPECT_EQ(snap.histogram(telemetry::Histogram::OpLatencyBitBlocksNs).count, 0u);
    EXPECT_EQ(snap.histogram(telemetry::Histogram::OpNnzIn).count, ops);
    EXPECT_EQ(snap.histogram(telemetry::Histogram::OpNnzOut).count, ops);

    // The flight ring saw the same ops the histograms timed.
    const auto records = telemetry::flight::snapshot_records();
    ASSERT_FALSE(records.empty());
    bool saw_multiply = false;
    for (const auto& r : records) {
        if (std::string(r.op) == "multiply") saw_multiply = true;
    }
    EXPECT_TRUE(saw_multiply);
    telemetry::reset();
}

TEST_F(TelemetryDispatch, EveryOpIsACsrPickAndRetiredRoutesReadZero) {
    telemetry::reset();
    const auto a = testing::random_matrix(32, 32, 0.15, 7003);
    const auto b = testing::random_matrix(32, 32, 0.15, 7004);
    (void)storage::multiply(ctx(), a, b);
    (void)storage::ewise_mult(ctx(), a, b);

    const auto snap = telemetry::snapshot();
    EXPECT_EQ(snap.counter(telemetry::Counter::DispatchCsr),
              snap.counter(telemetry::Counter::DispatchOps));
    EXPECT_EQ(snap.counter(telemetry::Counter::DispatchCsr),
              snap.histogram(telemetry::Histogram::OpLatencyCsrNs).count);
    // Kept registered for the end-to-end benchmark, which still reads them.
    for (const auto retired :
         {telemetry::Counter::DispatchCoo, telemetry::Counter::DispatchDense,
          telemetry::Counter::DispatchBitBlocks, telemetry::Counter::StorageConversions,
          telemetry::Counter::StorageCacheHits}) {
        EXPECT_EQ(snap.counter(retired), 0u) << telemetry::name(retired);
    }
    telemetry::reset();
}

TEST_F(TelemetryDispatch, MemoryGaugesTrackTheTracker) {
    telemetry::reset();
    {
        const auto a = testing::random_matrix(64, 64, 0.2, 7005);
        // A warm op arena serves a multiply without touching the tracker;
        // dropping the retained slabs makes this one reserve afresh.
        ctx().trim_device_scratch();
        const auto b = storage::multiply(ctx(), a, a);
        (void)b;
        const auto snap = telemetry::snapshot();
        EXPECT_GT(snap.counter(telemetry::Counter::MemAllocs), 0u);
        EXPECT_GE(snap.gauge(telemetry::Gauge::MemPeakBytes),
                  snap.gauge(telemetry::Gauge::MemLiveBytes));
    }
    const auto snap = telemetry::snapshot();
    EXPECT_GE(snap.counter(telemetry::Counter::MemFrees), 0u);
    telemetry::reset();
}

}  // namespace
}  // namespace spbla
