/// \file test_prof.cpp
/// \brief spbla::prof — span nesting, iteration spans, runtime gating,
/// ring-buffer wrap and thread-safety, Chrome-trace and summary export, the
/// shared clock and thread id with the flight recorder, and the
/// profiling-build kernel-work tallies the trace embeds.
///
/// The prof runtime (registration, rings, export) is compiled in every
/// build; only the kernel-work tally test skips itself when the build
/// compiled the instrumentation out (SPBLA_PROFILE=off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "backend/context.hpp"
#include "data/rmat.hpp"
#include "helpers.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metric_names.hpp"
#include "telemetry/metrics.hpp"

namespace spbla {
namespace {

using testing::ctx;

// --------------------------- minimal JSON parser ---------------------------
// Structural validator for the Chrome-trace export: accepts exactly the JSON
// value grammar (no extensions), so an unbalanced bracket, trailing comma or
// unescaped quote in the exporter fails the golden check.

bool parse_value(const std::string& s, std::size_t& i);

void skip_ws(const std::string& s, std::size_t& i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
}

bool parse_string(const std::string& s, std::size_t& i) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
        if (s[i] == '\\') {
            ++i;
            if (i >= s.size()) return false;
        }
        ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
}

bool parse_number(const std::string& s, std::size_t& i) {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '+' || s[i] == '-')) {
        ++i;
    }
    return i > start;
}

bool parse_container(const std::string& s, std::size_t& i, char open, char close,
                     bool object) {
    if (i >= s.size() || s[i] != open) return false;
    ++i;
    skip_ws(s, i);
    if (i < s.size() && s[i] == close) {
        ++i;
        return true;
    }
    for (;;) {
        skip_ws(s, i);
        if (object) {
            if (!parse_string(s, i)) return false;
            skip_ws(s, i);
            if (i >= s.size() || s[i] != ':') return false;
            ++i;
        }
        if (!parse_value(s, i)) return false;
        skip_ws(s, i);
        if (i >= s.size()) return false;
        if (s[i] == ',') {
            ++i;
            continue;
        }
        if (s[i] == close) {
            ++i;
            return true;
        }
        return false;
    }
}

bool parse_value(const std::string& s, std::size_t& i) {
    skip_ws(s, i);
    if (i >= s.size()) return false;
    switch (s[i]) {
        case '{': return parse_container(s, i, '{', '}', /*object=*/true);
        case '[': return parse_container(s, i, '[', ']', /*object=*/false);
        case '"': return parse_string(s, i);
        default: break;
    }
    if (s.compare(i, 4, "true") == 0) { i += 4; return true; }
    if (s.compare(i, 5, "false") == 0) { i += 5; return true; }
    if (s.compare(i, 4, "null") == 0) { i += 4; return true; }
    return parse_number(s, i);
}

bool is_valid_json(const std::string& s) {
    std::size_t i = 0;
    if (!parse_value(s, i)) return false;
    skip_ws(s, i);
    return i == s.size();
}

// ------------------------------ prof spans --------------------------------
// The prof runtime (registration, rings, export) is compiled in every build,
// so these drive it through the direct API after raising the runtime level.
// Span names are unique per test: the span registry is process-global and
// keeps its statistics for the life of the process.

/// Every span test records at trace level and restores the compiled default.
class ProfSpans : public ::testing::Test {
protected:
    void SetUp() override { prof::set_runtime_level(SPBLA_PROFILE_TRACE); }
    void TearDown() override { prof::set_runtime_level(prof::compiled_level()); }
};

/// Ring events of the span named \p name, oldest first.
std::vector<prof::SnapshotEvent> events_named(const std::string& name) {
    std::vector<prof::SnapshotEvent> out;
    for (auto& e : prof::snapshot_events()) {
        if (e.name == name) out.push_back(std::move(e));
    }
    return out;
}

TEST_F(ProfSpans, NestingAndOrdering) {
    const auto outer = prof::register_span("test.nest.outer");
    const auto inner = prof::register_span("test.nest.inner");
    EXPECT_EQ(prof::current_span_site(), prof::kNoSite);
    {
        const prof::SpanScope a(outer);
        EXPECT_EQ(prof::current_span_site(), outer);
        { const prof::SpanScope b(inner); EXPECT_EQ(prof::current_span_site(), inner); }
        { const prof::SpanScope c(inner); }
        EXPECT_EQ(prof::current_span_site(), outer);
    }
    EXPECT_EQ(prof::current_span_site(), prof::kNoSite);
    EXPECT_EQ(prof::span_calls("test.nest.outer"), 1u);
    EXPECT_EQ(prof::span_calls("test.nest.inner"), 2u);

    const auto outers = events_named("test.nest.outer");
    const auto inners = events_named("test.nest.inner");
    ASSERT_EQ(outers.size(), 1u);
    ASSERT_EQ(inners.size(), 2u);
    const auto& o = outers.front();
    for (const auto& e : inners) {
        // Nested spans are contained in the enclosing span's window.
        EXPECT_GE(e.start_ns, o.start_ns);
        EXPECT_LE(e.start_ns + e.dur_ns, o.start_ns + o.dur_ns);
        EXPECT_EQ(e.tid, telemetry::thread_id());
    }
}

TEST_F(ProfSpans, IterationSpansCarryTheIteration) {
    const auto site = prof::register_span("test.round");
    for (std::uint64_t i = 1; i <= 3; ++i) {
        const prof::SpanScope s(site, i);
    }
    std::vector<std::uint64_t> iters;
    for (const auto& e : events_named("test.round")) iters.push_back(e.iter);
    EXPECT_EQ(iters, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(ProfSpans, RuntimeLevelGatesRecording) {
    const auto site = prof::register_span("test.gated");
    prof::set_runtime_level(SPBLA_PROFILE_OFF);
    EXPECT_FALSE(prof::counting());
    { const prof::SpanScope s(site); }
    EXPECT_EQ(prof::span_calls("test.gated"), 0u);

    prof::set_runtime_level(SPBLA_PROFILE_COUNTERS);
    EXPECT_TRUE(prof::counting());
    EXPECT_FALSE(prof::tracing());
    { const prof::SpanScope s(site); }
    EXPECT_EQ(prof::span_calls("test.gated"), 1u);
    EXPECT_TRUE(events_named("test.gated").empty());  // no ring writes below trace
}

TEST_F(ProfSpans, RingWrapKeepsTheMostRecentEvents) {
    prof::set_ring_capacity(4);
    // Capacity applies to rings created after the call, so record on a fresh
    // thread. Raw thread on purpose: prof must serve foreign (non-pool)
    // threads.
    std::thread recorder([] {  // lint:allow(std-thread)
        const auto site = prof::register_span("test.wrap");
        for (std::uint64_t i = 1; i <= 10; ++i) {
            const prof::SpanScope s(site, i);
        }
    });
    recorder.join();
    std::vector<std::uint64_t> iters;
    for (const auto& e : events_named("test.wrap")) iters.push_back(e.iter);
    EXPECT_EQ(iters, (std::vector<std::uint64_t>{7, 8, 9, 10}));
    EXPECT_EQ(prof::span_calls("test.wrap"), 10u);  // stats see every span
    prof::set_ring_capacity(8192);
}

TEST_F(ProfSpans, ConcurrentSpansAreRaceFree) {
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    const auto site = prof::register_span("test.parallel");
    // Raw threads on purpose: the race check targets arbitrary writers, not
    // just pool workers (which ride the same thread-local logs anyway).
    std::vector<std::thread> threads;  // lint:allow(std-thread)
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([site] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                const prof::SpanScope s(site);
            }
        });
    }
    for (auto& t : threads) t.join();

    constexpr auto kTotal = static_cast<std::uint64_t>(kThreads) * kSpansPerThread;
    EXPECT_EQ(prof::span_calls("test.parallel"), kTotal);
    // Every thread keeps its own ring; none lost events (capacity 8192).
    EXPECT_EQ(events_named("test.parallel").size(), kTotal);
}

/// The trace and the flight recorder share one clock and one thread id: an
/// op dispatched inside a span is flight-recorded with the span's tid and an
/// epoch_ns inside the span's window. Run on a fresh thread so its id is not
/// the first one either registry hands out.
TEST_F(ProfSpans, FlightRecordsLineUpWithTheEnclosingSpan) {
    const auto a = testing::random_matrix(32, 32, 0.1, 7101);
    std::uint64_t seq = 0;
    std::thread worker([&] {  // lint:allow(std-thread)
        const prof::SpanScope s(prof::register_span("test.flight"));
        (void)storage::multiply(ctx(), a, a);
        seq = telemetry::flight::total_recorded();
    });
    worker.join();

    const auto spans = events_named("test.flight");
    ASSERT_EQ(spans.size(), 1u);
    const auto& span = spans.front();
    const auto records = telemetry::flight::snapshot_records();
    const auto it = std::find_if(records.begin(), records.end(),
                                 [&](const auto& r) { return r.seq == seq; });
    ASSERT_NE(it, records.end());
    EXPECT_STREQ(it->op, "multiply");
    EXPECT_EQ(it->thread, span.tid);
    EXPECT_GE(it->epoch_ns, span.start_ns);
    EXPECT_LE(it->epoch_ns, span.start_ns + span.dur_ns);
}

TEST_F(ProfSpans, ChromeTraceJsonIsWellFormed) {
    const auto outer = prof::register_span("test.json.outer");
    const auto inner = prof::register_span("test.json.inner");
    {
        const prof::SpanScope a(outer, 7);
        const prof::SpanScope b(inner);
    }
    const std::string json = prof::chrome_trace_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("test.json.inner"), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"iter\": 7}"), std::string::npos);
    // The counters are the embedded telemetry snapshot, under dotted names.
    EXPECT_NE(json.find("\"spbla_metrics\": {"), std::string::npos);
    EXPECT_NE(json.find("\"schema\": \"spbla.metrics.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"spbla.prof.spans\""), std::string::npos);
}

TEST_F(ProfSpans, JsonEscapingSurvivesHostileNames) {
    const auto site = prof::register_span("test.\"quoted\\name\"\n");
    { const prof::SpanScope s(site); }
    const std::string json = prof::chrome_trace_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("test.\\\"quoted\\\\name\\\"\\n"), std::string::npos);
}

TEST_F(ProfSpans, WriteChromeTraceRoundTrips) {
    const auto site = prof::register_span("test.write");
    { const prof::SpanScope s(site); }
    const std::string path = ::testing::TempDir() + "spbla_trace_test.json";
    ASSERT_TRUE(prof::write_chrome_trace(path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) contents.append(buffer, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_TRUE(is_valid_json(contents));
    EXPECT_NE(contents.find("test.write"), std::string::npos);
}

TEST_F(ProfSpans, TextSummaryShowsTheSpanTree) {
    const auto outer = prof::register_span("test.summary.outer");
    const auto inner = prof::register_span("test.summary.inner");
    {
        const prof::SpanScope a(outer);
        const prof::SpanScope b(inner);
    }
    const std::string summary = prof::text_summary();
    // The child is indented under its parent, so it appears after it.
    const auto at_outer = summary.find("test.summary.outer");
    const auto at_inner = summary.find("  test.summary.inner");
    ASSERT_NE(at_outer, std::string::npos);
    ASSERT_NE(at_inner, std::string::npos);
    EXPECT_LT(at_outer, at_inner);
}

// -------------------------- kernel-work tallies ----------------------------
// Recorded only when the build compiled the instrumentation in.

TEST_F(ProfSpans, SpGemmCountersMatchTheComputedResult) {
    if (prof::compiled_level() < SPBLA_PROFILE_COUNTERS) {
        GTEST_SKIP() << "library built with SPBLA_PROFILE=off";
    }
    using telemetry::Counter;
    backend::Context pool_ctx{backend::Policy::Parallel, 4};  // real pool even on 1 core
    // Pin the CSR kernel: auto dispatch may route this input to bit blocks,
    // and the tallies under test only exist on the hash SpGEMM path. Zipf-
    // skewed rows populate the hash bins.
    const storage::ScopedHint force_csr{storage::FormatHint::ForceCsr};
    const Matrix a = data::make_zipf(4096, 4096, 16, 1.0);
    const auto calls = prof::span_calls("spgemm.multiply");
    const auto before = telemetry::snapshot();
    (void)storage::multiply(pool_ctx, a, a);
    const auto after = telemetry::snapshot();
    const auto delta = [&](Counter c) { return after.counter(c) - before.counter(c); };

    EXPECT_EQ(delta(Counter::SpgemmRowsTotal), static_cast<std::uint64_t>(a.nrows()));
    // Bin classes partition the rows.
    EXPECT_EQ(delta(Counter::SpgemmRowsEmpty) + delta(Counter::SpgemmRowsTiny) +
                  delta(Counter::SpgemmRowsHashSmall) +
                  delta(Counter::SpgemmRowsHashLarge) + delta(Counter::SpgemmRowsDense),
              delta(Counter::SpgemmRowsTotal));
    // Probes are tallied on pool workers and still land in the one registry.
    EXPECT_GT(delta(Counter::SpgemmHashProbes), 0u);
    EXPECT_GE(delta(Counter::SpgemmHashProbes), delta(Counter::SpgemmHashCollisions));
    EXPECT_GE(delta(Counter::PoolBulkLaunches), 1u);
    EXPECT_EQ(prof::span_calls("spgemm.multiply"), calls + 1);
    EXPECT_GE(prof::span_calls("spgemm.numeric"), 1u);
}

}  // namespace
}  // namespace spbla
