/// \file common.hpp
/// \brief Shared harness utilities for the paper-reproduction benchmarks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "backend/context.hpp"
#include "prof/prof.hpp"
#include "telemetry/metrics.hpp"
#include "util/timer.hpp"

namespace spbla::bench {

/// Number of repetitions benchmarks average over (the paper uses 5).
inline constexpr int kRuns = 5;

/// Timing dispersion of one measured body over repeated runs. The minimum
/// filters scheduler noise out of short kernels (so it remains the metric the
/// machine-readable perf trajectory tracks across PRs); mean and sample
/// standard deviation record how noisy the measurement itself was, so a
/// regression can be told apart from jitter.
struct Stats {
    double min_s = 0.0;
    double mean_s = 0.0;
    double stddev_s = 0.0;
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
    int runs = 0;

    [[nodiscard]] double min_ms() const { return min_s * 1e3; }
    [[nodiscard]] double mean_ms() const { return mean_s * 1e3; }
    [[nodiscard]] double stddev_ms() const { return stddev_s * 1e3; }
    [[nodiscard]] double p50_ms() const { return p50_s * 1e3; }
    [[nodiscard]] double p95_ms() const { return p95_s * 1e3; }
    [[nodiscard]] double p99_ms() const { return p99_s * 1e3; }
};

/// Nearest-rank percentile of an ascending-sorted sample vector.
[[nodiscard]] inline double percentile_of(const std::vector<double>& sorted,
                                          double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[rank == 0 ? 0 : rank - 1];
}

/// Min / mean / sample-stddev / percentiles of wall-clock samples (seconds).
inline Stats stats_of(std::vector<double> samples) {
    Stats stats;
    if (samples.empty()) return stats;
    const int runs = static_cast<int>(samples.size());
    stats.runs = runs;
    stats.min_s = samples.front();
    double sum = 0.0;
    for (const double s : samples) {
        sum += s;
        if (s < stats.min_s) stats.min_s = s;
    }
    stats.mean_s = sum / runs;
    double sq = 0.0;
    for (const double s : samples) {
        sq += (s - stats.mean_s) * (s - stats.mean_s);
    }
    stats.stddev_s = runs > 1 ? std::sqrt(sq / (runs - 1)) : 0.0;
    std::sort(samples.begin(), samples.end());
    stats.p50_s = percentile_of(samples, 0.50);
    stats.p95_s = percentile_of(samples, 0.95);
    stats.p99_s = percentile_of(samples, 0.99);
    return stats;
}

/// Time \p body over \p runs runs (plus one untimed warm-up) and return
/// min / mean / sample-stddev wall-clock seconds.
inline Stats time_stats(const std::function<void()>& body, int runs = kRuns) {
    body();  // warm-up
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r) {
        util::Timer timer;
        body();
        samples.push_back(timer.seconds());
    }
    return stats_of(std::move(samples));
}

/// Best (minimum) wall-clock seconds of \p body over \p runs runs.
inline double time_best(const std::function<void()>& body, int runs = kRuns) {
    return time_stats(body, runs).min_s;
}

/// Average wall-clock seconds of \p body over \p runs runs.
inline double time_runs(const std::function<void()>& body, int runs = kRuns) {
    return time_stats(body, runs).mean_s;
}

/// Shared parallel context for all benchmarks.
inline backend::Context& ctx() {
    static backend::Context instance{backend::Policy::Parallel};
    return instance;
}

/// Print a horizontal rule sized to \p width.
inline void rule(int width) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar('\n');
}

/// Render a number with thousands separators (table-friendly).
inline std::string with_commas(std::uint64_t v) {
    std::string digits = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count != 0 && count % 3 == 0) out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return {out.rbegin(), out.rend()};
}

/// Minimal streaming JSON writer shared by the benchmark executables, so
/// every BENCH_*.json carries the same shapes — timings as
/// {min_ms, mean_ms, stddev_ms, runs} objects, profiling counters under a
/// "counters" key — without each bench hand-rolling fprintf format strings
/// (and their comma/escaping bugs).
class JsonWriter {
public:
    explicit JsonWriter(std::FILE* f) : f_(f) {}

    void begin_object(const char* key = nullptr) { open(key, '{'); }
    void end_object() { close('}'); }
    void begin_array(const char* key = nullptr) { open(key, '['); }
    void end_array() { close(']'); }

    void field(const char* key, const char* value) {
        prefix(key);
        std::fputc('"', f_);
        for (const char* p = value; *p != '\0'; ++p) {
            if (*p == '"' || *p == '\\') std::fputc('\\', f_);
            std::fputc(*p, f_);
        }
        std::fputc('"', f_);
    }
    void field(const char* key, const std::string& value) { field(key, value.c_str()); }
    void field(const char* key, std::uint64_t value) {
        prefix(key);
        std::fprintf(f_, "%llu", static_cast<unsigned long long>(value));
    }
    void field(const char* key, int value) {
        field(key, static_cast<std::uint64_t>(value));
    }
    void field(const char* key, double value) {
        prefix(key);
        std::fprintf(f_, "%.3f", value);
    }
    /// A timing with dispersion and tail: {"min_ms":…, "mean_ms":…,
    /// "stddev_ms":…, "p50_ms":…, "p95_ms":…, "p99_ms":…, "runs":…}.
    void field(const char* key, const Stats& stats) {
        begin_object(key);
        field("min_ms", stats.min_ms());
        field("mean_ms", stats.mean_ms());
        field("stddev_ms", stats.stddev_ms());
        field("p50_ms", stats.p50_ms());
        field("p95_ms", stats.p95_ms());
        field("p99_ms", stats.p99_ms());
        field("runs", stats.runs);
        end_object();
    }

private:
    void open(const char* key, char bracket) {
        prefix(key);
        std::fputc(bracket, f_);
        first_.push_back(true);
    }
    void close(char bracket) {
        first_.pop_back();
        newline();
        std::fputc(bracket, f_);
        if (first_.empty()) std::fputc('\n', f_);
    }
    void prefix(const char* key) {
        if (!first_.empty()) {
            if (!first_.back()) std::fputc(',', f_);
            first_.back() = false;
            newline();
        }
        if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
    }
    void newline() {
        std::fputc('\n', f_);
        for (std::size_t i = 0; i < 2 * first_.size(); ++i) std::fputc(' ', f_);
    }

    std::FILE* f_;
    std::vector<bool> first_;  ///< one entry per open scope; true until first item
};

/// Emit the telemetry counters that moved from \p before to \p after as an
/// object keyed by their dotted names (telemetry/metric_names.hpp), the
/// names a metrics dump and the Chrome trace's embedded snapshot use.
inline void write_counter_deltas(JsonWriter& w, const telemetry::Snapshot& before,
                                 const telemetry::Snapshot& after,
                                 const char* key = "counters") {
    w.begin_object(key);
    for (std::size_t c = 0; c < telemetry::kNumCounters; ++c) {
        if (after.counters[c] != before.counters[c]) {
            w.field(telemetry::name(static_cast<telemetry::Counter>(c)),
                    after.counters[c] - before.counters[c]);
        }
    }
    w.end_object();
}

}  // namespace spbla::bench
