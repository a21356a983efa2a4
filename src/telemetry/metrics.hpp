/// \file metrics.hpp
/// \brief Always-on, lock-free process metrics: counters, gauges, histograms.
///
/// This is the library's one counter registry: always compiled, always on,
/// built from relaxed atomics sharded per thread so the hot path is one
/// thread-local pointer load plus one uncontended fetch_add (measured <2% on
/// the SpGEMM ladder; see EXPERIMENTS.md). The compile-time-gated
/// spbla::prof layer records spans only; its Chrome trace embeds a snapshot
/// of this registry, and the few kernel-work tallies that cost work to
/// compute are counters here that only profiling builds record.
///
/// Instruments are fixed at compile time — the enums in metric_names.hpp are
/// the registry's schema, and that header is the only sanctioned home of
/// metric-name literals (lint rule `metric-name-literal`).
///
/// Exporters: to_json() / to_prometheus() render a Snapshot; write_file()
/// dumps either to disk; the SPBLA_METRICS=<path> environment hook mirrors
/// SPBLA_TRACE and dumps JSON to <path> plus Prometheus text to <path>.prom
/// at process exit (and arms the crash flight recorder's file dump — see
/// telemetry/flight_recorder.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "telemetry/metric_names.hpp"

namespace spbla::telemetry {

/// Number of log2 buckets per histogram: bucket 0 counts zeros, bucket
/// i >= 1 counts values in [2^(i-1), 2^i - 1], and the top bucket absorbs
/// everything with 64-bit bit-width >= kHistogramBuckets - 1.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index of \p value (64-bit bit-width, clamped).
[[nodiscard]] constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    std::size_t width = 0;
    while (value != 0) {
        ++width;
        value >>= 1;
    }
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/// Inclusive upper bound of bucket \p i (0 for the zero bucket).
[[nodiscard]] constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

// ---- recording (the hot path) ---------------------------------------------

/// Add \p delta to counter \p c.
void count(Counter c, std::uint64_t delta = 1) noexcept;

/// Record \p value into histogram \p h.
void observe(Histogram h, std::uint64_t value) noexcept;

/// Set gauge \p g to \p value.
void gauge_set(Gauge g, std::int64_t value) noexcept;

/// Add \p delta (possibly negative) to gauge \p g; returns the new value.
std::int64_t gauge_add(Gauge g, std::int64_t delta) noexcept;

/// Raise gauge \p g to \p value if it is currently lower.
void gauge_max(Gauge g, std::int64_t value) noexcept;

/// Nanoseconds since the telemetry registry was initialised (the epoch every
/// flight-recorder record and prof span is stamped with).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Small dense id of the calling thread's shard (stable per thread; also the
/// flight-recorder thread and the Chrome-trace tid).
[[nodiscard]] std::uint32_t thread_id() noexcept;

// ---- snapshots and export -------------------------------------------------

/// Point-in-time aggregation of one histogram across all thread shards.
struct HistogramSnapshot {
    std::uint64_t count{0};
    std::uint64_t sum{0};
    std::uint64_t max{0};
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    /// Upper bound of the bucket holding the q-quantile observation
    /// (nearest-rank over the bucket counts); 0 when empty.
    [[nodiscard]] std::uint64_t quantile(double q) const noexcept;
};

/// Consistent-enough view of every instrument (relaxed reads; concurrent
/// writers may be mid-op, but each counter is exact for completed updates).
struct Snapshot {
    std::array<std::uint64_t, kNumCounters> counters{};
    std::array<std::int64_t, kNumGauges> gauges{};
    std::array<HistogramSnapshot, kNumHistograms> histograms{};

    [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
        return counters[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] std::int64_t gauge(Gauge g) const noexcept {
        return gauges[static_cast<std::size_t>(g)];
    }
    [[nodiscard]] const HistogramSnapshot& histogram(Histogram h) const noexcept {
        return histograms[static_cast<std::size_t>(h)];
    }
};

/// Aggregate every shard into a Snapshot.
[[nodiscard]] Snapshot snapshot();

/// Zero all counters and histograms. Level gauges keep their live values;
/// peak-style gauges re-baseline to their paired live gauge.
void reset() noexcept;

/// Render \p snap as a JSON document (schema "spbla.metrics.v1").
[[nodiscard]] std::string to_json(const Snapshot& snap);

/// Render \p snap in the Prometheus text exposition format (metric names
/// rewritten dotted -> underscored; histograms as cumulative _bucket/_sum/
/// _count series).
[[nodiscard]] std::string to_prometheus(const Snapshot& snap);

/// Serialisation format for write_file / the C API.
enum class ExportFormat : std::uint8_t { Json = 0, Prometheus = 1 };

/// Snapshot and write to \p path; false on I/O failure.
bool write_file(const std::string& path, ExportFormat format);

/// JSON string escaping per RFC 8259 (exposed for the exporter tests).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace spbla::telemetry
