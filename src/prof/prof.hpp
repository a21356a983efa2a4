/// \file prof.hpp
/// \brief Compile-time-gated profiling layer: scoped spans, Chrome-trace and
/// text-summary export.
///
/// Two primitives record where a run spends its time:
///
///  - SPBLA_PROF_SPAN("spgemm.numeric"): a scoped span on the calling
///    thread. Span begin/end pairs nest; at trace level each completed span
///    is appended to a lock-free per-thread ring buffer and can be exported
///    as Chrome trace-event JSON (chrome://tracing / Perfetto) or as a
///    hierarchical text summary with totals and percentages.
///  - SPBLA_PROF_SPAN_ITER(name, i): a span carrying an iteration number
///    (fixpoint rounds in the CFPQ/RPQ drivers).
///
/// Spans count nothing. Every event count lives in the always-on telemetry
/// registry (telemetry/metric_names.hpp), and the Chrome trace embeds one
/// telemetry snapshot, so a trace and a metrics dump report the same
/// numbers under the same names. Kernel-work counters that cost work to
/// compute (hash probes, the SpGEMM bin tally, cached rows) are
/// telemetry counters too, recorded through SPBLA_PROF_TALLY so they exist
/// only in profiling builds.
///
/// Gating mirrors SPBLA_CHECKS: the CMake knob SPBLA_PROFILE=off|counters|
/// trace defines SPBLA_PROFILE_LEVEL to 0/1/2. At "off" every macro expands
/// to a no-op (zero overhead — the release configuration). "counters" and
/// "trace" both compile the instrumentation in and differ only in the
/// *default* runtime level: 1 keeps per-span call counts and times, 2 also
/// fills the trace rings. The level can be moved at runtime via
/// set_runtime_level / spbla_ProfEnable / the SPBLA_TRACE environment
/// variable (which also arms a dump-at-exit hook).
///
/// The runtime below (registration, ring buffers, export) is always
/// compiled, so tests exercise it in every build through the direct API;
/// only the macro instrumentation in library code is compile-time gated.
///
/// Timestamps and thread ids are telemetry::now_ns() and
/// telemetry::thread_id(), the clock and ids the flight recorder stamps its
/// records with, so a post-mortem can line the two up.
///
/// Thread-safety: every hot-path write lands in thread-local storage (frame
/// stacks) or per-thread atomics read with relaxed loads by the exporter —
/// no locks, TSan-clean. Ring-buffer entries are published with a release
/// store on the head index; snapshots are intended for quiescent points
/// (between launches), as a writer lapping a concurrent reader may hand it a
/// torn event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

#define SPBLA_PROFILE_OFF 0
#define SPBLA_PROFILE_COUNTERS 1
#define SPBLA_PROFILE_TRACE 2

#ifndef SPBLA_PROFILE_LEVEL
#define SPBLA_PROFILE_LEVEL SPBLA_PROFILE_OFF
#endif

namespace spbla::prof {

/// Profiling level this translation unit was compiled with.
inline constexpr int kCompiledLevel = SPBLA_PROFILE_LEVEL;

[[nodiscard]] constexpr int compiled_level() noexcept { return kCompiledLevel; }

/// Human-readable name of the compiled profiling level.
[[nodiscard]] constexpr const char* compiled_level_name() noexcept {
    return kCompiledLevel >= SPBLA_PROFILE_TRACE      ? "trace"
           : kCompiledLevel >= SPBLA_PROFILE_COUNTERS ? "counters"
                                                      : "off";
}

/// Identifier of a registered span site. Ids are dense and bounded
/// (registrations past the bound fold into an "(overflow)" slot so
/// instrumentation can never fail).
using SiteId = std::uint32_t;

inline constexpr SiteId kNoSite = 0xFFFFFFFFu;
inline constexpr std::uint64_t kNoIter = 0xFFFFFFFFFFFFFFFFull;

/// Active runtime level (defaults to the compiled level). Raising it above
/// the compiled level only affects direct API callers — macro sites compiled
/// out at SPBLA_PROFILE=off stay gone.
[[nodiscard]] int runtime_level() noexcept;
void set_runtime_level(int level) noexcept;

/// True iff spans (and kernel-work tallies) record at the current level.
[[nodiscard]] bool counting() noexcept;
/// True iff completed spans are appended to the trace ring buffers.
[[nodiscard]] bool tracing() noexcept;

/// Register a span site (idempotent per name; macro sites cache the id in a
/// function-local static so registration runs once).
[[nodiscard]] SiteId register_span(const char* name);

/// Site of the calling thread's innermost active span (kNoSite if none).
[[nodiscard]] SiteId current_span_site() noexcept;

/// RAII span. Pushes a frame on the calling thread's stack; on destruction
/// adds the span's call and time to the per-thread statistics and, at trace
/// level, appends one complete ("X") event to the thread's ring.
class SpanScope {
public:
    explicit SpanScope(SiteId site, std::uint64_t iter = kNoIter) noexcept;
    ~SpanScope();

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    bool active_;
};

/// RAII span scope for pool workers: util::parallel_for_chunks wraps kernel
/// bodies in one of these so a chunk run on a worker shows up in the trace
/// under the launching span's name, and spans nested in it hang under that
/// span in the summary. It adds no calls or time — the launcher's own span
/// owns the elapsed time. On the launching thread itself it is a no-op (its
/// real frame is already on the stack).
class WorkerScope {
public:
    WorkerScope(SiteId site, std::uint32_t launcher_tid) noexcept;
    ~WorkerScope();

    WorkerScope(const WorkerScope&) = delete;
    WorkerScope& operator=(const WorkerScope&) = delete;

private:
    bool active_;
};

// ---------------------------------------------------------------------------
// Export and test surface (always available; call at quiescent points — no
// kernel in flight).
// ---------------------------------------------------------------------------

/// One completed span pulled out of the ring buffers.
struct SnapshotEvent {
    std::string name;
    std::uint32_t tid{0};         ///< telemetry::thread_id() of the recorder
    std::uint64_t start_ns{0};    ///< telemetry::now_ns() at span entry
    std::uint64_t dur_ns{0};
    std::uint64_t iter{kNoIter};
};

/// All events currently held in the ring buffers, ordered by start time.
[[nodiscard]] std::vector<SnapshotEvent> snapshot_events();

/// Number of spans completed under \p span's site (all threads).
[[nodiscard]] std::uint64_t span_calls(std::string_view span);

/// Chrome trace-event JSON: {"traceEvents": [...], ...} with one "X" event
/// per recorded span (name, ts, dur, tid and iter only) plus an
/// "spbla_metrics" section holding telemetry::to_json(telemetry::snapshot())
/// that tools/check_trace.py validates. Loadable in chrome://tracing and
/// Perfetto, which ignore the extra keys.
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to \p path; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Hierarchical text summary: spans as a tree (parent = enclosing span at
/// first use) with call counts, total milliseconds and percent of parent.
[[nodiscard]] std::string text_summary();

/// Ring-buffer capacity (events per thread) applied to rings created after
/// the call; the default is 8192.
void set_ring_capacity(std::size_t events) noexcept;

}  // namespace spbla::prof

// ---------------------------------------------------------------------------
// Instrumentation macros. Compiled out entirely at SPBLA_PROFILE=off; the
// sizeof tricks keep arguments type-checked without evaluating them
// (matching the SPBLA_ASSERT idiom in util/contracts.hpp).
// ---------------------------------------------------------------------------

#define SPBLA_PROF_CAT2(a, b) a##b
#define SPBLA_PROF_CAT(a, b) SPBLA_PROF_CAT2(a, b)

#if SPBLA_PROFILE_LEVEL >= SPBLA_PROFILE_COUNTERS

#define SPBLA_PROF_SPAN(name)                                                 \
    static const ::spbla::prof::SiteId SPBLA_PROF_CAT(spblaProfSite_,         \
                                                      __LINE__) =             \
        ::spbla::prof::register_span(name);                                   \
    const ::spbla::prof::SpanScope SPBLA_PROF_CAT(spblaProfScope_, __LINE__)( \
        SPBLA_PROF_CAT(spblaProfSite_, __LINE__))

#define SPBLA_PROF_SPAN_ITER(name, iter)                                      \
    static const ::spbla::prof::SiteId SPBLA_PROF_CAT(spblaProfSite_,         \
                                                      __LINE__) =             \
        ::spbla::prof::register_span(name);                                   \
    const ::spbla::prof::SpanScope SPBLA_PROF_CAT(spblaProfScope_, __LINE__)( \
        SPBLA_PROF_CAT(spblaProfSite_, __LINE__),                             \
        static_cast<std::uint64_t>(iter))

/// Add n to the kernel-work telemetry counter telemetry::Counter::counter.
#define SPBLA_PROF_TALLY(counter, n)                                          \
    do {                                                                      \
        if (::spbla::prof::counting()) {                                      \
            ::spbla::telemetry::count(::spbla::telemetry::Counter::counter,   \
                                      static_cast<std::uint64_t>(n));         \
        }                                                                     \
    } while (false)

#else  // SPBLA_PROFILE_LEVEL == off: every macro is a checked no-op.

#define SPBLA_PROF_SPAN(name) static_cast<void>(0)
#define SPBLA_PROF_SPAN_ITER(name, iter) \
    static_cast<void>(sizeof(static_cast<std::uint64_t>(iter)))
#define SPBLA_PROF_TALLY(counter, n)                            \
    static_cast<void>(sizeof(::spbla::telemetry::Counter::counter) + \
                      sizeof(static_cast<std::uint64_t>(n)))

#endif  // SPBLA_PROFILE_LEVEL
