/// \file metric_names.hpp
/// \brief The curated namespace of exported telemetry instruments.
///
/// Every counter, gauge and histogram the library exports is declared here,
/// once, as an enum entry plus its exported name: this is the only counter
/// registry (spbla::prof records spans, not counts). The rest of src/
/// refers to instruments only through these enums — the lint rule
/// `metric-name-literal` flags any spbla.* metric-name string literal that
/// appears in src/ outside this header, so the scrape surface stays a single
/// reviewable list instead of drifting per call site.
///
/// Naming convention: `spbla.<subsystem>.<instrument>`, lowercase with
/// underscores. The Prometheus exporter rewrites dots to underscores
/// (`spbla_dispatch_ops`); the JSON exporter keys objects by the dotted name.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spbla::telemetry {

/// Monotonic event counts. Relaxed-atomic, per-thread-sharded; reset by
/// telemetry::reset() / spbla_MetricsReset.
enum class Counter : std::uint16_t {
    DispatchOps = 0,      ///< storage-dispatcher ops completed (any route)
    DispatchCsr,          ///< ops routed to the CSR kernels (every op)
    /// Retired COO, dense-bitmap and bit-block routes and the retired
    /// representation cache: nothing counts them, so they stay at 0. Kept
    /// because the end-to-end benchmark still reads them.
    DispatchCoo,
    DispatchDense,
    DispatchBitBlocks,
    StorageConversions,
    StorageCacheHits,
    PoolBulkLaunches,     ///< dynamic bulk launches (parallel_for_chunks ticket sets)
    PoolTickets,          ///< tickets issued by bulk launches
    MemAllocs,            ///< tracked device-buffer allocations
    MemFrees,             ///< tracked device-buffer deallocations
    /// Retired op arenas and buffer pool: nothing counts them, so they stay
    /// at 0. Kept because the end-to-end benchmark still reads them.
    ArenaResets,
    PoolBufferHits,
    PoolBufferMisses,
    ProfSpans,            ///< prof spans closed (only when profiling enabled)
    IncrBatches,          ///< delta batches applied through the incremental layer
    IncrDeltaNnz,         ///< total cells across applied insert/delete deltas
    /// Retired op memo and delta overlays: nothing counts them, so they
    /// stay at 0. Kept because the end-to-end benchmark still reads them.
    IncrMemoLookups,
    IncrMemoHits,
    IncrConsolidations,
    IncrIterationsSaved,  ///< fixpoint rounds skipped vs full recompute
    IncrShortCircuits,    ///< dispatcher ops answered by the empty-delta fast path
    IncrFrontierNnz,      ///< frontier cells entering each incremental closure round
    IncrBaselineRounds,   ///< from-scratch fixpoint rounds of each driver batch
    ClosureFrontierNnz,   ///< frontier cells entering each semi-naive closure round
    /// Kernel-work tallies: they cost kernel work to compute, so only
    /// profiling builds (SPBLA_PROFILE != off) record them, through
    /// SPBLA_PROF_TALLY. A release build reads 0.
    SpgemmRowsTotal,      ///< SpGEMM output rows, each in one class below
    SpgemmRowsRun,        ///< rows with no product term (copied from C or empty)
    SpgemmRowsSort,       ///< rows gathered, sorted and deduplicated
    SpgemmRowsMarker,     ///< rows deduplicated through the row-stamped marker
    SpgemmRowsBitmap,     ///< rows accumulated in the touched-word bitmap
    Count_,               ///< sentinel — keep last
};

/// Point-in-time levels. Not reset by telemetry::reset(), except that
/// peak-style gauges re-baseline to their paired live gauge.
enum class Gauge : std::uint16_t {
    MemLiveBytes = 0,     ///< tracked device bytes currently allocated (all contexts)
    MemPeakBytes,         ///< high-water mark of MemLiveBytes
    PoolWorkers,          ///< worker threads alive across all pools
    /// Retired op arenas: nothing sets it, so it stays at 0. Kept because
    /// the end-to-end benchmark still reads it.
    ArenaReservedBytes,
    Count_,               ///< sentinel — keep last
};

/// log2-bucketed value distributions (p50/p95/p99/max derivable from the
/// buckets). Bucket 0 holds zeros; bucket i >= 1 holds values in
/// [2^(i-1), 2^i - 1].
enum class Histogram : std::uint16_t {
    OpLatencyCsrNs = 0,   ///< dispatcher op wall-time, CSR route
    /// Retired COO, dense-bitmap and bit-block routes: nothing observes
    /// them, so they stay at count 0. Kept because the end-to-end benchmark
    /// still reads them.
    OpLatencyCooNs,
    OpLatencyDenseNs,
    OpLatencyBitBlocksNs,
    /// Retired multi-device route: nothing observes it, so it stays at count
    /// 0. Kept because the end-to-end benchmark still reads it.
    OpLatencyShardedNs,
    OpNnzIn,              ///< combined operand nnz per dispatched op
    OpNnzOut,             ///< result nnz per dispatched op
    ProfSpanNs,           ///< prof span durations (only when profiling enabled)
    Count_,               ///< sentinel — keep last
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::Count_);
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::Count_);
inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::Count_);

/// Exported (dotted) name of \p c; the single home of these literals.
[[nodiscard]] constexpr const char* name(Counter c) noexcept {
    switch (c) {
        case Counter::DispatchOps: return "spbla.dispatch.ops";
        case Counter::DispatchCsr: return "spbla.dispatch.csr";
        case Counter::DispatchCoo: return "spbla.dispatch.coo";
        case Counter::DispatchDense: return "spbla.dispatch.dense";
        case Counter::DispatchBitBlocks: return "spbla.dispatch.bitblock";
        case Counter::StorageConversions: return "spbla.storage.conversions";
        case Counter::StorageCacheHits: return "spbla.storage.cache_hits";
        case Counter::PoolBulkLaunches: return "spbla.pool.bulk_launches";
        case Counter::PoolTickets: return "spbla.pool.tickets";
        case Counter::MemAllocs: return "spbla.mem.allocs";
        case Counter::MemFrees: return "spbla.mem.frees";
        case Counter::ArenaResets: return "spbla.arena.resets";
        case Counter::PoolBufferHits: return "spbla.arena.pool_hits";
        case Counter::PoolBufferMisses: return "spbla.arena.pool_misses";
        case Counter::ProfSpans: return "spbla.prof.spans";
        case Counter::IncrBatches: return "spbla.incr.batches";
        case Counter::IncrDeltaNnz: return "spbla.incr.delta_nnz";
        case Counter::IncrMemoLookups: return "spbla.incr.memo_lookups";
        case Counter::IncrMemoHits: return "spbla.incr.memo_hits";
        case Counter::IncrIterationsSaved: return "spbla.incr.iterations_saved";
        case Counter::IncrConsolidations: return "spbla.incr.consolidations";
        case Counter::IncrShortCircuits: return "spbla.incr.shortcircuit_ops";
        case Counter::IncrFrontierNnz: return "spbla.incr.frontier_nnz";
        case Counter::IncrBaselineRounds: return "spbla.incr.baseline_rounds";
        case Counter::ClosureFrontierNnz: return "spbla.closure.frontier_nnz";
        case Counter::SpgemmRowsTotal: return "spbla.spgemm.rows_total";
        case Counter::SpgemmRowsRun: return "spbla.spgemm.rows_run";
        case Counter::SpgemmRowsSort: return "spbla.spgemm.rows_sort";
        case Counter::SpgemmRowsMarker: return "spbla.spgemm.rows_marker";
        case Counter::SpgemmRowsBitmap: return "spbla.spgemm.rows_bitmap";
        case Counter::Count_: break;
    }
    return "spbla.unknown.counter";
}

/// Exported (dotted) name of \p g.
[[nodiscard]] constexpr const char* name(Gauge g) noexcept {
    switch (g) {
        case Gauge::MemLiveBytes: return "spbla.mem.live_bytes";
        case Gauge::MemPeakBytes: return "spbla.mem.peak_bytes";
        case Gauge::PoolWorkers: return "spbla.pool.workers";
        case Gauge::ArenaReservedBytes: return "spbla.arena.reserved";
        case Gauge::Count_: break;
    }
    return "spbla.unknown.gauge";
}

/// Exported (dotted) name of \p h.
[[nodiscard]] constexpr const char* name(Histogram h) noexcept {
    switch (h) {
        case Histogram::OpLatencyCsrNs: return "spbla.op.latency_ns.csr";
        case Histogram::OpLatencyCooNs: return "spbla.op.latency_ns.coo";
        case Histogram::OpLatencyDenseNs: return "spbla.op.latency_ns.dense";
        case Histogram::OpLatencyBitBlocksNs: return "spbla.op.latency_ns.bitblock";
        case Histogram::OpLatencyShardedNs: return "spbla.op.latency_ns.sharded";
        case Histogram::OpNnzIn: return "spbla.op.nnz_in";
        case Histogram::OpNnzOut: return "spbla.op.nnz_out";
        case Histogram::ProfSpanNs: return "spbla.prof.span_ns";
        case Histogram::Count_: break;
    }
    return "spbla.unknown.histogram";
}

}  // namespace spbla::telemetry
