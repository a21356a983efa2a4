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
    PoolTasks,            ///< discrete pool jobs completed
    PoolBulkLaunches,     ///< dynamic bulk launches (parallel_for_chunks ticket sets)
    PoolTickets,          ///< tickets issued by bulk launches
    MemAllocs,            ///< tracked device-buffer allocations
    MemFrees,             ///< tracked device-buffer deallocations
    ArenaResets,          ///< scoped-arena scope exits (wholesale scratch resets)
    PoolBufferHits,       ///< buffer-pool acquires served from a free list
    PoolBufferMisses,     ///< buffer-pool acquires that fell through to malloc
    ProfSpans,            ///< prof spans closed (only when profiling enabled)
    IncrBatches,          ///< delta batches applied through the incremental layer
    IncrDeltaNnz,         ///< total cells across applied insert/delete deltas
    IncrMemoLookups,      ///< op-memo probes (keyed by content-version epochs)
    IncrMemoHits,         ///< op-memo probes served from cache
    IncrMemoStores,       ///< op-memo results retained for reuse
    IncrMemoEvictions,    ///< op-memo entries evicted at capacity
    IncrIterationsSaved,  ///< fixpoint rounds skipped vs full recompute
    IncrConsolidations,   ///< delta overlays folded into their base matrix
    IncrShortCircuits,    ///< dispatcher ops answered by the empty-delta fast path
    IncrFrontierNnz,      ///< frontier cells entering each incremental closure round
    IncrBaselineRounds,   ///< from-scratch fixpoint rounds of each driver batch
    ClosureFrontierNnz,   ///< frontier cells entering each semi-naive closure round
    /// Kernel-work tallies: they cost kernel work to compute, so only
    /// profiling builds (SPBLA_PROFILE != off) record them, through
    /// SPBLA_PROF_TALLY. A release build reads 0.
    SpgemmHashProbes,     ///< hash-accumulator slot probes
    SpgemmHashCollisions, ///< probes that hit another column's slot
    SpgemmRowsTotal,      ///< rows classified by the bin schedule
    SpgemmRowsEmpty,      ///< rows binned empty (no product terms)
    SpgemmRowsTiny,       ///< rows binned tiny
    SpgemmRowsHashSmall,  ///< rows binned to the small hash table
    SpgemmRowsHashLarge,  ///< rows binned to the large hash table
    SpgemmRowsDense,      ///< rows binned to the dense bitmap accumulator
    SpgemmCachedRows,     ///< rows the numeric pass copied from the symbolic cache
    Count_,               ///< sentinel — keep last
};

/// Point-in-time levels. Not reset by telemetry::reset(), except that
/// peak-style gauges re-baseline to their paired live gauge.
enum class Gauge : std::uint16_t {
    MemLiveBytes = 0,     ///< tracked device bytes currently allocated (all contexts)
    MemPeakBytes,         ///< high-water mark of MemLiveBytes
    PoolQueueDepth,       ///< jobs waiting in pool FIFO queues
    PoolInFlight,         ///< submitted jobs not yet completed
    PoolBusyWorkers,      ///< threads currently executing pool work
    PoolWorkers,          ///< worker threads alive across all pools
    ArenaReservedBytes,   ///< high-water slab bytes reserved by any one arena
    ArenaUsedBytes,       ///< high-water bump-allocated bytes in any one arena
    PoolHeldBytes,        ///< bytes parked in buffer-pool free lists (all pools)
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
        case Counter::PoolTasks: return "spbla.pool.tasks";
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
        case Counter::IncrMemoStores: return "spbla.incr.memo_stores";
        case Counter::IncrMemoEvictions: return "spbla.incr.memo_evictions";
        case Counter::IncrIterationsSaved: return "spbla.incr.iterations_saved";
        case Counter::IncrConsolidations: return "spbla.incr.consolidations";
        case Counter::IncrShortCircuits: return "spbla.incr.shortcircuit_ops";
        case Counter::IncrFrontierNnz: return "spbla.incr.frontier_nnz";
        case Counter::IncrBaselineRounds: return "spbla.incr.baseline_rounds";
        case Counter::ClosureFrontierNnz: return "spbla.closure.frontier_nnz";
        case Counter::SpgemmHashProbes: return "spbla.spgemm.hash_probes";
        case Counter::SpgemmHashCollisions: return "spbla.spgemm.hash_collisions";
        case Counter::SpgemmRowsTotal: return "spbla.spgemm.rows_total";
        case Counter::SpgemmRowsEmpty: return "spbla.spgemm.rows_empty";
        case Counter::SpgemmRowsTiny: return "spbla.spgemm.rows_tiny";
        case Counter::SpgemmRowsHashSmall: return "spbla.spgemm.rows_hash_small";
        case Counter::SpgemmRowsHashLarge: return "spbla.spgemm.rows_hash_large";
        case Counter::SpgemmRowsDense: return "spbla.spgemm.rows_dense";
        case Counter::SpgemmCachedRows: return "spbla.spgemm.cached_rows";
        case Counter::Count_: break;
    }
    return "spbla.unknown.counter";
}

/// Exported (dotted) name of \p g.
[[nodiscard]] constexpr const char* name(Gauge g) noexcept {
    switch (g) {
        case Gauge::MemLiveBytes: return "spbla.mem.live_bytes";
        case Gauge::MemPeakBytes: return "spbla.mem.peak_bytes";
        case Gauge::PoolQueueDepth: return "spbla.pool.queue_depth";
        case Gauge::PoolInFlight: return "spbla.pool.in_flight";
        case Gauge::PoolBusyWorkers: return "spbla.pool.busy_workers";
        case Gauge::PoolWorkers: return "spbla.pool.workers";
        case Gauge::ArenaReservedBytes: return "spbla.arena.reserved";
        case Gauge::ArenaUsedBytes: return "spbla.arena.used";
        case Gauge::PoolHeldBytes: return "spbla.arena.pool_held_bytes";
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
