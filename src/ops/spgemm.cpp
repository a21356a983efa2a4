#include "ops/spgemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/arena.hpp"
#include "core/validate.hpp"
#include "ops/ewise_add.hpp"
#include "ops/spgemm_plan.hpp"
#include "prof/prof.hpp"
#include "util/bit_ops.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

constexpr Index kEmptySlot = 0xFFFFFFFFu;

/// Per-worker scratch reused across the rows of one chunk. In Nsparse the
/// hash table lives in GPU shared memory and the dense bitmap in global
/// memory; here both are worker-local arrays on the executing worker's op
/// arena: constructed once per chunk, grown by bump allocation, reclaimed
/// wholesale when the chunk's ScopedArena resets — zero heap traffic on the
/// row loop once the worker's slabs are warm.
struct RowScratch {
    explicit RowScratch(backend::Arena& arena)
        : hash_slots{backend::ArenaAllocator<Index>{arena}},
          inserted{backend::ArenaAllocator<Index>{arena}},
          tiny_buffer{backend::ArenaAllocator<Index>{arena}},
          bitmap_words{backend::ArenaAllocator<std::uint64_t>{arena}},
          touched_words{backend::ArenaAllocator<std::uint32_t>{arena}},
          extracted{backend::ArenaAllocator<Index>{arena}} {}

    backend::ArenaVector<Index> hash_slots;
    backend::ArenaVector<Index> inserted;  ///< values placed in hash_slots by the current row
    backend::ArenaVector<Index> tiny_buffer;
    backend::ArenaVector<std::uint64_t> bitmap_words;
    backend::ArenaVector<std::uint32_t> touched_words;  ///< bitmap words set by the current row
    backend::ArenaVector<Index> extracted;
};

/// Size classes double as scheduling bins; kNumKinds bins are launched
/// heaviest-first so straggler rows overlap with the light bins.
enum class RowKind : std::uint8_t { Empty, Tiny, HashSmall, HashLarge, Dense };
constexpr std::size_t kNumKinds = 5;

[[nodiscard]] RowKind classify_row(std::uint64_t ub, Index b_ncols,
                                   const SpGemmOptions& opts) {
    if (ub == 0) return RowKind::Empty;
    if (ub <= opts.tiny_row_threshold) return RowKind::Tiny;
    if (opts.use_binning && b_ncols >= 256 &&
        static_cast<double>(ub) >=
            static_cast<double>(b_ncols) * opts.dense_row_fraction) {
        return RowKind::Dense;
    }
    return ub <= opts.hash_large_threshold ? RowKind::HashSmall : RowKind::HashLarge;
}

/// Compute the distinct column set of row \p i of A*B into s.extracted
/// (sorted ascending). Returns the distinct count.
Index accumulate_row(const CsrMatrix& a, const CsrMatrix& b, Index i, std::uint64_t ub,
                     const SpGemmOptions& opts, RowScratch& s, bool need_columns) {
    const RowKind kind = classify_row(ub, b.ncols(), opts);
    s.extracted.clear();

    switch (kind) {
        case RowKind::Empty:
            return 0;

        case RowKind::Tiny: {
            // Gather every candidate column, then sort + unique in place.
            s.tiny_buffer.clear();
            for (const auto k : a.row(i)) {
                const auto brow = b.row(k);
                s.tiny_buffer.insert(s.tiny_buffer.end(), brow.begin(), brow.end());
            }
            std::sort(s.tiny_buffer.begin(), s.tiny_buffer.end());
            s.tiny_buffer.erase(std::unique(s.tiny_buffer.begin(), s.tiny_buffer.end()),
                                s.tiny_buffer.end());
            if (need_columns) s.extracted = s.tiny_buffer;
            return static_cast<Index>(s.tiny_buffer.size());
        }

        case RowKind::Dense: {
            // Dense bitmap accumulator; output is naturally sorted. The
            // bitmap is all-zero on entry and restored to all-zero on exit
            // by clearing only the words this row touched — rezeroing the
            // full ncols/64-word bitmap per row is what made hub-heavy
            // inputs crawl.
            const std::size_t words = (static_cast<std::size_t>(b.ncols()) + 63) / 64;
            if (opts.legacy_accumulator_reset) {
                s.bitmap_words.assign(words, 0);
                for (const auto k : a.row(i)) {
                    for (const auto c : b.row(k)) {
                        s.bitmap_words[c >> 6] |= std::uint64_t{1} << (c & 63);
                    }
                }
                Index count = 0;
                for (std::size_t w = 0; w < words; ++w) {
                    std::uint64_t bits = s.bitmap_words[w];
                    count += static_cast<Index>(std::popcount(bits));
                    if (need_columns) {
                        while (bits != 0) {
                            s.extracted.push_back(static_cast<Index>(
                                w * 64 +
                                static_cast<std::size_t>(std::countr_zero(bits))));
                            bits &= bits - 1;
                        }
                    }
                }
                return count;
            }
            if (s.bitmap_words.size() < words) s.bitmap_words.resize(words, 0);
            s.touched_words.clear();
            for (const auto k : a.row(i)) {
                for (const auto c : b.row(k)) {
                    const std::size_t w = c >> 6;
                    if (s.bitmap_words[w] == 0) {
                        s.touched_words.push_back(static_cast<std::uint32_t>(w));
                    }
                    s.bitmap_words[w] |= std::uint64_t{1} << (c & 63);
                }
            }
            std::sort(s.touched_words.begin(), s.touched_words.end());
            Index count = 0;
            if (!need_columns) {
                for (const auto w : s.touched_words) {
                    count += static_cast<Index>(std::popcount(s.bitmap_words[w]));
                    s.bitmap_words[w] = 0;
                }
                return count;
            }
            for (const auto w : s.touched_words) {
                count += static_cast<Index>(std::popcount(s.bitmap_words[w]));
            }
            s.extracted.resize(count);
            Index* out = s.extracted.data();
            for (const auto w : s.touched_words) {
                std::uint64_t bits = s.bitmap_words[w];
                s.bitmap_words[w] = 0;
                const Index base = static_cast<Index>(w) << 6;
                while (bits != 0) {
                    *out++ = base + static_cast<Index>(std::countr_zero(bits));
                    bits &= bits - 1;
                }
            }
            return count;
        }

        case RowKind::HashSmall:
        case RowKind::HashLarge: {
            // Open-addressing hash *set* (Boolean specialisation: no values).
            // The table is all-empty on entry; the invariant is restored on
            // exit by erasing only the slots this row filled (tracked in
            // s.inserted) — a full-table assign per row costs several times
            // the insert work at the default load factor.
            const double load = opts.hash_load_factor > 0 ? opts.hash_load_factor : 0.5;
            std::uint64_t want =
                util::next_pow2(static_cast<std::uint64_t>(
                    static_cast<double>(ub) / load + 1.0));
            const std::uint64_t cap = util::next_pow2(
                static_cast<std::uint64_t>(b.ncols()) * 2);
            if (want > cap) want = cap;
            if (want < 16) want = 16;
            const Index mask = static_cast<Index>(want - 1);
            // Probe/collision tallies stay in registers inside the row loop;
            // one prof flush per row keeps the hot path unperturbed.
            std::uint64_t probes = 0;
            std::uint64_t collisions = 0;
            if (opts.legacy_accumulator_reset) {
                s.hash_slots.assign(static_cast<std::size_t>(want), kEmptySlot);
                Index count = 0;
                for (const auto k : a.row(i)) {
                    for (const auto c : b.row(k)) {
                        Index h = (c * 2654435761u) & mask;
                        for (;;) {
                            ++probes;
                            const Index cur = s.hash_slots[h];
                            if (cur == c) break;
                            if (cur == kEmptySlot) {
                                s.hash_slots[h] = c;
                                ++count;
                                break;
                            }
                            ++collisions;
                            h = (h + 1) & mask;
                        }
                    }
                }
                SPBLA_PROF_TALLY(SpgemmHashProbes, probes);
                SPBLA_PROF_TALLY(SpgemmHashCollisions, collisions);
                if (need_columns) {
                    s.extracted.reserve(count);
                    for (std::size_t slot = 0; slot < want; ++slot) {
                        if (s.hash_slots[slot] != kEmptySlot) {
                            s.extracted.push_back(s.hash_slots[slot]);
                        }
                    }
                    std::sort(s.extracted.begin(), s.extracted.end());
                }
                return count;
            }
            if (s.hash_slots.size() < want) {
                s.hash_slots.resize(static_cast<std::size_t>(want), kEmptySlot);
            }
            s.inserted.clear();

            for (const auto k : a.row(i)) {
                for (const auto c : b.row(k)) {
                    Index h = (c * 2654435761u) & mask;
                    for (;;) {
                        ++probes;
                        const Index cur = s.hash_slots[h];
                        if (cur == c) break;  // duplicate: Boolean OR is idempotent
                        if (cur == kEmptySlot) {
                            s.hash_slots[h] = c;
                            s.inserted.push_back(c);
                            break;
                        }
                        ++collisions;
                        h = (h + 1) & mask;
                    }
                }
            }
            SPBLA_PROF_TALLY(SpgemmHashProbes, probes);
            SPBLA_PROF_TALLY(SpgemmHashCollisions, collisions);
            const Index count = static_cast<Index>(s.inserted.size());
            if (static_cast<std::uint64_t>(count) * 2 >= want) {
                std::fill(s.hash_slots.begin(),
                          s.hash_slots.begin() + static_cast<std::ptrdiff_t>(want),
                          kEmptySlot);
            } else {
                // Re-probe each inserted value; earlier erasures may punch
                // holes in a later value's chain, so skip over empties
                // instead of stopping at them.
                for (const auto c : s.inserted) {
                    Index h = (c * 2654435761u) & mask;
                    while (s.hash_slots[h] != c) h = (h + 1) & mask;
                    s.hash_slots[h] = kEmptySlot;
                }
            }
            if (need_columns) {
                s.extracted.swap(s.inserted);
                std::sort(s.extracted.begin(), s.extracted.end());
            }
            return count;
        }
    }
    return 0;  // unreachable
}

/// Chunk grain per bin: heavy bins get one row per ticket so a hub row
/// cannot stall the rows queued behind it; light bins amortise ticket
/// claims over many rows.
[[nodiscard]] constexpr std::size_t bin_grain(RowKind kind) {
    switch (kind) {
        case RowKind::Dense:
        case RowKind::HashLarge:
            return 1;
        case RowKind::HashSmall:
            return 32;
        case RowKind::Tiny:
            return 256;
        case RowKind::Empty:
            break;
    }
    return 256;
}

/// Per-size-class row lists, built once from the upper bounds and reused by
/// the symbolic and numeric launches.
struct BinSchedule {
    std::array<std::vector<Index>, kNumKinds> rows;

    /// One ticket of the fused launch: a slice of one bin's row list.
    struct Chunk {
        const std::vector<Index>* rows;
        std::size_t begin;
        std::size_t end;
    };
    std::vector<Chunk> chunks;

    void build(const std::uint64_t* ub, Index m, Index b_ncols,
               const SpGemmOptions& opts) {
        for (Index i = 0; i < m; ++i) {
            const auto kind = classify_row(ub[i], b_ncols, opts);
            if (kind == RowKind::Empty) continue;
            rows[static_cast<std::size_t>(kind)].push_back(i);
        }
        // Heaviest bins first: their stragglers overlap with the light work
        // that follows in ticket order.
        for (const RowKind kind : {RowKind::Dense, RowKind::HashLarge,
                                   RowKind::HashSmall, RowKind::Tiny}) {
            const auto& bin = rows[static_cast<std::size_t>(kind)];
            const std::size_t grain = bin_grain(kind);
            for (std::size_t begin = 0; begin < bin.size(); begin += grain) {
                chunks.push_back({&bin, begin, std::min(begin + grain, bin.size())});
            }
        }
    }
};

/// Frees a one-shot aggregate MemoryTracker charge on scope exit (the
/// symbolic-column cache stands in for device scratch, so its footprint
/// must appear in the tracker like any other device allocation).
struct ScratchCharge {
    backend::MemoryTracker* tracker{nullptr};
    std::size_t bytes{0};

    void charge(backend::MemoryTracker& t, std::size_t b) {
        tracker = &t;
        bytes = b;
        t.on_alloc(b);
    }
    ~ScratchCharge() {
        if (tracker) tracker->on_free(bytes);
    }
};

/// Bin-occupancy tally: an O(m) classify pass on the calling thread, paid
/// only in profiling builds. Both paths report it, so the bin counters cover
/// every row of every op whichever kernel ran it.
void tally_bins(const std::uint64_t* ub, Index m, Index b_ncols, const SpGemmOptions& opts) {
    if constexpr (prof::kCompiledLevel >= SPBLA_PROFILE_COUNTERS) {
        if (prof::counting()) {
            using telemetry::Counter;
            std::array<std::uint64_t, kNumKinds> tally{};
            for (Index i = 0; i < m; ++i) {
                ++tally[static_cast<std::size_t>(classify_row(ub[i], b_ncols, opts))];
            }
            const auto rows = [&](RowKind k) { return tally[static_cast<std::size_t>(k)]; };
            telemetry::count(Counter::SpgemmRowsTotal, m);
            telemetry::count(Counter::SpgemmRowsEmpty, rows(RowKind::Empty));
            telemetry::count(Counter::SpgemmRowsTiny, rows(RowKind::Tiny));
            telemetry::count(Counter::SpgemmRowsHashSmall, rows(RowKind::HashSmall));
            telemetry::count(Counter::SpgemmRowsHashLarge, rows(RowKind::HashLarge));
            telemetry::count(Counter::SpgemmRowsDense, rows(RowKind::Dense));
        }
    }
}

/// The Boolean lean kernel's worker scratch: the shared marker and bitmap,
/// plus a column buffer for a sort row's gathered products or a marker
/// row's new columns.
class LeanScratch : public LeanScratchBase {
public:
    LeanScratch(backend::Arena& arena, Index ncols, std::size_t buffer_cap)
        : LeanScratchBase{arena, ncols}, buffer_cap_{buffer_cap} {}

    [[nodiscard]] Index* buffer() {
        if (buffer_ == nullptr) buffer_ = carve<Index>(buffer_cap_);
        return buffer_;
    }

private:
    std::size_t buffer_cap_;
    Index* buffer_{nullptr};
};

/// Write row i of C | A*B (C only when kAccumulate) to \p out in one pass;
/// returns its length. \p out has room for min(ub + nnz(C row), ncols).
/// Rows with ub == 0 never get here: the runner copies them in runs.
template <bool kAccumulate>
Index lean_row(const CsrView& c, const CsrView& a, const CsrView& b, Index i, std::uint64_t ub,
               const LeanRowClasses& classes, LeanScratch& s, Index* out) {
    const Index* c_begin = kAccumulate ? c.cols + c.off[i] : nullptr;
    const Index* c_end = kAccumulate ? c.cols + c.off[i + 1] : nullptr;
    if (ub < classes.sort_below) {
        // Gather, sort and dedupe (in the output itself for multiply: a sort
        // row's bound fits its room), then merge behind C's row: no marker.
        Index* g = kAccumulate ? s.buffer() : out;
        Index n = 0;
        for (Index p = a.off[i]; p < a.off[i + 1]; ++p) {
            const Index k = a.cols[p];
            for (Index q = b.off[k]; q < b.off[k + 1]; ++q) g[n++] = b.cols[q];
        }
        std::sort(g, g + n);
        Index* g_end = std::unique(g, g + n);
        if constexpr (kAccumulate) {
            return static_cast<Index>(std::set_union(c_begin, c_end, g, g_end, out) - out);
        }
        return static_cast<Index>(g_end - out);
    }
    if (ub >= classes.dense_from) {
        // Touched-word bitmap: one OR per product, and the output comes out
        // sorted by walking the (sorted) touched words.
        std::uint64_t* bitmap = s.bitmap();
        std::uint32_t* touched = s.touched();
        std::size_t n_touched = 0;
        const auto set = [&](Index col) {
            const std::size_t w = col >> 6;
            if (bitmap[w] == 0) touched[n_touched++] = static_cast<std::uint32_t>(w);
            bitmap[w] |= std::uint64_t{1} << (col & 63);
        };
        for (const Index* p = c_begin; p != c_end; ++p) set(*p);
        for (Index p = a.off[i]; p < a.off[i + 1]; ++p) {
            const Index k = a.cols[p];
            for (Index q = b.off[k]; q < b.off[k + 1]; ++q) set(b.cols[q]);
        }
        std::sort(touched, touched + n_touched);
        Index* o = out;
        for (std::size_t t = 0; t < n_touched; ++t) {
            const std::uint32_t w = touched[t];
            std::uint64_t bits = bitmap[w];
            bitmap[w] = 0;
            const Index base = static_cast<Index>(w) << 6;
            while (bits != 0) {
                *o++ = base + static_cast<Index>(std::countr_zero(bits));
                bits &= bits - 1;
            }
        }
        return static_cast<Index>(o - out);
    }
    // Row-stamped marker: C's row seeds the stamps, so only columns the row
    // lacks are collected; they are sorted and merged behind C's row.
    Index* marker = s.marker();
    for (const Index* p = c_begin; p != c_end; ++p) marker[*p] = i;
    Index* fresh = kAccumulate ? s.buffer() : out;
    Index n_fresh = 0;
    for (Index p = a.off[i]; p < a.off[i + 1]; ++p) {
        const Index k = a.cols[p];
        for (Index q = b.off[k]; q < b.off[k + 1]; ++q) {
            const Index col = b.cols[q];
            if (marker[col] != i) {
                marker[col] = i;
                fresh[n_fresh++] = col;
            }
        }
    }
    if (n_fresh > 1) std::sort(fresh, fresh + n_fresh);
    if constexpr (!kAccumulate) return n_fresh;
    return static_cast<Index>(std::merge(c_begin, c_end, fresh, fresh + n_fresh, out) - out);
}

/// The lean path: C | A*B (C only when kAccumulate) written straight out in
/// one pass through the shared runner (spgemm_plan.hpp), no symbolic count,
/// no per-row cache. Rows with ub == 0 are C's rows (or empty) and go in
/// runs; the runner's join builds the exact-size column array.
template <bool kAccumulate>
CsrMatrix lean_multiply(backend::Context& ctx, const CsrMatrix* c, const CsrMatrix& a,
                        const CsrMatrix& b, const RowBounds& bounds,
                        const SpGemmOptions& opts) {
    SPBLA_PROF_SPAN("spgemm.lean");
    const Index m = a.nrows();
    const Index ncols = b.ncols();
    const std::uint64_t* ub = bounds.ub.data();
    const CsrView av{a};
    const CsrView bv{b};
    const CsrView cv{kAccumulate ? *c : a};  // only read when accumulating
    const LeanRowClasses classes = lean_row_classes(opts, ncols, bounds);
    constexpr RowFrom kNoProduct = kAccumulate ? RowFrom::First : RowFrom::Empty;
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> cols;
    lean_run<void>(
        ctx, m, bounds.out_bound,
        lean_chunk_count(lean_workers(ctx), bounds.busy_rows, ncols, bounds.out_bound),
        [&](Index i) {
            const std::uint64_t with_c = kAccumulate ? ub[i] + (cv.off[i + 1] - cv.off[i]) : ub[i];
            return std::min<std::uint64_t>(with_c, ncols);
        },
        [&](Index i) { return ub[i] == 0 ? kNoProduct : RowFrom::Write; },
        {RunSource<void>{cv.off, cv.cols}, RunSource<void>{}},
        [&](backend::Arena& arena) { return LeanScratch{arena, ncols, classes.buffer_cap}; },
        [&](LeanScratch& s, Index i, Index* out, std::byte*) {
            return lean_row<kAccumulate>(cv, av, bv, i, ub[i], classes, s, out);
        },
        row_offsets.data(), cols, nullptr);
    return CsrMatrix::from_raw(m, ncols, std::move(row_offsets), std::move(cols));
}

/// Launch schedule of every pass of an op: ticket claims unless the ladder
/// ablates them.
[[nodiscard]] util::Schedule op_schedule(const SpGemmOptions& opts) {
    return opts.use_ticket_scheduler ? util::Schedule::Dynamic : util::Schedule::Static;
}

/// The binned kernel: bins heavy-first, the symbolic count pass with its
/// per-row column cache, the exclusive scan, then the numeric fill.
CsrMatrix binned_multiply(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b,
                          const std::uint64_t* ub, const SpGemmOptions& opts) {
    const Index m = a.nrows();
    const util::Schedule sched = op_schedule(opts);

    // Launch helper shared by the symbolic and numeric passes: runs
    // row_fn(row, scratch) for every non-empty row, either as the bin
    // schedule's fused heavy-first grid or as a flat chunked sweep.
    BinSchedule bins;
    if (opts.use_bin_scheduler) bins.build(ub, m, b.ncols(), opts);
    const auto launch_rows = [&](const std::function<void(Index, RowScratch&)>& row_fn) {
        if (opts.use_bin_scheduler) {
            ctx.parallel_for_chunks(
                bins.chunks.size(), 1,
                [&](std::size_t cb, std::size_t ce) {
                    RowScratch scratch{ctx.scratch_arena()};
                    for (std::size_t c = cb; c < ce; ++c) {
                        const auto& chunk = bins.chunks[c];
                        for (std::size_t p = chunk.begin; p < chunk.end; ++p) {
                            row_fn((*chunk.rows)[p], scratch);
                        }
                    }
                },
                sched);
        } else {
            ctx.parallel_for_chunks(
                m, 64,
                [&](std::size_t begin, std::size_t end) {
                    RowScratch scratch{ctx.scratch_arena()};
                    for (std::size_t i = begin; i < end; ++i) {
                        row_fn(static_cast<Index>(i), scratch);
                    }
                },
                sched);
        }
    };

    // Symbolic-column cache: rows whose extracted column set fits the budget
    // keep it between the count and fill passes, making the numeric phase a
    // plain copy for them. ub (clamped to ncols) over-reserves; the refund
    // after the exact count keeps the accounting tight.
    const bool caching = opts.symbolic_cache_budget > 0;
    std::vector<std::vector<Index>> cache;
    std::vector<std::uint8_t> cached;
    std::atomic<std::size_t> cache_bytes{0};
    if (caching) {
        cache.resize(m);
        cached.assign(m, 0);
    }

    // Symbolic phase 2: exact per-row sizes via the accumulators (columns
    // extracted along the way for rows the cache accepts). The offsets and
    // column arrays become the output matrix, so they come from the pooled
    // free lists rather than the arena: a dropped product hands them back.
    static_assert(std::is_same_v<backend::BufferPool::Buffer, std::vector<Index>>,
                  "pooled buffers must be CSR index arrays");
    auto row_offsets = ctx.buffer_pool().acquire_zeroed(static_cast<std::size_t>(m) + 1);
    {
    SPBLA_PROF_SPAN("spgemm.symbolic");
    launch_rows([&](Index i, RowScratch& scratch) {
        std::size_t reserved = 0;
        bool keep = false;
        if (caching) {
            reserved = static_cast<std::size_t>(
                           std::min<std::uint64_t>(ub[i], b.ncols())) *
                       sizeof(Index);
            const std::size_t prior = cache_bytes.fetch_add(reserved);
            if (prior + reserved <= opts.symbolic_cache_budget) {
                keep = true;
            } else {
                cache_bytes.fetch_sub(reserved);
                reserved = 0;
            }
        }
        const Index size =
            accumulate_row(a, b, i, ub[i], opts, scratch, /*need_columns=*/keep);
        row_offsets[i] = size;
        if (keep) {
            // The cache outlives this worker's chunk scope, so it copies out
            // of the arena-backed extraction buffer into heap storage (the
            // old swap-steal would leak arena memory past its scope).
            cache[i].assign(scratch.extracted.begin(), scratch.extracted.end());
            cached[i] = 1;
            cache_bytes.fetch_sub(reserved - cache[i].size() * sizeof(Index));
        }
    });
    }
    ScratchCharge cache_charge;
    if (caching) cache_charge.charge(ctx.tracker(), cache_bytes.load());

    // Exact allocation: exclusive scan of row sizes (thrust analog; the
    // trailing 0 turns the scanned array into the CSR offsets directly).
    const std::uint64_t total = ctx.exclusive_scan(row_offsets);
    SPBLA_REQUIRE(total <= 0xFFFFFFFFull, Status::OutOfRange,
                  "spgemm: result nnz overflows Index");

    // Numeric phase: cached rows are copied straight out; only rows the
    // budget excluded re-run their accumulator. Every element is written
    // exactly once, so the unspecified pooled contents are fine.
    auto cols = ctx.buffer_pool().acquire(static_cast<std::size_t>(total));
    {
    SPBLA_PROF_SPAN("spgemm.numeric");
    launch_rows([&](Index i, RowScratch& scratch) {
        if (caching && cached[i]) {
            std::copy(cache[i].begin(), cache[i].end(), cols.begin() + row_offsets[i]);
            return;
        }
        accumulate_row(a, b, i, ub[i], opts, scratch, /*need_columns=*/true);
        std::copy(scratch.extracted.begin(), scratch.extracted.end(),
                  cols.begin() + row_offsets[i]);
    });
    }
    if constexpr (prof::kCompiledLevel >= SPBLA_PROFILE_COUNTERS) {
        if (caching && prof::counting()) {
            std::uint64_t kept = 0;
            for (Index i = 0; i < m; ++i) kept += cached[i];
            telemetry::count(telemetry::Counter::SpgemmCachedRows, kept);
        }
    }
    return CsrMatrix::from_raw(m, b.ncols(), std::move(row_offsets), std::move(cols));
}

}  // namespace

CsrMatrix multiply(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b,
                   const SpGemmOptions& opts) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "spgemm: A.ncols must equal B.nrows");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("spgemm.multiply");
    // Everything this op allocates on the calling thread's arena (the bounds,
    // the lean staging buffer) dies here; worker-side scratch lives in the
    // per-chunk scopes parallel_for_chunks opens on each worker's own arena.
    backend::ScopedArena op_scope{ctx.scratch_arena()};
    const RowBounds bounds =
        row_bounds(ctx, a.nrows(), b.nrows(), b.ncols(), a.row_offsets().data(),
                   a.cols().data(), b.row_offsets().data(), nullptr, op_schedule(opts));
    tally_bins(bounds.ub.data(), a.nrows(), b.ncols(), opts);
    CsrMatrix out = lean_eligible(opts, bounds.max, bounds.out_bound)
                        ? lean_multiply<false>(ctx, nullptr, a, b, bounds, opts)
                        : binned_multiply(ctx, a, b, bounds.ub.data(), opts);
    SPBLA_VALIDATE(out);
    return out;
}

CsrMatrix multiply_add(backend::Context& ctx, const CsrMatrix& c, const CsrMatrix& a,
                       const CsrMatrix& b, const SpGemmOptions& opts) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "spgemm: A.ncols must equal B.nrows");
    SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(),
                  Status::DimensionMismatch,
                  "spgemm: accumulator shape must match A.nrows x B.ncols");
    SPBLA_VALIDATE(c);
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("spgemm.multiply_add");
    backend::ScopedArena op_scope{ctx.scratch_arena()};
    const RowBounds bounds =
        row_bounds(ctx, a.nrows(), b.nrows(), b.ncols(), a.row_offsets().data(),
                   a.cols().data(), b.row_offsets().data(), c.row_offsets().data(),
                   op_schedule(opts));
    tally_bins(bounds.ub.data(), a.nrows(), b.ncols(), opts);
    if (lean_eligible(opts, bounds.max, bounds.out_bound)) {
        CsrMatrix out = lean_multiply<true>(ctx, &c, a, b, bounds, opts);
        SPBLA_VALIDATE(out);
        return out;
    }
    CsrMatrix product = binned_multiply(ctx, a, b, bounds.ub.data(), opts);
    SPBLA_VALIDATE(product);
    CsrMatrix out = ewise_add(ctx, c, product);
    // The intermediate product is dead once accumulated; hand its arrays
    // back to the pool so the next iteration's multiply re-acquires them
    // (the closure/CFPQ loops hit this every round).
    auto [offsets, cols] = std::move(product).release_raw();
    ctx.buffer_pool().release(std::move(offsets));
    ctx.buffer_pool().release(std::move(cols));
    return out;
}

}  // namespace spbla::ops
