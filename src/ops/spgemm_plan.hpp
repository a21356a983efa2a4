/// \file spgemm_plan.hpp
/// \brief The lean SpGEMM path's bounds walk, eligibility rule, row classes
/// and the one-pass chunked runner.
///
/// The bounds walk, rule and classes are shared by the Boolean kernel
/// (ops/spgemm.cpp) and its value-carrying twin (baseline/generic_spgemm.cpp):
/// both take the lean path on exactly the same ops, give each row the same
/// accumulator, split the rows the same way and join them the same way, so
/// E1 measures the Boolean specialisation and nothing else. Each
/// twin keeps only its row writer. The runner (lean_run) also carries the
/// element-wise kernels (ops/ewise_plan.hpp), whose row bounds come from the
/// operands' row offsets alone.
///
/// Delta-sized ops. When one operand is a delta (a few cells on a tall
/// matrix), almost every row of the output is empty or a verbatim copy of
/// one operand's row. The runner does not call the row writer for those
/// rows: each chunk finds maximal runs of them and copies a run as one
/// block plus an offset loop (RowFrom). For SpGEMM the run rule is ub == 0:
/// the row is C's row under multiply_add and empty under multiply. The
/// bounds walk switches to a masked flat scan when B has at most nrows/64
/// busy rows (row_bounds), because the per-row walk reads B's offsets for
/// every entry of A although almost none of them hit. Both choices follow
/// the input alone: no option selects them and both policies run them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/arena.hpp"
#include "backend/context.hpp"
#include "core/types.hpp"
#include "ops/spgemm.hpp"
#include "util/parallel.hpp"

namespace spbla::ops {

/// Raw CSR views for the row writers (no per-access range check).
struct CsrView {
    const Index* off;
    const Index* cols;

    explicit CsrView(const CsrMatrix& m) : off{m.row_offsets().data()}, cols{m.cols().data()} {}
};

/// Per-row product bounds of one op, computed once and shared by the
/// eligibility test, the row classes, the lean output sizing and the binned
/// schedule.
struct RowBounds {
    backend::DeviceBuffer<std::uint64_t> ub;  ///< product bound of each row of A*B
    std::uint64_t max{0};                     ///< largest ub
    /// Sum over rows of min(ub + nnz(C row), ncols): the lean path's output
    /// capacity (C is the multiply_add accumulator, absent for multiply).
    std::uint64_t out_bound{0};
    std::uint64_t busy_rows{0};  ///< rows with a non-zero term in out_bound
    /// The part of out_bound in rows with a product term (ub > 0): the
    /// columns a lean op's accumulators see. Rows with ub == 0 only copy
    /// C's row.
    std::uint64_t product_bound{0};
};

/// Whether B (\p inner rows, offsets \p b_off) is hypersparse: at most
/// inner / 64 of its rows are busy. If so, \p mask (inner bytes) holds its
/// busy rows (mask[k] != 0 iff B's row k is non-empty). The count stops at
/// the limit, so a dense B pays for a few of its rows only.
[[nodiscard]] inline bool mark_hypersparse_rows(Index inner, const Index* b_off,
                                                std::uint8_t* mask) {
    const Index limit = inner / 64;
    Index busy = 0;
    for (Index k = 0; k < inner; ++k) {
        const bool non_empty = b_off[k + 1] != b_off[k];
        mask[k] = static_cast<std::uint8_t>(non_empty);
        if (non_empty && ++busy > limit) return false;
    }
    return true;
}

/// The row i in [from, end) with off[i] <= p < off[i + 1], given that
/// off[from] <= p < off[end]: a galloping search from \p from. The masked
/// walk's hits arrive in increasing order, so searching from the last hit's
/// row costs the log of the rows skipped, and one comparison when the next
/// hit is in the same or the next row. A delta can hit most rows of a
/// closure (a 16-cell delta on the LUBM(60) closure hit 84% of its rows),
/// and a binary search over the whole chunk per hit made that walk several
/// times slower than the per-row one.
[[nodiscard]] inline std::size_t row_of(const Index* off, std::size_t from, std::size_t end,
                                        Index p) {
    if (off[from + 1] > p) return from;
    // Invariant: off[lo + 1] <= p; find the first step whose end passes p.
    std::size_t lo = from;
    std::size_t step = 1;
    while (lo + step < end && off[lo + step + 1] <= p) {
        lo += step;
        step *= 2;
    }
    const std::size_t hi = std::min(lo + step, end - 1);
    // The first offset above p in off[lo + 2 .. hi + 1] ends row i.
    return static_cast<std::size_t>(std::upper_bound(off + lo + 2, off + hi + 2, p) - off) - 1;
}

/// One walk over A (CSR arrays \p a_off / \p a_cols, m rows) against B's
/// offsets (\p inner rows): ub(i) = sum over k in A(i,:) of nnz(B(k,:)),
/// plus the bound maximum and the clamped output-size sum. \p c_off
/// (nullable) adds the accumulator's rows. Arena scratch on the calling
/// thread, reclaimed by the caller's op scope.
///
/// The walk is picked by B's shape. A hypersparse B (a delta, see
/// mark_hypersparse_rows) is walked masked: each chunk zeroes its bounds,
/// scans its slice of A's column array flat and branch-free against the
/// byte mask of B's busy rows, and finds the row of each hit by a search in
/// A's offsets (row_of), so the walk reads A's columns once with no per-row
/// inner loop and no load of B's offsets for the rows it misses. C * delta,
/// the closure stream's product, is this shape, and the per-row walk it
/// replaces was the top of that workload's profile. Any other B keeps the
/// per-row walk, which reads B's row length for every entry of A.
[[nodiscard]] inline RowBounds row_bounds(backend::Context& ctx, Index m, Index inner,
                                          Index ncols, const Index* a_off,
                                          const Index* a_cols, const Index* b_off,
                                          const Index* c_off, util::Schedule sched) {
    RowBounds out{ctx.scratch_alloc<std::uint64_t>(m)};
    std::uint64_t* ub = out.ub.data();
    auto busy_rows = ctx.scratch_alloc<std::uint8_t>(inner);
    const std::uint8_t* mask =
        mark_hypersparse_rows(inner, b_off, busy_rows.data()) ? busy_rows.data() : nullptr;
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::uint64_t> product{0};
    // A chunk of at least 1024 rows, and of enough of the walk (a unit per
    // row and per entry of A) to repay a pool ticket: a walk over a few
    // hundred entries, like delta * C, runs inline.
    constexpr std::uint64_t kMinChunkWork = 16384;
    const std::uint64_t work = std::uint64_t{m} + a_off[m] + 1;
    const auto grain = static_cast<std::size_t>(
        std::max<std::uint64_t>(1024, std::uint64_t{m} * kMinChunkWork / work));
    ctx.parallel_for_chunks(
        m, grain,
        [&](std::size_t begin, std::size_t end) {
            std::uint64_t chunk_max = 0;
            std::uint64_t chunk_total = 0;
            std::uint64_t chunk_busy = 0;
            std::uint64_t chunk_product = 0;
            const auto account = [&](std::size_t i, std::uint64_t bound) {
                chunk_max = std::max(chunk_max, bound);
                const std::uint64_t with_c =
                    c_off != nullptr ? bound + (c_off[i + 1] - c_off[i]) : bound;
                const std::uint64_t room = std::min<std::uint64_t>(with_c, ncols);
                chunk_total += room;
                chunk_busy += with_c != 0;
                if (bound != 0) chunk_product += room;
            };
            if (mask != nullptr) {
                std::fill(ub + begin, ub + end, std::uint64_t{0});
                // Blocks of A's columns: a branch-free pass lists the block's
                // hits, then each hit is mapped to its row.
                constexpr Index kBlock = 256;
                std::array<Index, kBlock> hits{};
                std::size_t row = begin;  // the row of the last hit
                for (Index lo = a_off[begin]; lo < a_off[end];) {
                    const Index hi = a_off[end] - lo > kBlock ? lo + kBlock : a_off[end];
                    std::size_t n_hits = 0;
                    for (Index p = lo; p < hi; ++p) {
                        hits[n_hits] = p;
                        n_hits += mask[a_cols[p]];
                    }
                    for (std::size_t h = 0; h < n_hits; ++h) {
                        const Index k = a_cols[hits[h]];
                        row = row_of(a_off, row, end, hits[h]);
                        ub[row] += b_off[k + 1] - b_off[k];
                    }
                    lo = hi;
                }
                for (std::size_t i = begin; i < end; ++i) account(i, ub[i]);
            } else {
                for (std::size_t i = begin; i < end; ++i) {
                    std::uint64_t bound = 0;
                    for (Index p = a_off[i]; p < a_off[i + 1]; ++p) {
                        const Index k = a_cols[p];
                        bound += b_off[k + 1] - b_off[k];
                    }
                    ub[i] = bound;
                    account(i, bound);
                }
            }
            total.fetch_add(chunk_total, std::memory_order_relaxed);
            busy.fetch_add(chunk_busy, std::memory_order_relaxed);
            product.fetch_add(chunk_product, std::memory_order_relaxed);
            std::uint64_t seen = max.load(std::memory_order_relaxed);
            while (seen < chunk_max &&
                   !max.compare_exchange_weak(seen, chunk_max, std::memory_order_relaxed)) {
            }
        },
        sched);
    out.max = max.load();
    out.out_bound = total.load();
    out.busy_rows = busy.load();
    out.product_bound = product.load();
    return out;
}

/// The lean path takes an op whose every row bound fits the hash-small class
/// and whose staging buffer (\p out_bound columns) fits the scratch budget
/// and an Index offset, and only when each knob the SpGEMM ladder ablates is
/// at its default: an ablation rung keeps measuring the binned kernel it was
/// built for.
///
/// The row-bound cut is per op, not per row: an op with a heavy row is a
/// power-law product whose many duplicate products make the clamped bound
/// sum overshoot the output several times over, and the binned kernel sizes
/// its output exactly. With the cut removed (4-vCPU VM, release, parallel
/// context), the lean path held 3.1x the binned footprint on E1's
/// rmat-11-8 (9.95 against 3.18 MB) and 1.7x on rmat-13-8, for 0.84x to
/// 1.16x of the binned time (SpGEMM ladder, medians of five alternated
/// runs: rmat-12-8 5.58 against 6.10 ms, zipf-4096-16 19.9 against 17.2 ms).
[[nodiscard]] inline bool lean_eligible(const SpGemmOptions& opts, std::uint64_t max_ub,
                                        std::uint64_t out_bound) {
    return max_ub <= opts.hash_large_threshold &&
           out_bound <= opts.symbolic_cache_budget / sizeof(Index) &&
           out_bound <= std::numeric_limits<Index>::max() &&
           !opts.legacy_accumulator_reset && opts.use_binning && opts.use_bin_scheduler &&
           opts.use_ticket_scheduler;
}

/// The lean path's row classes, fixed per op from the row bound ub:
///  - ub == 0: no product term (multiply_add copies C's row);
///  - ub < sort_below: gather, sort and dedupe, no column-indexed scratch;
///  - ub >= dense_from: the touched-word bitmap;
///  - otherwise: the row-stamped marker over ncols.
/// Sort rows exist only in an op whose rows with a product term stage
/// fewer columns than ncols (a row-compacted r x kn product, or C | C*D
/// with a tiny D): it could not repay filling an ncols-sized marker, so
/// every row below the dense crossover sorts. Any other op sends even its
/// tiny rows to the marker, because in a fixpoint's multiply_add most
/// products already sit in C's row, and the marker drops them before
/// anything is sorted (with tiny rows sorting, rpq-lubm's median gain over
/// the parent fell from 1.99x to 1.76x, EXPERIMENTS §E10o). Ops on fewer
/// than 256 columns have no dense rows and always keep the marker, whose
/// footprint is then below 1 KiB.
struct LeanRowClasses {
    std::uint64_t sort_below;
    std::uint64_t dense_from;
    /// Capacity of the per-chunk column buffer: a sort row's gathered
    /// products or a marker row's new columns.
    std::size_t buffer_cap;
};

[[nodiscard]] inline LeanRowClasses lean_row_classes(const SpGemmOptions& opts, Index ncols,
                                                     const RowBounds& bounds) {
    constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t tiny_end = std::uint64_t{opts.tiny_row_threshold} + 1;
    // Smallest bound classify_row bins as dense: past the tiny class and the
    // dense_row_fraction crossover, on at least 256 columns.
    std::uint64_t dense_from = kNever;
    const double at = std::ceil(static_cast<double>(ncols) * opts.dense_row_fraction);
    if (ncols >= 256 && at < static_cast<double>(kNever)) {
        dense_from = std::max(tiny_end, static_cast<std::uint64_t>(std::max(at, 0.0)));
    }
    const bool marker = ncols < 256 || ncols <= bounds.product_bound;
    const std::uint64_t sort_below =
        marker ? std::uint64_t{1} : std::min(dense_from, std::uint64_t{ncols} + 1);
    // A sort row gathers at most ncols products (its bound is below
    // ncols + 1), and a marker row collects at most ncols new columns.
    const std::uint64_t cap = std::min<std::uint64_t>(bounds.max, ncols);
    return {sort_below, dense_from, static_cast<std::size_t>(cap)};
}

/// Worker scratch of the lean path, carved from the chunk's arena on first
/// use so a chunk pays only for the accumulators its rows need: the
/// row-stamped marker (marker[c] == i iff row i already holds column c;
/// kLeanUnmarked before any row) and the dense rows' bitmap with its
/// touched-word list. Each twin derives its own buffers through carve().
class LeanScratchBase {
public:
    static constexpr Index kLeanUnmarked = std::numeric_limits<Index>::max();

    LeanScratchBase(backend::Arena& arena, Index ncols) : arena_{&arena}, ncols_{ncols} {}

    [[nodiscard]] Index* marker() {
        if (marker_ == nullptr) {
            marker_ = carve<Index>(ncols_);
            std::fill(marker_, marker_ + ncols_, kLeanUnmarked);
        }
        return marker_;
    }
    [[nodiscard]] std::uint64_t* bitmap() {
        if (bitmap_ == nullptr) {
            const std::size_t words = (static_cast<std::size_t>(ncols_) + 63) / 64;
            bitmap_ = carve<std::uint64_t>(words);
            std::fill(bitmap_, bitmap_ + words, std::uint64_t{0});
            touched_ = carve<std::uint32_t>(words);
        }
        return bitmap_;
    }
    /// The dense rows' touched words; valid once bitmap() has been called.
    [[nodiscard]] std::uint32_t* touched() const noexcept { return touched_; }

protected:
    template <class T>
    [[nodiscard]] T* carve(std::size_t n) {
        return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    [[nodiscard]] Index ncols() const noexcept { return ncols_; }

private:
    backend::Arena* arena_;
    Index ncols_;
    Index* marker_{nullptr};
    std::uint64_t* bitmap_{nullptr};
    std::uint32_t* touched_{nullptr};
};

/// Row chunks for a lean op on \p workers workers. Work is counted in
/// staged entries (\p out_bound), plus a few per row that stages any
/// (\p busy_rows) for its bookkeeping. A chunk must carry enough of it to
/// pay for a ticket and for its own marker (\p marker_cols wide; 0 for a
/// kernel without one), so small ops run as one chunk on the calling thread.
[[nodiscard]] inline std::size_t lean_chunk_count(std::size_t workers, std::uint64_t busy_rows,
                                                  Index marker_cols, std::uint64_t out_bound) {
    constexpr std::uint64_t kRowWork = 4;
    constexpr std::uint64_t kMinChunkWork = 8192;
    if (workers <= 1) return 1;
    const std::uint64_t work = out_bound + kRowWork * busy_rows;
    const std::uint64_t per_chunk = std::max<std::uint64_t>(kMinChunkWork, marker_cols / 2);
    return static_cast<std::size_t>(std::clamp<std::uint64_t>(work / per_chunk, 1, workers * 4));
}

/// Workers a lean op may split over: the context's pool, or 1 under
/// Policy::Sequential.
[[nodiscard]] inline std::size_t lean_workers(const backend::Context& ctx) noexcept {
    return ctx.pool() != nullptr ? ctx.pool()->size() : 1;
}

/// Cut rows [0, m) into \p n_chunks chunks at equal shares of \p out_bound,
/// the sum of cap(i) over the rows: chunk k owns rows [first[k],
/// first[k+1]) and stages its output from base[k] (arrays of n_chunks + 1).
template <class RowCap>
void lean_cuts(Index m, std::uint64_t out_bound, std::size_t n_chunks, RowCap cap, Index* first,
               std::uint64_t* base) {
    std::size_t k = 0;
    std::uint64_t acc = 0;
    first[0] = 0;
    base[0] = 0;
    for (Index i = 0; i < m && k + 1 < n_chunks; ++i) {
        acc += cap(i);
        if (acc * n_chunks >= out_bound * (k + 1)) {
            ++k;
            first[k] = i + 1;
            base[k] = acc;
        }
    }
    for (++k; k <= n_chunks; ++k) {
        first[k] = m;
        base[k] = out_bound;
    }
}

/// Stored value type of a lean op: \p Val, or a placeholder byte for the
/// Boolean kernel, which stages no values.
template <class Val>
using LeanValue = std::conditional_t<std::is_void_v<Val>, std::byte, Val>;

/// Where the runner takes a row of a lean op's output from. Only Write rows
/// reach the row writer; the others are gathered into maximal runs of
/// consecutive rows with the same source, and a run costs one block copy of
/// its column range plus one offset loop.
///  - Write: the row writer builds the row;
///  - Empty: the row is empty;
///  - First, Second: the row is exactly that source's row (RunSource).
enum class RowFrom : std::uint8_t { Write, Empty, First, Second };

/// An operand whose rows a run copies verbatim: CSR arrays, with vals null
/// when the op stages no values.
template <class Val>
struct RunSource {
    const Index* off{nullptr};
    const Index* cols{nullptr};
    const LeanValue<Val>* vals{nullptr};
};

/// The one-pass runner: every row written once into an op-scoped staging
/// buffer sized by the row caps' sum, one region per chunk of rows, then the
/// regions appended in order to the exact-size output. \p Val is the value
/// type (void: columns only).
///  - cap(i): row i's staging room; the caps over rows [0, m) sum to
///    \p cap_sum, which must fit an Index (staged positions are Index).
///  - n_chunks: the row chunks (lean_chunk_count); one runs inline on the
///    calling thread, more go to the pool.
///  - from(i): where row i comes from (RowFrom). A First/Second row's
///    length must be at most cap(i).
///  - sources: the rows First and Second copy (unused entries may be empty).
///  - make_scratch(arena): a chunk's worker scratch, built on the executing
///    worker's arena (reclaimed when the chunk ends).
///  - write_row(scratch, i, cols, vals): writes row i sorted to cols (and
///    vals unless Val is void) and returns its length, at most cap(i).
///  - row_offsets: m + 1 entries with [0] == 0; left holding the output's
///    offsets.
///  - cols, vals: the output arrays, empty on entry; vals is null when Val
///    is void.
template <class Val, class RowCap, class From, class MakeScratch, class WriteRow>
void lean_run(backend::Context& ctx, Index m, std::uint64_t cap_sum, std::size_t n_chunks,
              RowCap cap, From from, const std::array<RunSource<Val>, 2>& sources,
              MakeScratch make_scratch, WriteRow write_row, Index* row_offsets,
              std::vector<Index>& cols, std::vector<LeanValue<Val>>* vals) {
    constexpr bool kValues = !std::is_void_v<Val>;
    using Stored = LeanValue<Val>;
    const auto staged = static_cast<std::size_t>(cap_sum);
    auto stage = ctx.scratch_alloc<Index>(staged);
    auto stage_vals = ctx.scratch_alloc<Stored>(kValues ? staged : 0);
    auto first = ctx.scratch_alloc<Index>(n_chunks + 1);
    auto base = ctx.scratch_alloc<std::uint64_t>(n_chunks + 1);
    auto length = ctx.scratch_alloc<Index>(n_chunks);
    lean_cuts(m, cap_sum, n_chunks, cap, first.data(), base.data());

    ctx.parallel_for_chunks(n_chunks, 1, [&](std::size_t kb, std::size_t ke) {
        auto scratch = make_scratch(ctx.scratch_arena());
        for (std::size_t k = kb; k < ke; ++k) {
            const Index last = first[k + 1];
            Index pos = 0;
            Index i = first[k];
            RowFrom kind = i < last ? from(i) : RowFrom::Empty;
            while (i < last) {
                const std::uint64_t at = base[k] + pos;
                if (kind == RowFrom::Write) {
                    Stored* row_vals = nullptr;
                    if constexpr (kValues) row_vals = stage_vals.data() + at;
                    pos += write_row(scratch, i, stage.data() + at, row_vals);
                    row_offsets[i + 1] = pos;
                    ++i;
                    kind = i < last ? from(i) : RowFrom::Empty;
                    continue;
                }
                // The run [i, j) of rows from one source.
                Index j = i + 1;
                RowFrom next = RowFrom::Empty;
                while (j < last && (next = from(j)) == kind) ++j;
                if (kind == RowFrom::Empty) {
                    std::fill(row_offsets + i + 1, row_offsets + j + 1, pos);
                } else {
                    const RunSource<Val>& src = sources[kind == RowFrom::First ? 0 : 1];
                    const Index lo = src.off[i];
                    const Index hi = src.off[j];
                    std::copy(src.cols + lo, src.cols + hi, stage.data() + at);
                    if constexpr (kValues) {
                        std::copy(src.vals + lo, src.vals + hi, stage_vals.data() + at);
                    }
                    for (Index r = i; r < j; ++r) row_offsets[r + 1] = pos + (src.off[r + 1] - lo);
                    pos += hi - lo;
                }
                i = j;
                kind = next;
            }
            length[k] = pos;
        }
    });

    // Join: each chunk's region is appended to the output (a copy into
    // reserved room, no zero fill) and its row offsets, still local to the
    // chunk, are shifted by the lengths before it. The total is at most
    // cap_sum, which the caller keeps within Index.
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n_chunks; ++k) total += length[k];
    cols.reserve(static_cast<std::size_t>(total));
    if constexpr (kValues) vals->reserve(static_cast<std::size_t>(total));
    Index to = 0;
    for (std::size_t k = 0; k < n_chunks; ++k) {
        const Index* from_cols = stage.data() + base[k];
        cols.insert(cols.end(), from_cols, from_cols + length[k]);
        if constexpr (kValues) {
            const Stored* from_vals = stage_vals.data() + base[k];
            vals->insert(vals->end(), from_vals, from_vals + length[k]);
        }
        if (to != 0) {
            for (Index i = first[k]; i < first[k + 1]; ++i) row_offsets[i + 1] += to;
        }
        to += length[k];
    }
}

}  // namespace spbla::ops
