/// \file spgemm.hpp
/// \brief Boolean sparse matrix-matrix multiplication (SpGEMM).
///
/// Reproduces cuBool's multiplication kernel: the Nsparse algorithm
/// (Nagasaka et al.) adapted to the Boolean semiring. The generic algorithm
/// accumulates value products in per-row hash *maps*; the Boolean
/// specialisation only needs per-row hash *sets* of column indices — no
/// value array is ever read, written, or allocated, which is where the
/// paper's time and memory advantage over generic SpGEMM comes from.
///
/// Structure. One walk over A gives every row's product upper bound
/// ub(i) = sum over k in A(i,:) of nnz(B(k,:)); the bounds then pick one of
/// two kernels for the whole op:
///  1. lean path — when every ub fits the hash-small class (at most
///     hash_large_threshold), the staging buffer fits symbolic_cache_budget
///     and every ablation knob is at its default. Each non-empty row is
///     written once, straight into an op-scoped staging buffer sized by the
///     clamped bound sum. Rows below the dense crossover dedupe through a
///     row-stamped marker array over ncols and sort only their new columns
///     (or gather, sort and dedupe all their products, when the op's rows
///     with a product term stage fewer columns than ncols, too few to
///     repay the marker); rows past
///     the crossover use the touched-word bitmap. No symbolic count pass,
///     no per-row cache, no per-row
///     callback. Under Policy::Parallel the rows are cut into chunks of
///     equal bound share; each chunk writes its own staging region, and a
///     scan of the chunk lengths joins the regions into the exact-size
///     output. The bounds walk, row classes and runner are shared with the
///     generic twin (spgemm_plan.hpp).
///  2. binned kernel (Nsparse symbolic/numeric split, OpSparse-style bin
///     schedule) — for ops with a heavy row, or any ablation rung: rows are
///     binned by ub into size classes (empty / tiny / hash-small /
///     hash-large / dense), each class using the cheapest accumulator that
///     fits, and the bins are launched heavy-first as one dynamically
///     scheduled grid so straggler rows overlap with the light bins. A count
///     pass computes exact row sizes and, for rows within the symbolic cache
///     budget, extracts the sorted column set into a per-row cache; an
///     exclusive scan allocates the result exactly, and the fill pass copies
///     cached rows straight out, re-running the accumulator only for rows
///     the budget excluded.
#pragma once

#include <cstddef>

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// Tuning knobs for the hash SpGEMM (defaults follow Nsparse/OpSparse).
struct SpGemmOptions {
    /// Hash-table slots = next_pow2(upper_bound / load_factor).
    double hash_load_factor = 0.5;
    /// Rows with upper bound <= this use a tiny sort-merge buffer instead of
    /// a hash table (the "pwarp" bin analog).
    Index tiny_row_threshold = 32;
    /// Rows whose upper bound exceeds ncols(B) * this fraction fall back to a
    /// dense bitmap accumulator (the "global bin" analog). The default is the
    /// one-bit-per-bitmap-word crossover (1/64): past it the bitmap insert
    /// (one OR, no probing) plus the already-sorted touched-word extraction
    /// beats the hash path, which must sort its column list per row. The
    /// lean path draws the same line between its marker rows (which sort
    /// their new columns) and its bitmap rows.
    double dense_row_fraction = 1.0 / 64.0;
    /// Disable size-class binning: every non-tiny row uses the hash path.
    /// Exists for the ablation benchmark.
    bool use_binning = true;
    /// Hash rows with upper bound above this go to the hash-large bin
    /// (scheduled one row per chunk so a hub row cannot stall a chunk). It is
    /// also the lean path's cut: an op takes the lean path only if no row's
    /// upper bound exceeds it, so ops with a heavy row keep the bins (and
    /// their exact output sizing; see lean_eligible in spgemm_plan.hpp).
    Index hash_large_threshold = 4096;
    /// Schedule rows as per-size-class bins, heaviest bin first, instead of
    /// in natural row order. Off reproduces the pre-bin flat schedule.
    bool use_bin_scheduler = true;
    /// Claim chunks off the pool's atomic ticket counter (work stealing).
    /// Off reproduces the static one-closure-per-chunk schedule.
    bool use_ticket_scheduler = true;
    /// Byte budget for caching symbolic column sets between the count and
    /// fill passes (the single-pass numeric optimisation). The cache stands
    /// in for device scratch and is charged to the context's MemoryTracker.
    /// 0 disables caching and recomputes every row (the pre-PR two-pass
    /// behaviour). The same budget caps the lean path's staging buffer
    /// (4 bytes per bounded output column): a larger op keeps the bins.
    std::size_t symbolic_cache_budget = std::size_t{64} << 20;
    /// Reset accumulators the pre-PR way: rezero the full dense bitmap and
    /// the full hash table on every row and extract columns by scanning the
    /// whole table. Exists only so the perf-trajectory benchmark can measure
    /// against a faithful pre-PR baseline; never enable otherwise.
    bool legacy_accumulator_reset = false;
};

/// C = A x B over the Boolean semiring. Shapes: (m x k) * (k x n) -> (m x n).
[[nodiscard]] CsrMatrix multiply(backend::Context& ctx, const CsrMatrix& a,
                                 const CsrMatrix& b, const SpGemmOptions& opts = {});

/// C += A x B: returns the element-wise OR of \p c and A x B (the paper's
/// fused multiply-add primitive used by every fixpoint loop). On the lean
/// path it is fused for real: C's row seeds the row's marker (or bitmap), a
/// row with no product term copies C's row unchanged, and no intermediate
/// product or separate ewise_add exists. \p c may alias \p a or \p b (the
/// Squaring closure calls multiply_add(m, m, m)). Ops that keep the bins
/// multiply, then add.
[[nodiscard]] CsrMatrix multiply_add(backend::Context& ctx, const CsrMatrix& c,
                                     const CsrMatrix& a, const CsrMatrix& b,
                                     const SpGemmOptions& opts = {});

}  // namespace spbla::ops
