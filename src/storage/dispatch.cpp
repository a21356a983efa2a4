/// \file dispatch.cpp
/// \brief The storage engine's cost model and the op table every dispatch
/// routes through.
///
/// Cost model, in units of "index touches": for each candidate format the
/// estimated kernel work is added to the conversion work needed to
/// materialise any missing operand representation (zero when cached). The
/// constants are deliberately coarse — the model only has to rank formats,
/// and the bench ladder (bench_ops_micro --formats) keeps it honest against
/// the acceptance bar (auto within 10% of best static, strictly above worst).
///
/// Hysteresis: the primary format of an anchor operand (the nnz-dominant one
/// for binary ops) is "preferred" and a rival must undercut its cost by
/// kHysteresis (2x) to win. A fixpoint loop whose iterates stay in one format
/// therefore keeps dispatching to that format until the balance tips
/// decisively — the conversion counter stays bounded by the number of regime
/// changes (at most a couple per run), not by the iteration count.
///
/// Routing: every public op is one OpSpec entry in the table at the bottom
/// of this file, and route() is the one skeleton they all run.

#include "storage/dispatch.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "backend/arena.hpp"
#include "ops/ops.hpp"
#include "prof/prof.hpp"
#include "storage/thresholds.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace spbla::storage {

namespace {

constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// Formats in the order the cost model scans them (ties go to the earlier).
constexpr Format kFormats[] = {Format::Csr, Format::BitBlocks};

/// One value per storage format, so table entries read as {format -> value}.
template <class T>
struct PerFormat {
    T csr{}, bitblock{};

    [[nodiscard]] constexpr const T& operator[](Format f) const noexcept {
        return f == Format::BitBlocks ? bitblock : csr;
    }
};

using Costs = PerFormat<double>;

/// A rival format must be this much cheaper than the preferred (incumbent)
/// format to displace it — the anti-thrash margin.
constexpr double kHysteresis = 2.0;

// The bitblock candidacy gate's crossovers (kBitBlockMinDensity,
// kBitBlockByteCap) live in storage/thresholds.hpp.

/// Broadword ops run ~one word per model "index touch" unit but each word
/// carries 64 cells; this factor converts word-op counts into the sparse
/// kernels' cost units.
constexpr double kWordOpScale = 0.08;

/// Non-empty tiles of the 64x64 block grid, estimated from the gate density:
/// an admitted matrix carries at least ~8 entries per occupied tile, so the
/// occupied count is bounded by nnz / 8 and by the grid itself.
[[nodiscard]] double grid_tiles_of(Index nrows, Index ncols) noexcept {
    return static_cast<double>((static_cast<std::size_t>(nrows) + 63) / 64) *
           static_cast<double>((static_cast<std::size_t>(ncols) + 63) / 64);
}

[[nodiscard]] double est_blocks(const Matrix& m) noexcept {
    return std::min(grid_tiles_of(m.nrows(), m.ncols()),
                    static_cast<double>(m.nnz()) / 8.0 + 1.0);
}

/// Worst-case BitBlocks footprint: never above the flat bitmap (one word per
/// 64 cells), and sparse inputs stay entry-bounded (2 bytes per cell plus
/// tile descriptors).
[[nodiscard]] std::size_t bitblock_bytes_of(const Matrix& m) noexcept {
    const auto bitmap_bound = static_cast<std::size_t>(m.nrows()) *
                              ((static_cast<std::size_t>(m.ncols()) + 63) / 64) *
                              sizeof(std::uint64_t);
    const auto entry_bound = static_cast<std::size_t>(m.nnz()) * 16;
    return std::min(bitmap_bound, entry_bound);
}

[[nodiscard]] bool bitblock_eligible(const Matrix& m) noexcept {
    if (m.nrows() == 0 || m.ncols() == 0) return false;
    if (m.has_format(Format::BitBlocks)) return true;  // already paid for
    return m.density() >= kBitBlockMinDensity &&
           bitblock_bytes_of(m) <= kBitBlockByteCap;
}

/// Work to materialise format \p f on \p m; zero when already cached.
[[nodiscard]] double convert_cost(const Matrix& m, Format f) noexcept {
    if (m.has_format(f)) return 0.0;
    const auto nnz = static_cast<double>(m.nnz());
    // Both directions are two parallel passes over the entries, plus the
    // row-pointer pass for CSR or the occupied-tile bookkeeping for
    // BitBlocks (empty tile regions cost nothing).
    if (f == Format::BitBlocks) return 2.0 * nnz + 8.0 * est_blocks(m);
    return 2.0 * nnz + 0.5 * static_cast<double>(m.nrows());
}

/// Estimated multiply kernel work per format.
[[nodiscard]] Costs multiply_costs(const Matrix& a, const Matrix& b) noexcept {
    const auto nnz_a = static_cast<double>(a.nnz());
    const auto nnz_b = static_cast<double>(b.nnz());
    // Expected FLOP proxy: each entry of A selects a row of B of average
    // population nnz_b / nrows_b.
    const double rows_b = std::max(1.0, static_cast<double>(b.nrows()));
    const double flops = nnz_a * (nnz_b / rows_b);
    Costs costs{};
    // Hash SpGEMM: symbolic + numeric passes, hash probes ~ constant each.
    costs.csr = 4.0 * flops + 0.25 * static_cast<double>(a.nrows());
    // Tile-grid Gustavson: each (A tile, B tile) pair costs accumulator
    // traffic (64 words) plus the cheaper of per-cell row-ORs and the
    // Four-Russians bound (512 lookups + amortised table build).
    const double blocks_a = est_blocks(a);
    const double blocks_b = est_blocks(b);
    const double brows_b = std::max(1.0, static_cast<double>((b.nrows() + 63) / 64));
    const double pairs = blocks_a * (blocks_b / brows_b);
    const double tile_nnz_a = nnz_a / std::max(1.0, blocks_a);
    const double per_pair = 64.0 + std::min(tile_nnz_a, 576.0);
    costs.bitblock = kWordOpScale * pairs * per_pair + 8.0 * blocks_a;
    return costs;
}

/// How a pick of each route is counted and timed; the flight-recorder tag is
/// spbla::format_name of the route.
struct RouteMetrics {
    telemetry::Counter picks;
    telemetry::Histogram latency;
    const char* prof_counter;  ///< per-span pick counter (check_trace --require-dispatch)
};

constexpr PerFormat<RouteMetrics> kRouteMetrics{
    .csr = {telemetry::Counter::DispatchCsr, telemetry::Histogram::OpLatencyCsrNs,
            "dispatch_csr"},
    .bitblock = {telemetry::Counter::DispatchBitBlocks,
                 telemetry::Histogram::OpLatencyBitBlocksNs, "dispatch_bitblock"},
};

void count_route(Format f) {
    telemetry::count(kRouteMetrics[f].picks);
#if SPBLA_PROFILE_LEVEL >= SPBLA_PROFILE_COUNTERS
    static const PerFormat<prof::SiteId> sites{
        prof::register_counter(kRouteMetrics.csr.prof_counter),
        prof::register_counter(kRouteMetrics.bitblock.prof_counter)};
    prof::count(sites[f], 1);
#endif
}

/// The format a forced hint names; nullopt under Auto.
[[nodiscard]] std::optional<Format> forced(FormatHint hint) noexcept {
    switch (hint) {
        case FormatHint::ForceCsr: return Format::Csr;
        case FormatHint::ForceBitBlocks: return Format::BitBlocks;
        case FormatHint::Auto: break;
    }
    return std::nullopt;
}

/// Pick the cheapest row the op has, honouring the incumbent's hysteresis
/// margin. A row's cost is its kernel \p work plus materialising its format
/// on every operand (zero where cached), summed left to right. \p preferred
/// is the format the anchor operand already owns; it counts only when the op
/// has a finite-cost row for it.
template <class HasRow, class... Ms>
[[nodiscard]] Format pick(const Costs& work, const HasRow& has_row, Format preferred,
                          const std::tuple<const Ms*...>& operands) {
    Format best = Format::Csr;
    double best_cost = kInfiniteCost;
    double preferred_cost = kInfiniteCost;
    for (const Format f : kFormats) {
        if (!has_row(f)) continue;
        const double cost = std::apply(
            [&](const auto*... m) { return (work[f] + ... + convert_cost(*m, f)); }, operands);
        if (cost < best_cost) {
            best = f;
            best_cost = cost;
        }
        if (f == preferred) preferred_cost = cost;
    }
    if (preferred_cost < kInfiniteCost && preferred_cost <= kHysteresis * best_cost) {
        return preferred;
    }
    return best;
}

/// Which operand's primary format anchors the hysteresis margin.
enum class Anchor : std::uint8_t {
    First,     ///< the first matrix operand (the accumulator, or the only one)
    Dominant,  ///< the nnz-larger of the first two matrix operands
};

template <class Fn>
struct OpSpec;

/// One entry of the op table, typed by the public function it backs.
template <class Out, class... Args>
struct OpSpec<Out(backend::Context&, Args...)> {
    using Kernel = Out (*)(backend::Context&, Args...);

    const char* span;    ///< prof span, "storage.dispatch.<op>"
    const char* flight;  ///< flight-recorder op name
    Anchor anchor = Anchor::First;
    /// Empty-operand fast path: the result when it applies, else nullopt.
    std::optional<Out> (*shortcut)(backend::Context&, Args...) = nullptr;
    /// Modelled kernel work of each row (infinite: never picked by the
    /// model), evaluated under FormatHint::Auto only; an op without a model
    /// routes CSR under Auto.
    Costs (*work)(Args...) = nullptr;
    /// Kernel rows; null where the op has no kernel in that format. Every
    /// op has a CSR row: it is where forced formats without a row fall back.
    PerFormat<Kernel> rows{};
    /// For SpVector results: a 1 x n row (true) or an n x 1 column.
    bool row_vector = false;
};

using KroneckerTerms = std::span<const KroneckerTerm>;

/// The operands a cost pick or hysteresis anchor sees. A term span is not
/// among them: its op has no cost model.
template <class T>
[[nodiscard]] auto matrix_operand(const T& x) noexcept {
    if constexpr (std::is_same_v<T, Matrix>) return std::tuple<const Matrix*>{&x};
    else return std::tuple<>{};
}

/// Calls \p f on every Matrix an argument holds, term spans included.
template <class T, class F>
void for_each_matrix(const T& x, const F& f) {
    if constexpr (std::is_same_v<T, Matrix>) {
        f(x);
    } else if constexpr (std::is_same_v<T, KroneckerTerms>) {
        for (const auto& [a, b] : x) {
            f(*a);
            f(*b);
        }
    }
}

template <class T>
[[nodiscard]] std::uint64_t nnz_of(const T& x) noexcept {
    if constexpr (std::is_same_v<T, Matrix> || std::is_same_v<T, SpVector>) {
        return x.nnz();
    } else {
        std::uint64_t total = 0;
        for_each_matrix(x, [&](const Matrix& m) { total += m.nnz(); });
        return total;
    }
}

/// The one routing skeleton: span, telemetry scope, empty-operand shortcut,
/// hint or cost pick, route count, kernel, telemetry close, cache trim.
template <const auto& Op, class... Ts>
auto route(backend::Context& ctx, const Ts&... args) {
    SPBLA_PROF_SPAN(Op.span);
    // Timed from entry, so the latency covers cost modelling, operand
    // conversions and the kernel.
    const util::Timer timer;
    // Per-op arena scope on the dispatching thread: op-level scratch from
    // conversions and inline kernel launches is reclaimed when the op
    // returns. One scope (and so one spbla.arena.resets) per dispatched op
    // — the invariant tools/check_trace.py --require-arena verifies.
    const backend::ScopedArena arena_scope{ctx.scratch_arena()};
    const auto operands = std::tuple_cat(matrix_operand(args)...);
    const std::uint64_t nnz_in = (nnz_of(args) + ...);
    // Close the op's telemetry once the result exists: one DispatchOps
    // count, the route's latency histogram, the nnz in/out histograms and a
    // flight-recorder record. Ops that throw record nothing — the invariant
    // "sum of latency-histogram counts == spbla.dispatch.ops" is what
    // check_trace --require-metrics verifies.
    const auto done = [&](telemetry::Histogram latency, const char* tag, const auto& out) {
        Index nrows = 1, ncols = 1;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(out)>, Matrix>) {
            nrows = out.nrows();
            ncols = out.ncols();
        } else if (Op.row_vector) {
            ncols = out.size();
        } else {
            nrows = out.size();
        }
        const auto ns = static_cast<std::uint64_t>(timer.seconds() * 1e9);
        telemetry::count(telemetry::Counter::DispatchOps);
        telemetry::observe(latency, ns);
        telemetry::observe(telemetry::Histogram::OpNnzIn, nnz_in);
        telemetry::observe(telemetry::Histogram::OpNnzOut, out.nnz());
        telemetry::flight::record(Op.flight, tag, nrows, ncols, nnz_in, out.nnz(), ns);
    };

    if (Op.shortcut != nullptr) {
        // Delta-shaped operand: a drained frontier (or empty base) decides
        // the result without a kernel. The fast path still counts a CSR pick
        // and closes the telemetry scope, so the dispatch invariants hold.
        if (auto out = Op.shortcut(ctx, args...)) {
            telemetry::count(telemetry::Counter::IncrShortCircuits);
            SPBLA_PROF_COUNT(incr_shortcircuit, 1);
            count_route(Format::Csr);
            done(kRouteMetrics.csr.latency, format_name(Format::Csr), *out);
            return *std::move(out);
        }
    }

    const auto has_row = [](Format f) { return Op.rows[f] != nullptr; };
    Format f = Format::Csr;
    if (const auto want = forced(global_hint())) {
        // A forced format the op has no row for falls back to CSR, which
        // every op implements, so forced sweeps compute identical results.
        if (has_row(*want)) f = *want;
    } else if constexpr (Op.work != nullptr) {
        const Matrix& first = *std::get<0>(operands);
        Format preferred = first.format();
        if constexpr (Op.anchor == Anchor::Dominant) {
            const Matrix& second = *std::get<1>(operands);
            preferred = (second.nnz() > first.nnz() ? second : first).format();
        }
        f = pick(Op.work(args...), has_row, preferred, operands);
    }
    count_route(f);
    auto out = Op.rows[f](ctx, args...);
    done(kRouteMetrics[f].latency, format_name(f), out);
    // Keep the operands' caches under the process-wide budget now that the
    // kernel's borrowed references are dead.
    if (cached_bytes() > cache_budget()) {
        (for_each_matrix(args, [](const Matrix& m) { m.trim_cache(); }), ...);
    }
    return out;
}

// ---------------------------------------------------------------------------
// The op table
// ---------------------------------------------------------------------------

constexpr OpSpec<decltype(multiply)> kMultiply{
    .span = "storage.dispatch.multiply",
    .flight = "multiply",
    .anchor = Anchor::Dominant,
    .shortcut = [](backend::Context& ctx, const Matrix& a, const Matrix& b,
                   const ops::SpGemmOptions&) -> std::optional<Matrix> {
        if (!a.empty() && !b.empty()) return std::nullopt;
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "multiply: inner dimensions disagree");
        return Matrix{a.nrows(), b.ncols(), ctx};
    },
    .work = [](const Matrix& a, const Matrix& b, const ops::SpGemmOptions&) {
        const auto k = multiply_costs(a, b);
        const bool bb_ok = bitblock_eligible(a) && bitblock_eligible(b);
        return Costs{.csr = k.csr, .bitblock = bb_ok ? k.bitblock : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& a, const auto& b, const auto& opts) {
            return Matrix{ops::multiply(ctx, a.csr(ctx), b.csr(ctx), opts), ctx};
        },
        .bitblock = [](auto& ctx, const auto& a, const auto& b, const auto&) {
            return Matrix{ops::multiply(ctx, a.bitblocks(ctx), b.bitblocks(ctx)), ctx};
        }},
};

constexpr OpSpec<decltype(multiply_add)> kMultiplyAdd{
    .span = "storage.dispatch.multiply_add",
    .flight = "multiply_add",
    .anchor = Anchor::First,  // the accumulator C
    .shortcut = [](backend::Context&, const Matrix& c, const Matrix& a, const Matrix& b,
                   const ops::SpGemmOptions&) -> std::optional<Matrix> {
        // Empty product term: the fused form degenerates to C itself. The
        // copy carries C's content version (same cells, same stamp), which
        // the version-keyed caches rely on.
        if (!a.empty() && !b.empty()) return std::nullopt;
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "multiply_add: inner dimensions disagree");
        SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(),
                      Status::DimensionMismatch, "multiply_add: accumulator shape disagrees");
        return Matrix{c};
    },
    .work = [](const Matrix& c, const Matrix& a, const Matrix& b, const ops::SpGemmOptions&) {
        const auto k = multiply_costs(a, b);
        const bool bb_ok =
            bitblock_eligible(a) && bitblock_eligible(b) && bitblock_eligible(c);
        return Costs{
            .csr = k.csr + 2.0 * static_cast<double>(c.nnz()),
            .bitblock = bb_ok ? k.bitblock + kWordOpScale * 320.0 * est_blocks(c)
                              : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& c, const auto& a, const auto& b, const auto& opts) {
            return Matrix{ops::multiply_add(ctx, c.csr(ctx), a.csr(ctx), b.csr(ctx), opts),
                          ctx};
        },
        .bitblock = [](auto& ctx, const auto& c, const auto& a, const auto& b, const auto&) {
            return Matrix{ops::ewise_add(ctx, c.bitblocks(ctx),
                                         ops::multiply(ctx, a.bitblocks(ctx), b.bitblocks(ctx))),
                          ctx};
        }},
};

constexpr OpSpec<decltype(ewise_add)> kEwiseAdd{
    .span = "storage.dispatch.ewise_add",
    .flight = "ewise_add",
    .anchor = Anchor::Dominant,
    .work = [](const Matrix& a, const Matrix& b) {
        // CSR pays the per-row merge bookkeeping; bitblock pays ~5 word
        // sweeps per occupied tile (expand both sides, merge, then the
        // popcount + pack of reassembly).
        const auto total = static_cast<double>(a.nnz() + b.nnz());
        const bool bb_ok = bitblock_eligible(a) && bitblock_eligible(b);
        return Costs{
            .csr = 2.0 * total + 0.5 * static_cast<double>(a.nrows()),
            .bitblock = bb_ok ? kWordOpScale * 320.0 * (est_blocks(a) + est_blocks(b))
                              : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& a, const auto& b) {
            return Matrix{ops::ewise_add(ctx, a.csr(ctx), b.csr(ctx)), ctx};
        },
        .bitblock = [](auto& ctx, const auto& a, const auto& b) {
            return Matrix{ops::ewise_add(ctx, a.bitblocks(ctx), b.bitblocks(ctx)), ctx};
        }},
};

constexpr OpSpec<decltype(ewise_mult)> kEwiseMult{
    .span = "storage.dispatch.ewise_mult",
    .flight = "ewise_mult",
    .anchor = Anchor::Dominant,
    .work = [](const Matrix& a, const Matrix& b) {
        // The bitblock intersection expands both sides of every matched tile
        // pair (~5 word sweeps, as in ewise_add); the occupied-tile sum is
        // the upper bound on matches and keeps disjoint patterns on CSR.
        const bool bb_ok = bitblock_eligible(a) && bitblock_eligible(b);
        return Costs{
            .csr = 2.0 * static_cast<double>(a.nnz() + b.nnz()),
            .bitblock = bb_ok ? kWordOpScale * 320.0 * (est_blocks(a) + est_blocks(b))
                              : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& a, const auto& b) {
            return Matrix{ops::ewise_mult(ctx, a.csr(ctx), b.csr(ctx)), ctx};
        },
        .bitblock = [](auto& ctx, const auto& a, const auto& b) {
            return Matrix{ops::ewise_mult(ctx, a.bitblocks(ctx), b.bitblocks(ctx)), ctx};
        }},
};

constexpr OpSpec<decltype(ewise_diff)> kEwiseDiff{
    .span = "storage.dispatch.ewise_diff",
    .flight = "ewise_diff",
    .rows = {.csr = [](auto& ctx, const auto& a, const auto& b) {
        return Matrix{ops::ewise_diff(ctx, a.csr(ctx), b.csr(ctx)), ctx};
    }},
};

// The CSR kernel's work is exactly the nnz_a * nnz_b output entries, so
// kronecker has a CSR row only and no cost model.
constexpr OpSpec<decltype(kronecker)> kKronecker{
    .span = "storage.dispatch.kronecker",
    .flight = "kronecker",
    .rows = {.csr = [](auto& ctx, const auto& a, const auto& b) {
        return Matrix{ops::kronecker(ctx, a.csr(ctx), b.csr(ctx)), ctx};
    }},
};

// One fused pass over every term, reading each term's CSR rows directly:
// there is no per-term product for another format to hold, so the op has a
// CSR row only and no cost model (Auto routes CSR, as it does kronecker).
constexpr OpSpec<decltype(kronecker_sum)> kKroneckerSum{
    .span = "storage.dispatch.kronecker_sum",
    .flight = "kronecker_sum",
    .rows = {.csr = [](auto& ctx, Index nrows, Index ncols, KroneckerTerms terms) {
        if (terms.empty()) return Matrix{nrows, ncols, ctx};
        std::vector<ops::KroneckerTerm> csr_terms;
        csr_terms.reserve(terms.size());
        for (const auto& [a, b] : terms) csr_terms.push_back({&a->csr(ctx), &b->csr(ctx)});
        CsrMatrix out = ops::kronecker_sum(ctx, csr_terms);
        SPBLA_REQUIRE(out.nrows() == nrows && out.ncols() == ncols,
                      Status::DimensionMismatch,
                      "kronecker_sum: terms disagree with the declared shape");
        return Matrix{std::move(out), ctx};
    }},
};

constexpr OpSpec<decltype(transpose)> kTranspose{
    .span = "storage.dispatch.transpose",
    .flight = "transpose",
    .work = [](const Matrix& a) {
        // CSR is a counting pass + scatter; bitblock is ~384 register word
        // ops per occupied tile.
        const auto nnz = static_cast<double>(a.nnz());
        return Costs{
            .csr = 2.0 * nnz + 0.5 * static_cast<double>(a.ncols()),
            .bitblock = bitblock_eligible(a) ? kWordOpScale * 448.0 * est_blocks(a)
                                             : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& a) {
            return Matrix{ops::transpose(ctx, a.csr(ctx)), ctx};
        },
        .bitblock = [](auto& ctx, const auto& a) {
            return Matrix{ops::transpose(ctx, a.bitblocks(ctx)), ctx};
        }},
};

constexpr OpSpec<decltype(submatrix)> kSubmatrix{
    .span = "storage.dispatch.submatrix",
    .flight = "submatrix",
    .rows = {.csr = [](auto& ctx, const auto& a, auto r0, auto c0, auto m, auto n) {
        return Matrix{ops::submatrix(ctx, a.csr(ctx), r0, c0, m, n), ctx};
    }},
};

constexpr OpSpec<decltype(reduce_to_column)> kReduceToColumn{
    .span = "storage.dispatch.reduce_to_column",
    .flight = "reduce_to_col",
    .work = [](const Matrix& a) {
        // Both kernels are linear; whichever representation exists wins. The
        // gate keeps a hypersparse CSR operand from paying a tiling per call.
        return Costs{.csr = 0.5 * static_cast<double>(a.nrows()),
                     .bitblock = bitblock_eligible(a) ? kWordOpScale * 64.0 * est_blocks(a)
                                                      : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& a) { return ops::reduce_to_column(ctx, a.csr(ctx)); },
        .bitblock = [](auto& ctx, const auto& a) {
            return ops::reduce_to_column(ctx, a.bitblocks(ctx));
        }},
};

constexpr OpSpec<decltype(reduce_to_row)> kReduceToRow{
    .span = "storage.dispatch.reduce_to_row",
    .flight = "reduce_to_row",
    .rows = {.csr = [](auto& ctx, const auto& a) { return ops::reduce_to_row(ctx, a.csr(ctx)); }},
    .row_vector = true,
};

constexpr OpSpec<decltype(mxv)> kMxv{
    .span = "storage.dispatch.mxv",
    .flight = "mxv",
    .work = [](const Matrix& a, const SpVector&) {
        // CSR walks the rows the frontier lands on; bitblock tests one packed
        // word per (tile row, frontier tile) and wins once the matrix is
        // dense enough that its representation is (or will be) materialised.
        return Costs{.csr = static_cast<double>(a.nnz()) * 0.5,
                     .bitblock = bitblock_eligible(a) ? kWordOpScale * 64.0 * est_blocks(a)
                                                      : kInfiniteCost};
    },
    .rows = {
        .csr = [](auto& ctx, const auto& a, const auto& x) { return ops::mxv(ctx, a.csr(ctx), x); },
        .bitblock = [](auto& ctx, const auto& a, const auto& x) {
            return ops::mxv(ctx, a.bitblocks(ctx), x);
        }},
};

constexpr OpSpec<decltype(vxm)> kVxm{
    .span = "storage.dispatch.vxm",
    .flight = "vxm",
    .rows = {.csr = [](auto& ctx, const auto& x, const auto& a) {
        return ops::vxm(ctx, x, a.csr(ctx));
    }},
    .row_vector = true,
};

constexpr OpSpec<decltype(multiply_masked)> kMultiplyMasked{
    .span = "storage.dispatch.multiply_masked",
    .flight = "mxm_masked",
    .rows = {.csr = [](auto& ctx, const auto& mask, const auto& a, const auto& bt, bool complement) {
        return Matrix{ops::multiply_masked(ctx, mask.csr(ctx), a.csr(ctx), bt.csr(ctx), complement),
                      ctx};
    }},
};

}  // namespace

Matrix multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                const ops::SpGemmOptions& opts) {
    return route<kMultiply>(ctx, a, b, opts);
}

Matrix multiply_add(backend::Context& ctx, const Matrix& c, const Matrix& a,
                    const Matrix& b, const ops::SpGemmOptions& opts) {
    return route<kMultiplyAdd>(ctx, c, a, b, opts);
}

Matrix ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kEwiseAdd>(ctx, a, b);
}

Matrix ewise_mult(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kEwiseMult>(ctx, a, b);
}

Matrix ewise_diff(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kEwiseDiff>(ctx, a, b);
}

Matrix kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kKronecker>(ctx, a, b);
}

Matrix kronecker_sum(backend::Context& ctx, Index nrows, Index ncols, KroneckerTerms terms) {
    return route<kKroneckerSum>(ctx, nrows, ncols, terms);
}

Matrix transpose(backend::Context& ctx, const Matrix& a) { return route<kTranspose>(ctx, a); }

Matrix submatrix(backend::Context& ctx, const Matrix& a, Index r0, Index c0, Index m,
                 Index n) {
    return route<kSubmatrix>(ctx, a, r0, c0, m, n);
}

SpVector reduce_to_column(backend::Context& ctx, const Matrix& a) {
    return route<kReduceToColumn>(ctx, a);
}

SpVector reduce_to_row(backend::Context& ctx, const Matrix& a) {
    return route<kReduceToRow>(ctx, a);
}

std::size_t reduce_scalar(const Matrix& a) noexcept { return a.nnz(); }

SpVector mxv(backend::Context& ctx, const Matrix& a, const SpVector& x) {
    return route<kMxv>(ctx, a, x);
}

SpVector vxm(backend::Context& ctx, const SpVector& x, const Matrix& a) {
    return route<kVxm>(ctx, x, a);
}

Matrix multiply_masked(backend::Context& ctx, const Matrix& mask, const Matrix& a,
                       const Matrix& b_transposed, bool complement) {
    return route<kMultiplyMasked>(ctx, mask, a, b_transposed, complement);
}

}  // namespace spbla::storage
