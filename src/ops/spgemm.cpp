#include "ops/spgemm.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "ops/spgemm_plan.hpp"
#include "prof/prof.hpp"

namespace spbla::ops {
namespace {

/// Row-class tally: an O(m) pass over the bounds on the calling thread,
/// paid only in profiling builds. Each row lands in one class, in
/// lean_row's order: ub == 0 rows the runner copies from C or leaves empty,
/// then sort, bitmap and marker rows (LeanRowClasses).
void tally_rows(const RowBounds& bounds, Index m, const LeanRowClasses& classes) {
    if constexpr (prof::kCompiledLevel >= SPBLA_PROFILE_COUNTERS) {
        if (prof::counting()) {
            std::uint64_t run = 0;
            std::uint64_t sort = 0;
            std::uint64_t bitmap = 0;
            std::uint64_t marker = 0;
            for (Index i = 0; i < m; ++i) {
                const std::uint64_t ub = bounds.ub[i];
                if (ub == 0) {
                    ++run;
                } else if (ub < classes.sort_below) {
                    ++sort;
                } else if (ub >= classes.dense_from) {
                    ++bitmap;
                } else {
                    ++marker;
                }
            }
            SPBLA_PROF_TALLY(SpgemmRowsTotal, m);
            SPBLA_PROF_TALLY(SpgemmRowsRun, run);
            SPBLA_PROF_TALLY(SpgemmRowsSort, sort);
            SPBLA_PROF_TALLY(SpgemmRowsMarker, marker);
            SPBLA_PROF_TALLY(SpgemmRowsBitmap, bitmap);
        }
    }
}

/// The Boolean lean kernel's worker scratch: the shared marker and bitmap,
/// plus a column buffer for a sort row's gathered products or a marker
/// row's new columns.
class LeanScratch : public LeanScratchBase {
public:
    LeanScratch(backend::Context& ctx, Index ncols, std::size_t buffer_cap)
        : LeanScratchBase{ctx, ncols}, buffer_cap_{buffer_cap} {}

    [[nodiscard]] Index* buffer() { return carve(buffer_, buffer_cap_); }

private:
    std::size_t buffer_cap_;
    backend::DeviceBuffer<Index> buffer_;
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

/// C | A*B (C only when kAccumulate) written straight out in one pass
/// through the shared runner (spgemm_plan.hpp): no symbolic count, no
/// per-row cache. Rows with ub == 0 are C's rows (or empty) and go in runs;
/// the runner's join builds the exact-size column array.
template <bool kAccumulate>
CsrMatrix lean_multiply(backend::Context& ctx, const CsrMatrix* c, const CsrMatrix& a,
                        const CsrMatrix& b) {
    const Index m = a.nrows();
    const Index ncols = b.ncols();
    const RowBounds bounds =
        row_bounds(ctx, m, b.nrows(), ncols, a.row_offsets().data(), a.cols().data(),
                   b.row_offsets().data(), kAccumulate ? c->row_offsets().data() : nullptr);
    const LeanRowClasses classes = lean_row_classes(ncols, bounds);
    tally_rows(bounds, m, classes);
    SPBLA_PROF_SPAN("spgemm.lean");
    const std::uint64_t* ub = bounds.ub.data();
    const CsrView av{a};
    const CsrView bv{b};
    const CsrView cv{kAccumulate ? *c : a};  // only read when accumulating
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
        [&] { return LeanScratch{ctx, ncols, classes.buffer_cap}; },
        [&](LeanScratch& s, Index i, Index* out, std::byte*) {
            return lean_row<kAccumulate>(cv, av, bv, i, ub[i], classes, s, out);
        },
        row_offsets.data(), cols, nullptr);
    return CsrMatrix::from_raw(m, ncols, std::move(row_offsets), std::move(cols));
}

}  // namespace

CsrMatrix multiply(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "spgemm: A.ncols must equal B.nrows");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("spgemm.multiply");
    CsrMatrix out = lean_multiply<false>(ctx, nullptr, a, b);
    SPBLA_VALIDATE(out);
    return out;
}

CsrMatrix multiply_add(backend::Context& ctx, const CsrMatrix& c, const CsrMatrix& a,
                       const CsrMatrix& b) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "spgemm: A.ncols must equal B.nrows");
    SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(),
                  Status::DimensionMismatch,
                  "spgemm: accumulator shape must match A.nrows x B.ncols");
    SPBLA_VALIDATE(c);
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("spgemm.multiply_add");
    CsrMatrix out = lean_multiply<true>(ctx, &c, a, b);
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
