#include "ops/submatrix.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/validate.hpp"
#include "ops/spgemm_plan.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

/// One block's cells of a source row, [at, end); cell c lands at output
/// column c - shift.
struct Segment {
    const Index* at;
    const Index* end;
    Index shift;
};

/// Writes the sorted union of the \p live segments, shifted, to \p o,
/// keeping the columns \p keep accepts; returns the end of the row. Two
/// segments merge two-way; more merge k-way, the way the Kronecker sum
/// merges a shared block's factors.
template <class Keep>
Index* union_segments(Segment* seg, std::size_t live, Index* o, Keep keep) {
    const auto put = [&](Index c) {
        if (keep(c)) *o++ = c;
    };
    if (live == 2) {
        Segment& x = seg[0];
        Segment& y = seg[1];
        while (x.at != x.end && y.at != y.end) {
            const Index a = *x.at - x.shift;
            const Index b = *y.at - y.shift;
            put(a < b ? a : b);
            x.at += a <= b;
            y.at += b <= a;
        }
        if (x.at == x.end) x = y;
        live = x.at != x.end ? 1 : 0;
    }
    while (live > 1) {
        Index c = *seg[0].at - seg[0].shift;
        for (std::size_t h = 1; h < live; ++h) c = std::min(c, *seg[h].at - seg[h].shift);
        put(c);
        for (std::size_t h = 0; h < live;) {
            if (*seg[h].at - seg[h].shift == c) ++seg[h].at;
            if (seg[h].at == seg[h].end) {
                seg[h] = seg[--live];
            } else {
                ++h;
            }
        }
    }
    if (live == 1) {
        for (const Index* p = seg[0].at; p != seg[0].end; ++p) put(*p - seg[0].shift);
    }
    return o;
}

}  // namespace

CsrMatrix fold_blocks(backend::Context& ctx, const CsrMatrix& src, Index row0,
                      std::span<const Index> col0s, Index m, Index n, bool with_identity,
                      const CsrMatrix* minus) {
    SPBLA_REQUIRE(std::uint64_t{row0} + m <= src.nrows(), Status::OutOfRange,
                  "fold_blocks: row block exceeds source shape");
    for (const Index c0 : col0s) {
        SPBLA_REQUIRE(std::uint64_t{c0} + n <= src.ncols(), Status::OutOfRange,
                      "fold_blocks: column block exceeds source shape");
    }
    SPBLA_REQUIRE(!with_identity || m == n, Status::DimensionMismatch,
                  "fold_blocks: the identity term needs a square result");
    SPBLA_REQUIRE(minus == nullptr || (minus->nrows() == m && minus->ncols() == n),
                  Status::DimensionMismatch, "fold_blocks: minus shape disagrees");
    SPBLA_VALIDATE(src);
    if (minus != nullptr) SPBLA_VALIDATE(*minus);
    SPBLA_PROF_SPAN("fold_blocks");

    // Sorted and disjoint, so each block's search starts where the last one
    // ended and each source cell lands at most once.
    std::vector<Index> starts(col0s.begin(), col0s.end());
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    for (std::size_t b = 1; b < starts.size(); ++b) {
        SPBLA_REQUIRE(starts[b] - starts[b - 1] >= n, Status::InvalidArgument,
                      "fold_blocks: column blocks overlap");
    }

    const Index* s_off = src.row_offsets().data() + row0;  // indexed by output row
    const Index* s_cols = src.cols().data();
    const Index* m_off = minus != nullptr ? minus->row_offsets().data() : nullptr;
    const Index* m_cols = minus != nullptr ? minus->cols().data() : nullptr;
    const bool any_block = !starts.empty();
    const Index diag = with_identity ? 1 : 0;
    const auto row_len = [&](Index i) -> Index { return any_block ? s_off[i + 1] - s_off[i] : 0; };
    const std::uint64_t cap_sum =
        (any_block ? std::uint64_t{s_off[m] - s_off[0]} : 0) + std::uint64_t{diag} * m;
    SPBLA_REQUIRE(cap_sum <= std::numeric_limits<Index>::max(), Status::OutOfRange,
                  "fold_blocks: result nnz overflows Index");

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> cols;
    lean_run<void>(
        ctx, m, cap_sum, lean_chunk_count(lean_workers(ctx), m, 0, cap_sum),
        [&](Index i) { return std::uint64_t{row_len(i)} + diag; },
        [&](Index i) { return row_len(i) + diag == 0 ? RowFrom::Empty : RowFrom::Write; },
        {RunSource<void>{}, RunSource<void>{}},
        [&] { return ctx.alloc<Segment>(starts.size() + 1); },
        [&](backend::DeviceBuffer<Segment>& heads, Index i, Index* out, std::byte*) {
            Segment* seg = heads.data();
            std::size_t live = 0;
            const Index* row = s_cols + s_off[i];
            const Index* row_end = any_block ? s_cols + s_off[i + 1] : row;
            const Index* from = row;
            for (std::size_t b = 0; b < starts.size() && from != row_end; ++b) {
                const Index c0 = starts[b];
                const Index* first = std::lower_bound(from, row_end, c0);
                const Index* last = std::lower_bound(first, row_end, c0 + n);
                if (first != last) seg[live++] = {first, last, c0};
                from = last;
            }
            const Index self = i;
            if (with_identity) seg[live++] = {&self, &self + 1, 0};
            const Index* m_row = m_cols != nullptr ? m_cols + m_off[i] : nullptr;
            const Index* const m_end = m_cols != nullptr ? m_cols + m_off[i + 1] : nullptr;
            Index* o = out;
            if (m_row == m_end) {
                o = union_segments(seg, live, o, [](Index) { return true; });
            } else {
                const Index* mp = m_row;
                o = union_segments(seg, live, o, [&](Index c) {
                    while (mp != m_end && *mp < c) ++mp;
                    return mp == m_end || *mp != c;
                });
            }
            return static_cast<Index>(o - out);
        },
        row_offsets.data(), cols, nullptr);

    CsrMatrix result = CsrMatrix::from_raw(m, n, std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(result);
    return result;
}

CsrMatrix submatrix(backend::Context& ctx, const CsrMatrix& src, Index row0, Index col0,
                    Index m, Index n) {
    return fold_blocks(ctx, src, row0, std::span<const Index>{&col0, 1}, m, n, false, nullptr);
}

}  // namespace spbla::ops
