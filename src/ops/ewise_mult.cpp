#include "ops/ewise_mult.hpp"

#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

CsrMatrix ewise_mult(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  Status::DimensionMismatch, "ewise_mult: shape mismatch");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("ewise_mult");
    const Index m = a.nrows();

    // Pass 1: intersection size per row.
    auto row_sizes = ctx.alloc<Index>(m);
    ctx.parallel_for(m, 512, [&](std::size_t i) {
        const auto r = static_cast<Index>(i);
        const auto x = a.row(r);
        const auto y = b.row(r);
        std::size_t p = 0, q = 0, n = 0;
        while (p < x.size() && q < y.size()) {
            if (x[p] < y[q])
                ++p;
            else if (y[q] < x[p])
                ++q;
            else {
                ++p;
                ++q;
                ++n;
            }
        }
        row_sizes[i] = static_cast<Index>(n);
    });

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) row_offsets[i + 1] = row_offsets[i] + row_sizes[i];


    // Pass 2: emit the intersections.
    std::vector<Index> cols(row_offsets[m]);
    ctx.parallel_for(m, 512, [&](std::size_t i) {
        const auto r = static_cast<Index>(i);
        const auto x = a.row(r);
        const auto y = b.row(r);
        std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                              cols.begin() + row_offsets[i]);
    });

    CsrMatrix out =
        CsrMatrix::from_raw(m, a.ncols(), std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

CsrMatrix ewise_diff(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  Status::DimensionMismatch, "ewise_diff: shape mismatch");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("ewise_diff");
    const Index m = a.nrows();

    auto row_sizes = ctx.alloc<Index>(m);
    ctx.parallel_for(m, 512, [&](std::size_t i) {
        const auto r = static_cast<Index>(i);
        const auto x = a.row(r);
        const auto y = b.row(r);
        std::size_t p = 0, q = 0, kept = 0;
        while (p < x.size()) {
            if (q == y.size() || x[p] < y[q]) {
                ++kept;
                ++p;
            } else if (y[q] < x[p]) {
                ++q;
            } else {
                ++p;
                ++q;
            }
        }
        row_sizes[i] = static_cast<Index>(kept);
    });

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) row_offsets[i + 1] = row_offsets[i] + row_sizes[i];

    std::vector<Index> cols(row_offsets[m]);
    ctx.parallel_for(m, 512, [&](std::size_t i) {
        const auto r = static_cast<Index>(i);
        const auto x = a.row(r);
        const auto y = b.row(r);
        std::set_difference(x.begin(), x.end(), y.begin(), y.end(),
                            cols.begin() + row_offsets[i]);
    });

    CsrMatrix out =
        CsrMatrix::from_raw(m, a.ncols(), std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
