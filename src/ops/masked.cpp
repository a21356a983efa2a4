#include "ops/masked.hpp"

#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "ops/ewise_mult.hpp"
#include "ops/spgemm.hpp"
#include "ops/transpose.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

/// True iff the sorted ranges share an element.
[[nodiscard]] bool intersects(std::span<const Index> x, std::span<const Index> y) {
    std::size_t a = 0, b = 0;
    while (a < x.size() && b < y.size()) {
        if (x[a] < y[b])
            ++a;
        else if (y[b] < x[a])
            ++b;
        else
            return true;
    }
    return false;
}

}  // namespace

CsrMatrix multiply_masked(backend::Context& ctx, const CsrMatrix& mask,
                          const CsrMatrix& a, const CsrMatrix& b_transposed,
                          bool complement) {
    SPBLA_REQUIRE(a.ncols() == b_transposed.ncols(), Status::DimensionMismatch,
                  "multiply_masked: A.ncols must equal B.nrows (B passed transposed)");
    SPBLA_REQUIRE(mask.nrows() == a.nrows() && mask.ncols() == b_transposed.nrows(),
                  Status::DimensionMismatch, "multiply_masked: mask shape mismatch");
    SPBLA_VALIDATE(mask);
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b_transposed);
    SPBLA_PROF_SPAN("multiply_masked");

    if (complement) {
        // The complement mask permits almost everything; the dot formulation
        // would degenerate to the dense cross product, so compute the full
        // product and subtract (still exact, just not output-driven).
        const CsrMatrix full =
            multiply(ctx, a, transpose(ctx, b_transposed), SpGemmOptions{});
        return ewise_diff(ctx, full, mask);
    }

    // Pass 1: per-mask-row survivors count.
    const Index m = mask.nrows();
    auto row_sizes = ctx.alloc<Index>(m);
    ctx.parallel_for_chunks(m, 128, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto r = static_cast<Index>(i);
            Index kept = 0;
            const auto arow = a.row(r);
            for (const auto j : mask.row(r)) {
                if (intersects(arow, b_transposed.row(j))) ++kept;
            }
            row_sizes[i] = kept;
        }
    });

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) row_offsets[i + 1] = row_offsets[i] + row_sizes[i];


    // Pass 2: emit survivors (mask rows are sorted, so output rows are too).
    std::vector<Index> cols(row_offsets[m]);
    ctx.parallel_for_chunks(m, 128, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto r = static_cast<Index>(i);
            std::size_t out = row_offsets[i];
            const auto arow = a.row(r);
            for (const auto j : mask.row(r)) {
                if (intersects(arow, b_transposed.row(j))) cols[out++] = j;
            }
        }
    });

    CsrMatrix result = CsrMatrix::from_raw(m, mask.ncols(), std::move(row_offsets),
                                           std::move(cols));
    SPBLA_VALIDATE(result);
    return result;
}

}  // namespace spbla::ops
