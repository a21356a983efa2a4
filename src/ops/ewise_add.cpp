#include "ops/ewise_add.hpp"

#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

/// Count |union| of two sorted ranges without materialising it.
[[nodiscard]] Index union_size(std::span<const Index> x, std::span<const Index> y) {
    std::size_t i = 0, j = 0, n = 0;
    while (i < x.size() && j < y.size()) {
        if (x[i] < y[j])
            ++i;
        else if (y[j] < x[i])
            ++j;
        else {
            ++i;
            ++j;
        }
        ++n;
    }
    return static_cast<Index>(n + (x.size() - i) + (y.size() - j));
}

}  // namespace

CsrMatrix ewise_add(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  Status::DimensionMismatch, "ewise_add: shape mismatch");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("ewise_add");
    const Index m = a.nrows();

    // Pass 1: exact union size per row (enables precise allocation), scanned
    // in place into CSR offsets (trailing 0 receives the total).
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    ctx.parallel_for(m, 512, [&](std::size_t i) {
        const auto r = static_cast<Index>(i);
        row_offsets[i] = union_size(a.row(r), b.row(r));
    });
    const std::uint64_t total = ctx.exclusive_scan(row_offsets);
    check(total <= 0xFFFFFFFFull, Status::OutOfRange, "ewise_add: nnz overflows Index");
    // Merge length: candidate entries fed to the two-pointer merge vs the
    // union that survives — the gap is the duplicate (overlap) work.

    // Pass 2: merge each row pair into its exact slot.
    std::vector<Index> cols(static_cast<std::size_t>(total));
    ctx.parallel_for(m, 512, [&](std::size_t i) {
        const auto r = static_cast<Index>(i);
        const auto x = a.row(r);
        const auto y = b.row(r);
        std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                       cols.begin() + row_offsets[i]);
    });

    CsrMatrix out =
        CsrMatrix::from_raw(m, a.ncols(), std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
