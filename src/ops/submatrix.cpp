#include "ops/submatrix.hpp"

#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

CsrMatrix submatrix(backend::Context& ctx, const CsrMatrix& src, Index row0, Index col0,
                    Index m, Index n) {
    SPBLA_REQUIRE(static_cast<std::uint64_t>(row0) + m <= src.nrows() &&
                      static_cast<std::uint64_t>(col0) + n <= src.ncols(),
                  Status::OutOfRange, "submatrix: window exceeds source shape");
    SPBLA_VALIDATE(src);
    SPBLA_PROF_SPAN("submatrix");

    // Pass 1: per-row count via two binary searches into [col0, col0 + n).
    auto row_sizes = ctx.alloc<Index>(m);
    ctx.parallel_for_chunks(m, 512, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto cols = src.row(row0 + static_cast<Index>(i));
            const auto first = std::lower_bound(cols.begin(), cols.end(), col0);
            const auto last = std::lower_bound(first, cols.end(), col0 + n);
            row_sizes[i] = static_cast<Index>(last - first);
        }
    });

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) row_offsets[i + 1] = row_offsets[i] + row_sizes[i];


    // Pass 2: copy and rebase the column indices.
    std::vector<Index> cols(row_offsets[m]);
    ctx.parallel_for_chunks(m, 512, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto src_cols = src.row(row0 + static_cast<Index>(i));
            const auto first = std::lower_bound(src_cols.begin(), src_cols.end(), col0);
            std::size_t out = row_offsets[i];
            for (auto it = first; it != src_cols.end() && *it < col0 + n; ++it) {
                cols[out++] = *it - col0;
            }
        }
    });

    CsrMatrix result = CsrMatrix::from_raw(m, n, std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(result);
    return result;
}

}  // namespace spbla::ops
