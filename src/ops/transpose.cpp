#include "ops/transpose.hpp"

#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

CsrMatrix transpose(backend::Context& ctx, const CsrMatrix& n) {
    (void)ctx;  // histogram + placement are cheap; kept single-launch
    SPBLA_VALIDATE(n);
    SPBLA_PROF_SPAN("transpose");
    std::vector<Index> row_offsets(static_cast<std::size_t>(n.ncols()) + 1, 0);
    for (const auto c : n.cols()) ++row_offsets[c + 1];
    for (Index c = 0; c < n.ncols(); ++c) row_offsets[c + 1] += row_offsets[c];

    std::vector<Index> cols(n.nnz());
    std::vector<Index> cursor(row_offsets.begin(), row_offsets.end() - 1);
    // Row-major traversal emits ascending source rows per target row,
    // so the output columns are already sorted.
    for (Index r = 0; r < n.nrows(); ++r) {
        for (const auto c : n.row(r)) cols[cursor[c]++] = r;
    }
    CsrMatrix out = CsrMatrix::from_raw(n.ncols(), n.nrows(), std::move(row_offsets),
                                        std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
