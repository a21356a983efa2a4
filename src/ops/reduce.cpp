#include "ops/reduce.hpp"

#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

SpVector reduce_to_column(backend::Context& ctx, const CsrMatrix& m) {
    (void)ctx;
    SPBLA_VALIDATE(m);
    SPBLA_PROF_SPAN("reduce.to_column");
    std::vector<Index> indices;
    for (Index r = 0; r < m.nrows(); ++r) {
        if (m.row_nnz(r) > 0) indices.push_back(r);
    }
    SpVector out = SpVector::from_indices(m.nrows(), std::move(indices));
    SPBLA_VALIDATE(out);
    return out;
}

SpVector reduce_to_row(backend::Context& ctx, const CsrMatrix& m) {
    (void)ctx;
    SPBLA_VALIDATE(m);
    SPBLA_PROF_SPAN("reduce.to_row");
    std::vector<bool> seen(m.ncols(), false);
    for (const auto c : m.cols()) seen[c] = true;
    std::vector<Index> indices;
    for (Index c = 0; c < m.ncols(); ++c) {
        if (seen[c]) indices.push_back(c);
    }
    SpVector out = SpVector::from_indices(m.ncols(), std::move(indices));
    SPBLA_VALIDATE(out);
    return out;
}

std::size_t reduce_scalar(const CsrMatrix& m) noexcept { return m.nnz(); }

}  // namespace spbla::ops
