#include "ops/ewise_add.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/validate.hpp"
#include "ops/ewise_plan.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

CsrMatrix ewise_add(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  Status::DimensionMismatch, "ewise_add: shape mismatch");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("ewise_add");

    // Row i's union holds at most |a_i| + |b_i| entries; the staged rows
    // address the bound sum with Index offsets, so it must fit one.
    const std::uint64_t cap_sum = std::uint64_t{a.nnz()} + b.nnz();
    check(cap_sum <= std::numeric_limits<Index>::max(), Status::OutOfRange,
          "ewise_add: nnz overflows Index");
    const Index* a_off = a.row_offsets().data();
    const Index* b_off = b.row_offsets().data();
    CsrMatrix out = lean_ewise(
        ctx, a, b, cap_sum,
        [&](Index i) {
            return std::uint64_t{a_off[i + 1] - a_off[i]} + (b_off[i + 1] - b_off[i]);
        },
        [&](Index i) { return union_from(a_off, b_off, i); },
        [](const Index* x, const Index* x_end, const Index* y, const Index* y_end, Index* o) {
            return std::set_union(x, x_end, y, y_end, o);
        });
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
