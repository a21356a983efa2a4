#include "ops/ewise_mult.hpp"

#include <algorithm>
#include <cstdint>

#include "core/validate.hpp"
#include "ops/ewise_plan.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

CsrMatrix ewise_mult(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  Status::DimensionMismatch, "ewise_mult: shape mismatch");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("ewise_mult");

    // Row i's intersection holds at most min(|a_i|, |b_i|) entries; the
    // bound sum is at most nnz(a), so it fits an Index.
    const Index m = a.nrows();
    const Index* a_off = a.row_offsets().data();
    const Index* b_off = b.row_offsets().data();
    const auto cap = [&](Index i) {
        return std::uint64_t{std::min(a_off[i + 1] - a_off[i], b_off[i + 1] - b_off[i])};
    };
    std::uint64_t cap_sum = 0;
    for (Index i = 0; i < m; ++i) cap_sum += cap(i);
    CsrMatrix out = lean_ewise(
        ctx, a, b, cap_sum, cap,
        [&](Index i) { return cap(i) == 0 ? RowFrom::Empty : RowFrom::Write; },
        [](const Index* x, const Index* x_end, const Index* y, const Index* y_end, Index* o) {
            return std::set_intersection(x, x_end, y, y_end, o);
        });
    SPBLA_VALIDATE(out);
    return out;
}

CsrMatrix ewise_diff(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_REQUIRE(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
                  Status::DimensionMismatch, "ewise_diff: shape mismatch");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("ewise_diff");

    // Row i's difference holds at most |a_i| entries: the caps sum to nnz(a).
    const Index* a_off = a.row_offsets().data();
    const Index* b_off = b.row_offsets().data();
    CsrMatrix out = lean_ewise(
        ctx, a, b, a.nnz(), [&](Index i) { return std::uint64_t{a_off[i + 1] - a_off[i]}; },
        [&](Index i) {
            const bool either_empty = a_off[i + 1] == a_off[i] || b_off[i + 1] == b_off[i];
            return either_empty ? RowFrom::First : RowFrom::Write;
        },
        [](const Index* x, const Index* x_end, const Index* y, const Index* y_end, Index* o) {
            return std::set_difference(x, x_end, y, y_end, o);
        });
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
