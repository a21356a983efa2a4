#include "baseline/generic_ewise_add.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ops/ewise_plan.hpp"

namespace spbla::baseline {
namespace {

/// Merge row pair (x, xv) + (y, yv) into (cols, vals), summing coincident
/// values; returns the merged length. A row whose partner is empty never
/// gets here: the runner copies it in a run.
Index merge_row(const Index* x, const float* xv, std::size_t nx, const Index* y,
                const float* yv, std::size_t ny, Index* cols, float* vals) {
    std::size_t p = 0, q = 0, out = 0;
    while (p < nx && q < ny) {
        if (x[p] < y[q]) {
            cols[out] = x[p];
            vals[out] = xv[p];
            ++p;
        } else if (y[q] < x[p]) {
            cols[out] = y[q];
            vals[out] = yv[q];
            ++q;
        } else {
            cols[out] = x[p];
            vals[out] = xv[p] + yv[q];  // value work the Boolean kernel skips
            ++p;
            ++q;
        }
        ++out;
    }
    for (; p < nx; ++p, ++out) {
        cols[out] = x[p];
        vals[out] = xv[p];
    }
    for (; q < ny; ++q, ++out) {
        cols[out] = y[q];
        vals[out] = yv[q];
    }
    return static_cast<Index>(out);
}

}  // namespace

GenericCsr ewise_add(backend::Context& ctx, const GenericCsr& a, const GenericCsr& b) {
    check(a.nrows() == b.nrows() && a.ncols() == b.ncols(), Status::DimensionMismatch,
          "generic ewise_add: shape mismatch");
    const Index m = a.nrows();
    const std::uint64_t cap_sum = std::uint64_t{a.nnz()} + b.nnz();
    check(cap_sum <= std::numeric_limits<Index>::max(), Status::OutOfRange,
          "generic ewise_add: nnz overflow");

    // The Boolean kernel's runner, chunk rule and run rule
    // (ops/ewise_plan.hpp), with a value-carrying row writer.
    const Index* a_off = a.row_offsets().data();
    const Index* a_cols = a.cols().data();
    const float* a_vals = a.vals().data();
    const Index* b_off = b.row_offsets().data();
    const Index* b_cols = b.cols().data();
    const float* b_vals = b.vals().data();
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> cols;
    std::vector<float> vals;
    const auto cap = [&](Index i) {
        return std::uint64_t{a_off[i + 1] - a_off[i]} + (b_off[i + 1] - b_off[i]);
    };
    const auto from = [&](Index i) { return ops::union_from(a_off, b_off, i); };
    ops::lean_run<float>(
        ctx, m, cap_sum,
        ops::ewise_run_chunks(ctx, m, cap_sum, std::min(a.nnz(), b.nnz())), cap, from,
        {ops::RunSource<float>{a_off, a_cols, a_vals},
         ops::RunSource<float>{b_off, b_cols, b_vals}},
        [] { return ops::EwiseNoScratch{}; },
        [&](ops::EwiseNoScratch, Index i, Index* out_cols, float* out_vals) {
            return merge_row(a_cols + a_off[i], a_vals + a_off[i], a_off[i + 1] - a_off[i],
                             b_cols + b_off[i], b_vals + b_off[i], b_off[i + 1] - b_off[i],
                             out_cols, out_vals);
        },
        row_offsets.data(), cols, &vals);
    return GenericCsr::from_raw(m, a.ncols(), std::move(row_offsets), std::move(cols),
                                std::move(vals));
}

}  // namespace spbla::baseline
