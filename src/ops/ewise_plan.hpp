/// \file ewise_plan.hpp
/// \brief The element-wise kernels on the one-pass runner of spgemm_plan.hpp.
///
/// An element-wise row's output is bounded by its operand rows alone:
/// |a| + |b| for the union, min(|a|, |b|) for the intersection, |a| for the
/// difference. So each row is written once at that bound and the join
/// compacts the rows into exact-size arrays, with no count pass, no scan of
/// row sizes and no per-row callback. A row whose partner row is empty is
/// copied straight across, the common case when one operand is a small
/// delta. The Boolean kernels (ewise_add.cpp, ewise_mult.cpp) share
/// lean_ewise; the value-carrying twin (baseline/generic_ewise_add.cpp) runs
/// the same runner with the same chunk rule and its own row writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "backend/arena.hpp"
#include "backend/context.hpp"
#include "core/csr.hpp"
#include "core/types.hpp"
#include "ops/spgemm_plan.hpp"

namespace spbla::ops {

/// Row chunks of an element-wise op over \p m rows staging \p cap_sum
/// entries: no marker, so a chunk pays only for its entries and rows. Every
/// op under Policy::Sequential, and every small one, is one chunk.
[[nodiscard]] inline std::size_t ewise_chunk_count(const backend::Context& ctx, Index m,
                                                   std::uint64_t cap_sum) {
    return lean_chunk_count(lean_workers(ctx), m, 0, cap_sum);
}

/// An element-wise row writer needs no worker scratch.
struct EwiseNoScratch {};

/// A Boolean element-wise op C(i,:) = merge(A(i,:), B(i,:)) on the runner.
///  - cap(i): row i's bound, from the operands' row offsets; the caps sum
///    to \p cap_sum, which the caller keeps within an Index.
///  - merge(x, x_end, y, y_end, out): writes the sorted result row to out
///    and returns the pointer past its last entry.
/// Staging lives in this op's arena scope; the output arrays are exact.
template <class RowCap, class Merge>
[[nodiscard]] CsrMatrix lean_ewise(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b,
                                   std::uint64_t cap_sum, RowCap cap, Merge merge) {
    const Index m = a.nrows();
    const CsrView av{a};
    const CsrView bv{b};
    backend::ScopedArena op_scope{ctx.scratch_arena()};
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> cols;
    lean_run<void>(
        ctx, m, cap_sum, ewise_chunk_count(ctx, m, cap_sum), cap,
        [](backend::Arena&) { return EwiseNoScratch{}; },
        [&](EwiseNoScratch, Index i, Index* out, std::byte*) {
            const Index* x = av.cols + av.off[i];
            const Index* y = bv.cols + bv.off[i];
            return static_cast<Index>(
                merge(x, av.cols + av.off[i + 1], y, bv.cols + bv.off[i + 1], out) - out);
        },
        row_offsets.data(), cols, nullptr);
    return CsrMatrix::from_raw(m, a.ncols(), std::move(row_offsets), std::move(cols));
}

}  // namespace spbla::ops
