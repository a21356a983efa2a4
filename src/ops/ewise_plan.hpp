/// \file ewise_plan.hpp
/// \brief The element-wise kernels on the one-pass runner of spgemm_plan.hpp.
///
/// An element-wise row's output is bounded by its operand rows alone:
/// |a| + |b| for the union, min(|a|, |b|) for the intersection, |a| for the
/// difference. So each row is written once at that bound and the join
/// compacts the rows into exact-size arrays, with no count pass, no scan of
/// row sizes and no per-row callback.
///
/// Run rule. Only rows where both operand rows are non-empty are merged.
/// Every other row is empty or exactly one operand's row, and the runner
/// copies maximal runs of such rows as one block (RowFrom):
///  - union: B's row is empty (copy A's row) or A's row is (copy B's);
///  - intersection: either row is empty (empty);
///  - difference: either row is empty (copy A's row, which is empty when
///    A's is).
/// When one operand is a small delta, almost all rows fall in runs, so the
/// op costs its few merged rows plus a copy at memcpy speed. The Boolean
/// kernels (ewise_add.cpp, ewise_mult.cpp) share lean_ewise; the
/// value-carrying twin (baseline/generic_ewise_add.cpp) runs the same
/// runner with the same chunk rule, run rule and its own row writer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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

/// Row chunks of an element-wise op whose smaller operand holds
/// \p smaller_nnz cells. A delta-sized op (the smaller operand under an
/// eighth of the op's rows plus staged room) runs as one chunk on the
/// calling thread: it merges at most smaller_nnz rows, and a row is never
/// split across chunks anyway, so the rest of its work is run copies at
/// memcpy speed, which do not repay a pool launch (under Policy::Parallel a
/// split C | gained on the ~7.5k-row closure was slower than one chunk).
/// Any other op takes ewise_chunk_count.
[[nodiscard]] inline std::size_t ewise_run_chunks(const backend::Context& ctx, Index m,
                                                  std::uint64_t cap_sum,
                                                  std::uint64_t smaller_nnz) {
    return smaller_nnz * 8 < cap_sum + m ? 1 : ewise_chunk_count(ctx, m, cap_sum);
}

/// An element-wise row writer needs no worker scratch.
struct EwiseNoScratch {};

/// The union's run rule: rows with an empty B row copy A's (empty or not),
/// rows with only an empty A row copy B's.
[[nodiscard]] inline RowFrom union_from(const Index* a_off, const Index* b_off, Index i) {
    if (b_off[i + 1] == b_off[i]) return RowFrom::First;
    return a_off[i + 1] == a_off[i] ? RowFrom::Second : RowFrom::Write;
}

/// A Boolean element-wise op C(i,:) = merge(A(i,:), B(i,:)) on the runner.
///  - cap(i): row i's bound, from the operands' row offsets; the caps sum
///    to \p cap_sum, which the caller keeps within an Index.
///  - from(i): the op's run rule (RowFrom; First is A, Second is B).
///  - merge(x, x_end, y, y_end, out): writes the sorted result row of two
///    non-empty rows to out and returns the pointer past its last entry.
/// The staging buffer is freed on return; the output arrays are exact.
template <class RowCap, class From, class Merge>
[[nodiscard]] CsrMatrix lean_ewise(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b,
                                   std::uint64_t cap_sum, RowCap cap, From from, Merge merge) {
    const Index m = a.nrows();
    const CsrView av{a};
    const CsrView bv{b};
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> cols;
    lean_run<void>(
        ctx, m, cap_sum,
        ewise_run_chunks(ctx, m, cap_sum, std::min(a.nnz(), b.nnz())), cap, from,
        {RunSource<void>{av.off, av.cols}, RunSource<void>{bv.off, bv.cols}},
        [] { return EwiseNoScratch{}; },
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
