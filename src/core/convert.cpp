#include "core/convert.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>


namespace spbla {

namespace {

// Grain sizes for the conversion launches: rows are cheap (a search or a
// popcount each), entries cheaper still, so keep chunks large enough that
// ticket bookkeeping never dominates.
constexpr std::size_t kRowGrain = 1024;

}  // namespace

CsrMatrix to_csr(backend::Context& ctx, const CooMatrix& coo) {
    // Row pointers of a sorted COO: offsets[r] = first entry with row >= r,
    // found independently per row (binary search), so the pass parallelises
    // with no carried dependency.
    const auto rows = coo.rows();
    std::vector<Index> row_offsets(static_cast<std::size_t>(coo.nrows()) + 1, 0);
    row_offsets[coo.nrows()] = static_cast<Index>(rows.size());
    ctx.parallel_for_chunks(coo.nrows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            row_offsets[r] = static_cast<Index>(
                std::lower_bound(rows.begin(), rows.end(), static_cast<Index>(r)) -
                rows.begin());
        }
    });
    std::vector<Index> cols(coo.cols().begin(), coo.cols().end());
    return CsrMatrix::from_raw(coo.nrows(), coo.ncols(), std::move(row_offsets),
                               std::move(cols));
}

CooMatrix to_coo(backend::Context& ctx, const CsrMatrix& csr) {
    std::vector<Index> rows(csr.nnz());
    ctx.parallel_for_chunks(csr.nrows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
        const auto offsets = csr.row_offsets();
        for (std::size_t r = begin; r < end; ++r) {
            std::fill(rows.begin() + offsets[r], rows.begin() + offsets[r + 1],
                      static_cast<Index>(r));
        }
    });
    std::vector<Index> cols(csr.cols().begin(), csr.cols().end());
    return CooMatrix::from_sorted(csr.nrows(), csr.ncols(), std::move(rows),
                                  std::move(cols));
}

CsrMatrix to_csr(backend::Context& ctx, const DenseMatrix& dense) {
    // Per-row popcount, exclusive scan for the destination offsets, then an
    // independent per-row bit scatter.
    const Index nrows = dense.nrows();
    std::vector<std::uint32_t> counts(nrows, 0);
    ctx.parallel_for_chunks(nrows, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            counts[r] = dense.row_nnz(static_cast<Index>(r));
        }
    });
    const std::uint64_t total = ctx.exclusive_scan(counts);

    std::vector<Index> cols(total);
    std::vector<Index> row_offsets(static_cast<std::size_t>(nrows) + 1, 0);
    row_offsets[nrows] = static_cast<Index>(total);
    ctx.parallel_for_chunks(nrows, kRowGrain / 4, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            row_offsets[r] = static_cast<Index>(counts[r]);
            std::size_t dst = counts[r];
            const auto words = dense.row_words(static_cast<Index>(r));
            for (std::size_t w = 0; w < words.size(); ++w) {
                std::uint64_t bits = words[w];
                while (bits != 0) {
                    cols[dst++] = static_cast<Index>(
                        w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
                    bits &= bits - 1;
                }
            }
        }
    });
    return CsrMatrix::from_raw(nrows, dense.ncols(), std::move(row_offsets),
                               std::move(cols));
}

DenseMatrix to_dense(backend::Context& ctx, const CsrMatrix& csr) {
    DenseMatrix out{csr.nrows(), csr.ncols()};
    // Rows own disjoint word ranges of the bitmap, so per-row writes do not
    // race.
    ctx.parallel_for_chunks(csr.nrows(), kRowGrain / 4, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            for (const auto c : csr.row(static_cast<Index>(r))) {
                out.set(static_cast<Index>(r), c);
            }
        }
    });
    return out;
}

CsrMatrix to_csr(const CooMatrix& coo) { return to_csr(backend::default_context(), coo); }
CooMatrix to_coo(const CsrMatrix& csr) { return to_coo(backend::default_context(), csr); }
CsrMatrix to_csr(const DenseMatrix& dense) {
    return to_csr(backend::default_context(), dense);
}
DenseMatrix to_dense(const CsrMatrix& csr) {
    return to_dense(backend::default_context(), csr);
}

}  // namespace spbla
