/// \file valued_csr.hpp
/// \brief CSR matrix over an arbitrary semiring, with generic kernels.
///
/// The generalisation of the library the paper's conclusion sketches:
/// the same CSR layout and the same two-pass hash-accumulator SpGEMM as the
/// Boolean kernels, but parameterised over a Semiring. Entries equal to the
/// semiring zero are never stored. Header-only since everything is a
/// template.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "backend/context.hpp"
#include "core/types.hpp"
#include "semiring/semiring.hpp"

namespace spbla::semiring {

/// Sorted, zero-free CSR matrix over semiring \p S.
template <Semiring S>
class ValuedCsr {
public:
    using Value = typename S::Value;

    ValuedCsr(Index nrows, Index ncols)
        : nrows_{nrows}, ncols_{ncols},
          row_offsets_(static_cast<std::size_t>(nrows) + 1, 0) {}

    ValuedCsr() : ValuedCsr(0, 0) {}

    /// Build from (row, col, value) triplets; duplicates combine with add,
    /// zeros are dropped.
    static ValuedCsr from_triplets(Index nrows, Index ncols,
                                   std::vector<std::tuple<Index, Index, Value>> t) {
        std::sort(t.begin(), t.end(), [](const auto& x, const auto& y) {
            return std::make_pair(std::get<0>(x), std::get<1>(x)) <
                   std::make_pair(std::get<0>(y), std::get<1>(y));
        });
        ValuedCsr m{nrows, ncols};
        for (const auto& [r, c, v] : t) {
            check(r < nrows && c < ncols, Status::OutOfRange,
                  "ValuedCsr::from_triplets: coordinate out of range");
            if (!m.cols_.empty() && !m.row_counts_pending_.empty() &&
                m.row_counts_pending_.back() == r && m.cols_.back() == c) {
                m.vals_.back() = S::add(m.vals_.back(), v);
            } else {
                m.cols_.push_back(c);
                m.vals_.push_back(v);
                m.row_counts_pending_.push_back(r);
            }
        }
        // Drop zeros, then build offsets.
        std::vector<Index> cols;
        std::vector<Value> vals;
        std::vector<Index> rows;
        for (std::size_t k = 0; k < m.cols_.size(); ++k) {
            if (m.vals_[k] == S::zero()) continue;
            cols.push_back(m.cols_[k]);
            vals.push_back(m.vals_[k]);
            rows.push_back(m.row_counts_pending_[k]);
        }
        m.cols_ = std::move(cols);
        m.vals_ = std::move(vals);
        std::fill(m.row_offsets_.begin(), m.row_offsets_.end(), 0);
        for (const auto r : rows) ++m.row_offsets_[r + 1];
        for (Index r = 0; r < nrows; ++r) m.row_offsets_[r + 1] += m.row_offsets_[r];
        m.row_counts_pending_.clear();
        return m;
    }

    [[nodiscard]] Index nrows() const noexcept { return nrows_; }
    [[nodiscard]] Index ncols() const noexcept { return ncols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return cols_.size(); }

    [[nodiscard]] std::span<const Index> row(Index r) const {
        check(r < nrows_, Status::OutOfRange, "ValuedCsr::row");
        return std::span<const Index>(cols_).subspan(
            row_offsets_[r], row_offsets_[r + 1] - row_offsets_[r]);
    }

    [[nodiscard]] std::span<const Value> row_vals(Index r) const {
        check(r < nrows_, Status::OutOfRange, "ValuedCsr::row_vals");
        return std::span<const Value>(vals_).subspan(
            row_offsets_[r], row_offsets_[r + 1] - row_offsets_[r]);
    }

    /// Value at (r, c); semiring zero when the cell is not stored.
    [[nodiscard]] Value get(Index r, Index c) const {
        const auto cols = row(r);
        const auto it = std::lower_bound(cols.begin(), cols.end(), c);
        if (it == cols.end() || *it != c) return S::zero();
        return row_vals(r)[static_cast<std::size_t>(it - cols.begin())];
    }

    friend bool operator==(const ValuedCsr& a, const ValuedCsr& b) noexcept {
        return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
               a.row_offsets_ == b.row_offsets_ && a.cols_ == b.cols_ &&
               a.vals_ == b.vals_;
    }

    // Kernels need raw access to assemble results.
    static ValuedCsr from_raw(Index nrows, Index ncols, std::vector<Index> offsets,
                              std::vector<Index> cols, std::vector<Value> vals) {
        ValuedCsr m{nrows, ncols};
        m.row_offsets_ = std::move(offsets);
        m.cols_ = std::move(cols);
        m.vals_ = std::move(vals);
        return m;
    }

private:
    Index nrows_;
    Index ncols_;
    std::vector<Index> row_offsets_;
    std::vector<Index> cols_;
    std::vector<Value> vals_;
    std::vector<Index> row_counts_pending_;  // scratch used by from_triplets
};

/// C = A x B over semiring S: per-row ordered-map accumulation (the generic
/// analog of the Boolean hash kernel; a std::map keeps output sorted without
/// a separate sort pass — clarity over raw speed for the generic path).
template <Semiring S>
[[nodiscard]] ValuedCsr<S> multiply(backend::Context& ctx, const ValuedCsr<S>& a,
                                    const ValuedCsr<S>& b) {
    check(a.ncols() == b.nrows(), Status::DimensionMismatch, "semiring multiply");
    const Index m = a.nrows();
    using Value = typename S::Value;

    std::vector<std::vector<Index>> row_cols(m);
    std::vector<std::vector<Value>> row_vals(m);
    ctx.parallel_for_chunks(m, 64, [&](std::size_t begin, std::size_t end) {
        std::map<Index, Value> acc;
        for (std::size_t i = begin; i < end; ++i) {
            acc.clear();
            const auto r = static_cast<Index>(i);
            const auto arow = a.row(r);
            const auto avals = a.row_vals(r);
            for (std::size_t t = 0; t < arow.size(); ++t) {
                const auto brow = b.row(arow[t]);
                const auto bvals = b.row_vals(arow[t]);
                for (std::size_t u = 0; u < brow.size(); ++u) {
                    const Value prod = S::mul(avals[t], bvals[u]);
                    const auto [it, inserted] = acc.try_emplace(brow[u], prod);
                    if (!inserted) it->second = S::add(it->second, prod);
                }
            }
            for (const auto& [c, v] : acc) {
                if (v == S::zero()) continue;
                row_cols[i].push_back(c);
                row_vals[i].push_back(v);
            }
        }
    });

    std::vector<Index> offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) {
        offsets[i + 1] = offsets[i] + static_cast<Index>(row_cols[i].size());
    }
    std::vector<Index> cols(offsets[m]);
    std::vector<Value> vals(offsets[m]);
    for (Index i = 0; i < m; ++i) {
        std::copy(row_cols[i].begin(), row_cols[i].end(), cols.begin() + offsets[i]);
        std::copy(row_vals[i].begin(), row_vals[i].end(), vals.begin() + offsets[i]);
    }
    return ValuedCsr<S>::from_raw(m, b.ncols(), std::move(offsets), std::move(cols),
                                  std::move(vals));
}

/// C = A (+) B element-wise over semiring S (row merge, combining with add).
template <Semiring S>
[[nodiscard]] ValuedCsr<S> ewise_add(backend::Context& ctx, const ValuedCsr<S>& a,
                                     const ValuedCsr<S>& b) {
    check(a.nrows() == b.nrows() && a.ncols() == b.ncols(), Status::DimensionMismatch,
          "semiring ewise_add");
    const Index m = a.nrows();
    using Value = typename S::Value;

    std::vector<std::vector<Index>> row_cols(m);
    std::vector<std::vector<Value>> row_vals(m);
    ctx.parallel_for_chunks(m, 256, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto r = static_cast<Index>(i);
            const auto x = a.row(r);
            const auto xv = a.row_vals(r);
            const auto y = b.row(r);
            const auto yv = b.row_vals(r);
            std::size_t p = 0, q = 0;
            const auto emit = [&](Index c, Value v) {
                if (v == S::zero()) return;
                row_cols[i].push_back(c);
                row_vals[i].push_back(v);
            };
            while (p < x.size() && q < y.size()) {
                if (x[p] < y[q]) {
                    emit(x[p], xv[p]);
                    ++p;
                } else if (y[q] < x[p]) {
                    emit(y[q], yv[q]);
                    ++q;
                } else {
                    emit(x[p], S::add(xv[p], yv[q]));
                    ++p;
                    ++q;
                }
            }
            for (; p < x.size(); ++p) emit(x[p], xv[p]);
            for (; q < y.size(); ++q) emit(y[q], yv[q]);
        }
    });

    std::vector<Index> offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) {
        offsets[i + 1] = offsets[i] + static_cast<Index>(row_cols[i].size());
    }
    std::vector<Index> cols(offsets[m]);
    std::vector<Value> vals(offsets[m]);
    for (Index i = 0; i < m; ++i) {
        std::copy(row_cols[i].begin(), row_cols[i].end(), cols.begin() + offsets[i]);
        std::copy(row_vals[i].begin(), row_vals[i].end(), vals.begin() + offsets[i]);
    }
    return ValuedCsr<S>::from_raw(m, a.ncols(), std::move(offsets), std::move(cols),
                                  std::move(vals));
}

}  // namespace spbla::semiring
