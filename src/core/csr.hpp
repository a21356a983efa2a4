/// \file csr.hpp
/// \brief Compressed-sparse-row (CSR) Boolean matrix — the cuBool format.
///
/// Storage is two arrays: row_offsets (nrows + 1 entries) and cols (column
/// indices, strictly increasing within a row). Boolean matrices carry no
/// value array — a true cell is encoded purely by its (i, j) position —
/// which is the core of the paper's memory advantage over generic formats:
/// a matrix of size m x n costs (m + nnz) * sizeof(Index) bytes.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace spbla {

class CooMatrix;

/// CSR Boolean matrix with sorted, duplicate-free rows.
class CsrMatrix {
public:
    /// Empty matrix of the given shape (all rows empty).
    CsrMatrix(Index nrows, Index ncols);

    CsrMatrix() : CsrMatrix(0, 0) {}

    /// Build from an arbitrary coordinate list (sorted + deduplicated here).
    static CsrMatrix from_coords(Index nrows, Index ncols, std::vector<Coord> coords);

    /// Adopt raw CSR arrays; validated in debug builds.
    static CsrMatrix from_raw(Index nrows, Index ncols, std::vector<Index> row_offsets,
                              std::vector<Index> cols);

    /// Identity matrix of size n x n.
    static CsrMatrix identity(Index n);

    [[nodiscard]] Index nrows() const noexcept { return nrows_; }
    [[nodiscard]] Index ncols() const noexcept { return ncols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return cols_.size(); }
    [[nodiscard]] bool empty() const noexcept { return cols_.empty(); }

    [[nodiscard]] std::span<const Index> row_offsets() const noexcept { return row_offsets_; }
    [[nodiscard]] std::span<const Index> cols() const noexcept { return cols_; }

    /// Column indices of row \p r (sorted ascending).
    [[nodiscard]] std::span<const Index> row(Index r) const {
        check(r < nrows_, Status::OutOfRange, "CsrMatrix::row: out of range");
        return std::span<const Index>(cols_).subspan(row_offsets_[r],
                                                     row_offsets_[r + 1] - row_offsets_[r]);
    }

    /// Number of set cells in row \p r.
    [[nodiscard]] Index row_nnz(Index r) const {
        check(r < nrows_, Status::OutOfRange, "CsrMatrix::row_nnz: out of range");
        return row_offsets_[r + 1] - row_offsets_[r];
    }

    /// True iff cell (r, c) is set (binary search within the row).
    [[nodiscard]] bool get(Index r, Index c) const;

    /// Export the coordinate list in (row, col) order.
    [[nodiscard]] std::vector<Coord> to_coords() const;

    /// Simulated device footprint: (nrows + 1 + nnz) * sizeof(Index).
    [[nodiscard]] std::size_t device_bytes() const noexcept {
        return (row_offsets_.size() + cols_.size()) * sizeof(Index);
    }

    /// Check all storage invariants; throws Error on violation.
    void validate() const;

    friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) noexcept {
        return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
               a.row_offsets_ == b.row_offsets_ && a.cols_ == b.cols_;
    }

private:
    Index nrows_;
    Index ncols_;
    std::vector<Index> row_offsets_;  // size nrows_ + 1, non-decreasing
    std::vector<Index> cols_;         // size nnz, sorted within each row
};

}  // namespace spbla
