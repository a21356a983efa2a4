/// \file dense.hpp
/// \brief Dense bit-packed Boolean matrix.
///
/// The exhaustive reference implementation every sparse kernel is tested
/// against. It is not a storage-engine representation: spbla::Matrix holds
/// CSR only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace spbla {

/// Row-major bit-packed dense Boolean matrix.
class DenseMatrix {
public:
    DenseMatrix(Index nrows, Index ncols);

    DenseMatrix() : DenseMatrix(0, 0) {}

    [[nodiscard]] Index nrows() const noexcept { return nrows_; }
    [[nodiscard]] Index ncols() const noexcept { return ncols_; }

    [[nodiscard]] bool get(Index r, Index c) const {
        check(r < nrows_ && c < ncols_, Status::OutOfRange, "DenseMatrix::get");
        return (words_[word_index(r, c)] >> (c & 63)) & 1u;
    }

    void set(Index r, Index c, bool value = true) {
        check(r < nrows_ && c < ncols_, Status::OutOfRange, "DenseMatrix::set");
        const std::uint64_t mask = std::uint64_t{1} << (c & 63);
        if (value)
            words_[word_index(r, c)] |= mask;
        else
            words_[word_index(r, c)] &= ~mask;
    }

    /// Number of true cells.
    [[nodiscard]] std::size_t nnz() const noexcept;

    /// Number of true cells in row \p r (popcount over the row's words).
    [[nodiscard]] Index row_nnz(Index r) const;

    /// The packed words of row \p r (64 columns per word, LSB-first).
    [[nodiscard]] std::span<const std::uint64_t> row_words(Index r) const {
        check(r < nrows_, Status::OutOfRange, "DenseMatrix::row_words");
        return std::span<const std::uint64_t>(words_)
            .subspan(static_cast<std::size_t>(r) * words_per_row_, words_per_row_);
    }

    /// Boolean matrix multiply: this (m x k) times other (k x n).
    [[nodiscard]] DenseMatrix multiply(const DenseMatrix& other) const;

    /// Element-wise OR; shapes must match.
    [[nodiscard]] DenseMatrix ewise_or(const DenseMatrix& other) const;

    /// Kronecker product.
    [[nodiscard]] DenseMatrix kronecker(const DenseMatrix& other) const;

    /// Transpose.
    [[nodiscard]] DenseMatrix transpose() const;

    /// Sub-matrix of shape (m x n) anchored at (r0, c0).
    [[nodiscard]] DenseMatrix submatrix(Index r0, Index c0, Index m, Index n) const;

    /// Coordinate list of all true cells in (row, col) order.
    [[nodiscard]] std::vector<Coord> to_coords() const;

    friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) noexcept {
        return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ && a.words_ == b.words_;
    }

private:
    [[nodiscard]] std::size_t word_index(Index r, Index c) const noexcept {
        return static_cast<std::size_t>(r) * words_per_row_ + (c >> 6);
    }

    Index nrows_;
    Index ncols_;
    std::size_t words_per_row_;
    std::vector<std::uint64_t> words_;
};

}  // namespace spbla
