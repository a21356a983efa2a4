#include "core/dense.hpp"

#include "util/bit_ops.hpp"
#include "util/contracts.hpp"

namespace spbla {

DenseMatrix::DenseMatrix(Index nrows, Index ncols)
    : nrows_{nrows},
      ncols_{ncols},
      words_per_row_{(static_cast<std::size_t>(ncols) + 63) / 64},
      words_(static_cast<std::size_t>(nrows) * words_per_row_, 0) {}

std::size_t DenseMatrix::nnz() const noexcept {
    std::size_t total = 0;
    for (const auto w : words_) total += static_cast<std::size_t>(util::popcount64(w));
    return total;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
    check(ncols_ == other.nrows_, Status::DimensionMismatch, "DenseMatrix::multiply");
    DenseMatrix out{nrows_, other.ncols_};
    // Row-by-row: OR together the rows of `other` selected by this row's bits.
    for (Index i = 0; i < nrows_; ++i) {
        const std::size_t row_base = static_cast<std::size_t>(i) * words_per_row_;
        std::uint64_t* out_row = out.words_.data() +
                                 static_cast<std::size_t>(i) * out.words_per_row_;
        for (std::size_t w = 0; w < words_per_row_; ++w) {
            util::for_each_set_bit(words_[row_base + w], [&](unsigned bit) {
                const std::size_t k = w * 64 + bit;
                const std::uint64_t* b_row =
                    other.words_.data() + k * other.words_per_row_;
                for (std::size_t v = 0; v < other.words_per_row_; ++v) out_row[v] |= b_row[v];
            });
        }
    }
    return out;
}

DenseMatrix DenseMatrix::ewise_or(const DenseMatrix& other) const {
    check(nrows_ == other.nrows_ && ncols_ == other.ncols_, Status::DimensionMismatch,
          "DenseMatrix::ewise_or");
    DenseMatrix out{nrows_, ncols_};
    for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] = words_[w] | other.words_[w];
    return out;
}

DenseMatrix DenseMatrix::ewise_and(const DenseMatrix& other) const {
    check(nrows_ == other.nrows_ && ncols_ == other.ncols_, Status::DimensionMismatch,
          "DenseMatrix::ewise_and");
    DenseMatrix out{nrows_, ncols_};
    for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] = words_[w] & other.words_[w];
    return out;
}

DenseMatrix DenseMatrix::ewise_andnot(const DenseMatrix& other) const {
    check(nrows_ == other.nrows_ && ncols_ == other.ncols_, Status::DimensionMismatch,
          "DenseMatrix::ewise_andnot");
    DenseMatrix out{nrows_, ncols_};
    for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] = words_[w] & ~other.words_[w];
    return out;
}

Index DenseMatrix::row_nnz(Index r) const {
    check(r < nrows_, Status::OutOfRange, "DenseMatrix::row_nnz");
    const std::size_t row_base = static_cast<std::size_t>(r) * words_per_row_;
    Index total = 0;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
        total += static_cast<Index>(util::popcount64(words_[row_base + w]));
    }
    return total;
}

DenseMatrix DenseMatrix::kronecker(const DenseMatrix& other) const {
    const std::uint64_t out_rows = static_cast<std::uint64_t>(nrows_) * other.nrows_;
    const std::uint64_t out_cols = static_cast<std::uint64_t>(ncols_) * other.ncols_;
    SPBLA_REQUIRE(out_rows <= 0xFFFFFFFFull && out_cols <= 0xFFFFFFFFull,
                  Status::OutOfRange, "kronecker: result shape overflows Index");
    DenseMatrix out{static_cast<Index>(out_rows), static_cast<Index>(out_cols)};
    for (Index i1 = 0; i1 < nrows_; ++i1) {
        for (Index j1 = 0; j1 < ncols_; ++j1) {
            if (!get(i1, j1)) continue;
            for (Index i2 = 0; i2 < other.nrows_; ++i2) {
                for (Index j2 = 0; j2 < other.ncols_; ++j2) {
                    if (other.get(i2, j2)) {
                        out.set(i1 * other.nrows_ + i2, j1 * other.ncols_ + j2);
                    }
                }
            }
        }
    }
    return out;
}

DenseMatrix DenseMatrix::transpose() const {
    DenseMatrix out{ncols_, nrows_};
    for (Index r = 0; r < nrows_; ++r) {
        for (Index c = 0; c < ncols_; ++c) {
            if (get(r, c)) out.set(c, r);
        }
    }
    return out;
}

DenseMatrix DenseMatrix::submatrix(Index r0, Index c0, Index m, Index n) const {
    check(static_cast<std::size_t>(r0) + m <= nrows_ &&
              static_cast<std::size_t>(c0) + n <= ncols_,
          Status::OutOfRange, "DenseMatrix::submatrix");
    DenseMatrix out{m, n};
    for (Index r = 0; r < m; ++r) {
        for (Index c = 0; c < n; ++c) {
            if (get(r0 + r, c0 + c)) out.set(r, c);
        }
    }
    return out;
}

std::vector<Coord> DenseMatrix::to_coords() const {
    std::vector<Coord> out;
    for (Index r = 0; r < nrows_; ++r) {
        const std::size_t row_base = static_cast<std::size_t>(r) * words_per_row_;
        for (std::size_t w = 0; w < words_per_row_; ++w) {
            util::for_each_set_bit(words_[row_base + w], [&](unsigned bit) {
                out.push_back({r, static_cast<Index>(w * 64 + bit)});
            });
        }
    }
    return out;
}

}  // namespace spbla
