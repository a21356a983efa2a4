/// \file matrix.cpp
/// \brief The CSR matrix handle: construction, content versions, queries.

#include "storage/matrix.hpp"

#include <atomic>
#include <utility>

#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"

namespace spbla {

// ---------------------------------------------------------------------------
// Construction / special members
// ---------------------------------------------------------------------------

Matrix::Matrix(Index nrows, Index ncols, backend::Context& ctx)
    : ctx_{&ctx}, csr_{nrows, ncols}, version_{next_version()} {}

Matrix::Matrix(CsrMatrix data, backend::Context& ctx)
    : ctx_{&ctx}, csr_{std::move(data)}, version_{next_version()} {}

Matrix Matrix::from_coords(Index nrows, Index ncols, std::vector<Coord> coords,
                           backend::Context& ctx) {
    return Matrix{CsrMatrix::from_coords(nrows, ncols, std::move(coords)), ctx};
}

Matrix Matrix::identity(Index n, backend::Context& ctx) {
    return Matrix{CsrMatrix::identity(n), ctx};
}

Matrix::Matrix(Matrix&& other) noexcept
    : ctx_{other.ctx_},
      csr_{std::move(other.csr_)},
      version_{std::exchange(other.version_, 0)} {}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
    if (this != &other) {
        ctx_ = other.ctx_;
        csr_ = std::move(other.csr_);
        version_ = std::exchange(other.version_, 0);
    }
    return *this;
}

std::uint64_t Matrix::next_version() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

bool operator==(const Matrix& a, const Matrix& b) { return a.csr_ == b.csr_; }

// ---------------------------------------------------------------------------
// Facade sugar — routed through dispatch
// ---------------------------------------------------------------------------

Matrix& Matrix::operator+=(const Matrix& other) {
    *this = storage::ewise_add(*ctx_, *this, other);
    return *this;
}

Matrix& Matrix::multiply_add(const Matrix& a, const Matrix& b) {
    *this = storage::multiply_add(*ctx_, *this, a, b);
    return *this;
}

void Matrix::apply_delta(const Matrix& adds, const Matrix& removes,
                         backend::Context& ctx) {
    SPBLA_REQUIRE(adds.nrows() == nrows() && adds.ncols() == ncols(),
                  Status::DimensionMismatch, "apply_delta: insert delta shape");
    SPBLA_REQUIRE(removes.nrows() == nrows() && removes.ncols() == ncols(),
                  Status::DimensionMismatch, "apply_delta: delete delta shape");
    if (adds.empty() && removes.empty()) return;  // no-op batch: stamp kept
    telemetry::count(telemetry::Counter::IncrBatches);
    telemetry::count(telemetry::Counter::IncrDeltaNnz,
                     adds.nnz() + removes.nnz());
    fold_delta(adds, removes, ctx);
}

void Matrix::fold_delta(const Matrix& adds, const Matrix& removes,
                        backend::Context& ctx) {
    SPBLA_REQUIRE(adds.nrows() == nrows() && adds.ncols() == ncols(),
                  Status::DimensionMismatch, "fold_delta: insert delta shape");
    SPBLA_REQUIRE(removes.nrows() == nrows() && removes.ncols() == ncols(),
                  Status::DimensionMismatch, "fold_delta: delete delta shape");
    if (adds.empty() && removes.empty()) return;  // no-op batch: stamp kept
    Matrix next =
        removes.empty() ? *this : storage::ewise_diff(ctx, *this, removes);
    if (!adds.empty()) next = storage::ewise_add(ctx, next, adds);
    // The routed ops return freshly stamped handles, so the assignment below
    // installs a new content version even for a value-equal result.
    *this = std::move(next);
}

Matrix Matrix::add(const Matrix& a, const Matrix& b) {
    return storage::ewise_add(a.context(), a, b);
}

Matrix Matrix::mul(const Matrix& a, const Matrix& b) {
    return storage::multiply(a.context(), a, b);
}

Matrix Matrix::kron(const Matrix& other) const {
    return storage::kronecker(*ctx_, *this, other);
}

Matrix Matrix::transposed() const { return storage::transpose(*ctx_, *this); }

Matrix Matrix::submatrix(Index r0, Index c0, Index m, Index n) const {
    return storage::submatrix(*ctx_, *this, r0, c0, m, n);
}

SpVector Matrix::reduce_to_column() const {
    return storage::reduce_to_column(*ctx_, *this);
}

}  // namespace spbla
