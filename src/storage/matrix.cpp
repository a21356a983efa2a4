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

namespace {

void require_delta_shapes(const Matrix& m, const Matrix& adds, const Matrix& removes,
                          const char* insert_msg, const char* delete_msg) {
    SPBLA_REQUIRE(adds.nrows() == m.nrows() && adds.ncols() == m.ncols(),
                  Status::DimensionMismatch, insert_msg);
    SPBLA_REQUIRE(removes.nrows() == m.nrows() && removes.ncols() == m.ncols(),
                  Status::DimensionMismatch, delete_msg);
}

}  // namespace

void Matrix::apply_delta(const Matrix& adds, const Matrix& removes,
                         backend::Context& ctx) {
    require_delta_shapes(*this, adds, removes, "apply_delta: insert delta shape",
                         "apply_delta: delete delta shape");
    if (adds.empty() && removes.empty()) return;  // no-op batch: stamp kept
    *this = with_delta(adds, removes, ctx);
}

Matrix Matrix::with_delta(const Matrix& adds, const Matrix& removes,
                          backend::Context& ctx) const {
    require_delta_shapes(*this, adds, removes, "with_delta: insert delta shape",
                         "with_delta: delete delta shape");
    if (adds.empty() && removes.empty()) return *this;
    telemetry::count(telemetry::Counter::IncrBatches);
    telemetry::count(telemetry::Counter::IncrDeltaNnz, adds.nnz() + removes.nnz());
    return folded(adds, removes, ctx);
}

void Matrix::fold_delta(const Matrix& adds, const Matrix& removes,
                        backend::Context& ctx) {
    require_delta_shapes(*this, adds, removes, "fold_delta: insert delta shape",
                         "fold_delta: delete delta shape");
    if (adds.empty() && removes.empty()) return;  // no-op batch: stamp kept
    *this = folded(adds, removes, ctx);
}

Matrix Matrix::folded(const Matrix& adds, const Matrix& removes,
                      backend::Context& ctx) const {
    // The routed ops return freshly stamped handles, so even a value-equal
    // result carries a new content version.
    if (removes.empty()) return storage::ewise_add(ctx, *this, adds);
    Matrix next = storage::ewise_diff(ctx, *this, removes);
    if (!adds.empty()) next = storage::ewise_add(ctx, next, adds);
    return next;
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
