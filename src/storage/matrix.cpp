/// \file matrix.cpp
/// \brief Format-polymorphic handle: representation caching + accounting.
///
/// Concurrency model of the representation cache (the per-slot latch): each
/// format has an *ownership* slot (unique_ptr, guarded by repr_mutex_) and a
/// *published* slot (atomic pointer). Readers take one acquire load of the
/// published pointer; a miss takes the mutex, runs the conversion exactly
/// once, charges the tracker, and release-publishes the pointer. Concurrent
/// first materialisation from many pool threads is therefore safe, while the
/// hot path stays a single atomic load (within noise on the format bench
/// ladder).

#include "storage/matrix.hpp"

#include <atomic>
#include <type_traits>
#include <utility>

#include "core/convert.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"

namespace spbla {

namespace storage {

namespace {

// Default budget for cached secondary representations: generous enough that
// fixpoint loops keep both reps of their operands alive, small enough that a
// sweep over many large matrices recycles instead of doubling the footprint.
constexpr std::size_t kDefaultCacheBudget = std::size_t{256} << 20;  // 256 MiB

std::atomic<std::size_t> g_cached_bytes{0};
std::atomic<std::size_t> g_cache_budget{kDefaultCacheBudget};
std::atomic<FormatHint> g_hint{FormatHint::Auto};

}  // namespace

std::size_t cached_bytes() noexcept {
    return g_cached_bytes.load(std::memory_order_relaxed);
}

std::size_t cache_budget() noexcept {
    return g_cache_budget.load(std::memory_order_relaxed);
}

void set_cache_budget(std::size_t bytes) noexcept {
    g_cache_budget.store(bytes, std::memory_order_relaxed);
}

FormatHint global_hint() noexcept { return g_hint.load(std::memory_order_relaxed); }

void set_global_hint(FormatHint hint) noexcept {
    g_hint.store(hint, std::memory_order_relaxed);
}

namespace {

void gauge_add(std::size_t bytes) noexcept {
    g_cached_bytes.fetch_add(bytes, std::memory_order_relaxed);
    telemetry::gauge_add(telemetry::Gauge::StorageCachedBytes,
                         static_cast<std::int64_t>(bytes));
}

void gauge_sub(std::size_t bytes) noexcept {
    g_cached_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    telemetry::gauge_add(telemetry::Gauge::StorageCachedBytes,
                         -static_cast<std::int64_t>(bytes));
}

}  // namespace

}  // namespace storage

// ---------------------------------------------------------------------------
// Construction / special members
// ---------------------------------------------------------------------------

Matrix::Matrix(Index nrows, Index ncols, backend::Context& ctx)
    : ctx_{&ctx}, primary_{Format::Csr}, csr_{std::make_unique<CsrMatrix>(nrows, ncols)} {
    publish_primary();
    adopt_shape();
    version_ = next_version();
}

Matrix::Matrix(CsrMatrix data, backend::Context& ctx)
    : ctx_{&ctx},
      primary_{Format::Csr},
      csr_{std::make_unique<const CsrMatrix>(std::move(data))} {
    publish_primary();
    adopt_shape();
    version_ = next_version();
}

Matrix::Matrix(BitBlockMatrix data, backend::Context& ctx)
    : ctx_{&ctx},
      primary_{Format::BitBlocks},
      bb_{std::make_unique<const BitBlockMatrix>(std::move(data))} {
    publish_primary();
    adopt_shape();
    version_ = next_version();
}

Matrix Matrix::from_coords(Index nrows, Index ncols, std::vector<Coord> coords,
                           backend::Context& ctx) {
    return Matrix{CsrMatrix::from_coords(nrows, ncols, std::move(coords)), ctx};
}

Matrix Matrix::identity(Index n, backend::Context& ctx) {
    return Matrix{CsrMatrix::identity(n), ctx};
}

Matrix::Matrix(const Matrix& other) : ctx_{other.ctx_}, primary_{other.primary_} {
    // Copies carry the primary only: cached secondaries are a per-handle
    // device-memory charge that must not silently double. The source's
    // primary is read through its published pointer, so copying is safe
    // against concurrent secondary materialisation on `other`.
    switch (other.primary_) {
        case Format::Csr:
            csr_ = std::make_unique<const CsrMatrix>(
                *other.csr_pub_.load(std::memory_order_acquire));
            break;
        case Format::BitBlocks:
            bb_ = std::make_unique<const BitBlockMatrix>(
                *other.bb_pub_.load(std::memory_order_acquire));
            break;
    }
    publish_primary();
    adopt_shape();
    version_ = other.version_;
}

Matrix& Matrix::operator=(const Matrix& other) {
    if (this != &other) {
        Matrix tmp{other};
        *this = std::move(tmp);
    }
    return *this;
}

Matrix::Matrix(Matrix&& other) noexcept { steal_from(other); }

Matrix& Matrix::operator=(Matrix&& other) noexcept {
    if (this != &other) {
        release_all();
        steal_from(other);
    }
    return *this;
}

Matrix::~Matrix() { release_all(); }

/// Moving requires exclusive access to both handles (use-after-move and
/// read-during-move are caller bugs no lock here could repair), so the slot
/// transfer runs unlocked; the analysis cannot see that contract.
void Matrix::steal_from(Matrix& other) noexcept SPBLA_NO_THREAD_SAFETY_ANALYSIS {
    ctx_ = other.ctx_;
    nrows_ = other.nrows_;
    ncols_ = other.ncols_;
    nnz_ = other.nnz_;
    primary_ = other.primary_;
    version_ = other.version_;
    csr_ = std::move(other.csr_);
    bb_ = std::move(other.bb_);
    for (std::size_t i = 0; i < kNumFormats; ++i) {
        charge_[i] = other.charge_[i];
        other.charge_[i] = SlotCharge{};
    }
    csr_pub_.store(csr_.get(), std::memory_order_relaxed);
    bb_pub_.store(bb_.get(), std::memory_order_relaxed);
    other.csr_pub_.store(nullptr, std::memory_order_relaxed);
    other.bb_pub_.store(nullptr, std::memory_order_relaxed);
    other.nnz_ = 0;
    other.version_ = 0;
}

std::uint64_t Matrix::next_version() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Matrix::publish_primary() noexcept {
    util::LockGuard lock{repr_mutex_};
    csr_pub_.store(csr_.get(), std::memory_order_release);
    bb_pub_.store(bb_.get(), std::memory_order_release);
}

template <class Fn>
decltype(auto) Matrix::visit_primary(Fn&& fn) const {
    if (primary_ == Format::BitBlocks) return fn(*bb_pub_.load(std::memory_order_acquire));
    return fn(*csr_pub_.load(std::memory_order_acquire));
}

void Matrix::adopt_shape() noexcept {
    visit_primary([this](const auto& m) {
        nrows_ = m.nrows();
        ncols_ = m.ncols();
        nnz_ = m.nnz();
    });
}

void Matrix::release_all() noexcept {
    util::LockGuard lock{repr_mutex_};
    for (std::size_t i = 0; i < kNumFormats; ++i) drop_slot(static_cast<Format>(i));
    csr_pub_.store(nullptr, std::memory_order_relaxed);
    bb_pub_.store(nullptr, std::memory_order_relaxed);
    csr_.reset();
    bb_.reset();
}

// ---------------------------------------------------------------------------
// Representation cache
// ---------------------------------------------------------------------------

bool Matrix::has_format(Format f) const noexcept {
    if (f == Format::BitBlocks) return bb_pub_.load(std::memory_order_acquire) != nullptr;
    return csr_pub_.load(std::memory_order_acquire) != nullptr;
}

void Matrix::store_secondary(Format f) const {
    const std::size_t bytes =
        f == Format::BitBlocks ? bb_->device_bytes() : csr_->device_bytes();
    // The charge always lands on the handle's own context: a conversion may
    // run on a borrowed context's pool, but the cached bytes live as long as
    // the handle, whose lifetime is bounded by its bound context.
    ctx_->tracker().on_alloc(bytes);
    charge_[static_cast<std::size_t>(f)] = SlotCharge{&ctx_->tracker(), bytes};
    storage::gauge_add(bytes);
    telemetry::count(telemetry::Counter::StorageCacheStores);
}

void Matrix::drop_slot(Format f) const noexcept {
    auto& charge = charge_[static_cast<std::size_t>(f)];
    if (charge.tracker == nullptr) return;
    charge.tracker->on_free(charge.bytes);
    storage::gauge_sub(charge.bytes);
    telemetry::count(telemetry::Counter::StorageCacheDrops);
    charge = SlotCharge{};
    // Retract the published pointer before destroying the rep so late
    // readers miss and fall through to the mutex (where they re-materialise)
    // instead of dereferencing a freed slot.
    if (f == Format::BitBlocks) {
        bb_pub_.store(nullptr, std::memory_order_relaxed);
        bb_.reset();
        return;
    }
    csr_pub_.store(nullptr, std::memory_order_relaxed);
    if (csr_ != nullptr) {
        // This handle uniquely owns the dropped rep (readers were retracted
        // above), so un-consting it to recycle its arrays through the
        // context's pool is safe — the next conversion re-acquires them in
        // O(1) instead of reallocating.
        auto [offsets, cols] = std::move(const_cast<CsrMatrix&>(*csr_)).release_raw();
        ctx_->buffer_pool().release(std::move(offsets));
        ctx_->buffer_pool().release(std::move(cols));
        csr_.reset();
    }
}

void Matrix::drop_cached() const noexcept {
    util::LockGuard lock{repr_mutex_};
    for (std::size_t i = 0; i < kNumFormats; ++i) {
        const auto f = static_cast<Format>(i);
        if (f != primary_) drop_slot(f);
    }
}

void Matrix::trim_cache() const noexcept {
    util::LockGuard lock{repr_mutex_};
    for (std::size_t i = 0; i < kNumFormats; ++i) {
        if (storage::cached_bytes() <= storage::cache_budget()) return;
        const auto f = static_cast<Format>(i);
        if (f != primary_) drop_slot(f);
    }
}

std::size_t Matrix::cached_bytes() const noexcept {
    util::LockGuard lock{repr_mutex_};
    std::size_t total = 0;
    for (const auto& charge : charge_) total += charge.bytes;
    return total;
}

std::size_t Matrix::device_bytes() const noexcept {
    return visit_primary([](const auto& m) { return m.device_bytes(); });
}

template <class T, class Convert>
void Matrix::fill(std::unique_ptr<const T>& slot, std::atomic<const T*>& pub, Format f,
                  [[maybe_unused]] const char* span, const Convert& convert) const {
    if (slot == nullptr) {
        SPBLA_PROF_SPAN(span);
        slot = visit_primary([&](const auto& primary) {
            // The primary's own slot is never empty, so a same-format
            // "conversion" cannot happen; the branch only keeps this generic.
            if constexpr (std::is_same_v<std::remove_cvref_t<decltype(primary)>, T>) {
                return std::make_unique<const T>(primary);
            } else {
                return std::make_unique<const T>(convert(primary));
            }
        });
        telemetry::count(telemetry::Counter::StorageConversions);
        store_secondary(f);
    }
    pub.store(slot.get(), std::memory_order_release);
}

void Matrix::materialise(Format f, backend::Context& ctx) const {
    if (f == Format::BitBlocks) {
        fill(bb_, bb_pub_, f, "storage.convert_to_bitblock",
             [&](const auto& m) { return to_bitblocks(ctx, m); });
    } else {
        fill(csr_, csr_pub_, f, "storage.convert_to_csr",
             [&](const auto& m) { return to_csr(ctx, m); });
    }
}

template <class T>
const T& Matrix::rep(Format f, const std::atomic<const T*>& pub,
                     backend::Context& ctx) const {
    if (const T* published = pub.load(std::memory_order_acquire)) {
        if (primary_ != f) {
            telemetry::count(telemetry::Counter::StorageCacheHits);
        }
        return *published;
    }
    util::LockGuard lock{repr_mutex_};
    materialise(f, ctx);
    return *pub.load(std::memory_order_relaxed);  // published under our lock
}

const CsrMatrix& Matrix::csr(backend::Context& ctx) const {
    return rep(Format::Csr, csr_pub_, ctx);
}

const BitBlockMatrix& Matrix::bitblocks(backend::Context& ctx) const {
    return rep(Format::BitBlocks, bb_pub_, ctx);
}

void Matrix::convert_to(Format f, backend::Context& ctx) {
    if (primary_ == f) return;
    util::LockGuard lock{repr_mutex_};
    // Materialise the target (charging it as a secondary for the moment)…
    materialise(f, ctx);
    // …then swap roles: the target's cache charge is released (it is now the
    // owned primary) while the old primary becomes a charged secondary.
    const auto target = static_cast<std::size_t>(f);
    auto& target_charge = charge_[target];
    if (target_charge.tracker != nullptr) {
        target_charge.tracker->on_free(target_charge.bytes);
        storage::gauge_sub(target_charge.bytes);
        target_charge = SlotCharge{};
    }
    store_secondary(primary_);
    primary_ = f;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

double Matrix::density() const noexcept {
    const auto cells = static_cast<double>(nrows_) * static_cast<double>(ncols_);
    return cells > 0.0 ? static_cast<double>(nnz_) / cells : 0.0;
}

bool Matrix::get(Index r, Index c) const {
    return visit_primary([&](const auto& m) { return m.get(r, c); });
}

std::vector<Coord> Matrix::to_coords() const {
    return visit_primary([](const auto& m) { return m.to_coords(); });
}

bool operator==(const Matrix& a, const Matrix& b) {
    if (a.nrows() != b.nrows() || a.ncols() != b.ncols() || a.nnz() != b.nnz())
        return false;
    // Every format exports coords in the same (row, col) order, so equality
    // is format-independent.
    return a.to_coords() == b.to_coords();
}

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
    SPBLA_REQUIRE(adds.nrows() == nrows_ && adds.ncols() == ncols_,
                  Status::DimensionMismatch, "apply_delta: insert delta shape");
    SPBLA_REQUIRE(removes.nrows() == nrows_ && removes.ncols() == ncols_,
                  Status::DimensionMismatch, "apply_delta: delete delta shape");
    if (adds.empty() && removes.empty()) return;  // no-op batch: stamp kept
    telemetry::count(telemetry::Counter::IncrBatches);
    telemetry::count(telemetry::Counter::IncrDeltaNnz,
                     adds.nnz() + removes.nnz());
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
