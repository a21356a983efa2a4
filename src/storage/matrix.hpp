/// \file matrix.hpp
/// \brief Format-polymorphic Boolean matrix handle — the storage engine.
///
/// A spbla::Matrix owns one *primary* representation, CSR (the cuBool
/// format) or the 64x64 bit-block grid, and may cache the other after a
/// conversion, so that repeated dispatches to the same format pay the
/// conversion once. Cached secondaries are charged to the converting
/// Context's MemoryTracker (the simulated device memory), live under a
/// process-wide byte budget, are invalidated whenever the handle's content
/// changes, and are released — and therefore leak-checked — before Context
/// teardown like any other device allocation.
///
/// The paper's COO (clBool) format and the dense bitmap are not handle
/// representations: no paper workload's dispatch picked the dense bitmap,
/// and COO took a handful of tiny ops. CooMatrix remains a core structure
/// for the footprint comparison, DenseMatrix the tests' reference oracle.
///
/// The handle deliberately exposes *no* mutable access to a concrete format:
/// layers above (capi, algorithms, cfpq, rpq) operate on Matrix through the
/// dispatch layer (storage/dispatch.hpp), which picks the representation per
/// operation with a cost model. Kernel code (src/ops, src/baseline) keeps
/// working on the concrete classes it always had.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "backend/context.hpp"
#include "core/bitblocks.hpp"
#include "core/csr.hpp"
#include "core/spvector.hpp"
#include "util/thread_annotations.hpp"

namespace spbla {

/// Storage representation of a Boolean matrix.
enum class Format : std::uint8_t {
    Csr = 0,       ///< compressed sparse row (the cuBool format)
    BitBlocks = 1, ///< sparse grid of 64x64-bit tiles (broadword kernel tier)
};

inline constexpr std::size_t kNumFormats = 2;

[[nodiscard]] constexpr const char* format_name(Format f) noexcept {
    switch (f) {
        case Format::Csr: return "csr";
        case Format::BitBlocks: return "bitblock";
    }
    return "unknown";
}

namespace storage {

// Conversions and cache events are counted once each, as the telemetry
// counters spbla.storage.{conversions,cache_hits,cache_stores,cache_drops}
// (with spbla::prof per-span mirrors of conversions and hits); per-format
// dispatch picks are the spbla.dispatch.<format> counters.

/// Bytes of cached secondary representations currently alive process-wide.
[[nodiscard]] std::size_t cached_bytes() noexcept;

/// Budget for cached secondary representations (process-wide, bytes).
/// Handles stop retaining conversions once the gauge exceeds the budget;
/// dispatch additionally trims caches back under it after each operation.
[[nodiscard]] std::size_t cache_budget() noexcept;
void set_cache_budget(std::size_t bytes) noexcept;

/// Dispatch-wide format override — the spbla_SetFormatHint escape hatch and
/// the lever the format-sweep tests and benchmarks use. Auto restores the
/// cost model.
enum class FormatHint : std::uint8_t {
    Auto = 0,
    ForceCsr = 1,
    ForceBitBlocks = 2,
};

[[nodiscard]] FormatHint global_hint() noexcept;
void set_global_hint(FormatHint hint) noexcept;

/// RAII override of the global hint (used by tests/bench sweeps).
class ScopedHint {
public:
    explicit ScopedHint(FormatHint hint) : prev_{global_hint()} {
        set_global_hint(hint);
    }
    ~ScopedHint() { set_global_hint(prev_); }
    ScopedHint(const ScopedHint&) = delete;
    ScopedHint& operator=(const ScopedHint&) = delete;

private:
    FormatHint prev_;
};

}  // namespace storage

/// Value-semantic Boolean matrix handle with format-polymorphic storage,
/// bound to an execution context. This is both the storage-engine handle the
/// C API wraps and the high-level C++ facade (operators for the Boolean
/// semiring: `*` = multiply, `+` = element-wise or, `kron`).
class Matrix {
public:
    /// Empty matrix of the given shape (primary representation: CSR).
    Matrix(Index nrows, Index ncols, backend::Context& ctx = backend::default_context());

    Matrix() : Matrix(0, 0) {}

    /// Adopt a concrete representation as the primary.
    explicit Matrix(CsrMatrix data, backend::Context& ctx = backend::default_context());
    explicit Matrix(BitBlockMatrix data, backend::Context& ctx = backend::default_context());

    /// Build from a coordinate list (duplicates collapse); CSR primary.
    static Matrix from_coords(Index nrows, Index ncols, std::vector<Coord> coords,
                              backend::Context& ctx = backend::default_context());

    /// Identity matrix.
    static Matrix identity(Index n, backend::Context& ctx = backend::default_context());

    /// Copies carry the primary representation only; cached secondaries stay
    /// with the source (they are a per-handle device-memory charge).
    Matrix(const Matrix& other);
    Matrix& operator=(const Matrix& other);
    Matrix(Matrix&& other) noexcept;
    Matrix& operator=(Matrix&& other) noexcept;
    ~Matrix();

    [[nodiscard]] Index nrows() const noexcept { return nrows_; }
    [[nodiscard]] Index ncols() const noexcept { return ncols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }
    [[nodiscard]] bool empty() const noexcept { return nnz_ == 0; }
    [[nodiscard]] double density() const noexcept;
    [[nodiscard]] bool get(Index r, Index c) const;
    [[nodiscard]] std::vector<Coord> to_coords() const;
    [[nodiscard]] backend::Context& context() const noexcept { return *ctx_; }

    /// Format of the primary (owned) representation.
    [[nodiscard]] Format format() const noexcept { return primary_; }

    /// True iff a representation in \p f is materialised on this handle.
    [[nodiscard]] bool has_format(Format f) const noexcept;

    /// Content version of this handle: a process-unique stamp assigned when
    /// the cell set is (re)built and carried across copies/moves of the same
    /// content. Any mutation (assignment, `+=`, `multiply_add`) installs a
    /// fresh stamp, so derived caches — e.g. the incr layer's op memo —
    /// compare versions to detect staleness. 0 only on moved-from handles
    /// (never considered current).
    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

    /// Representation accessors. If the requested format is not materialised
    /// the primary is converted through core/convert (parallel, on \p ctx);
    /// the conversion result is retained as a cached secondary — charged to
    /// the handle's own context's MemoryTracker — while the process-wide
    /// cache gauge is under budget, and dropped after use otherwise (see
    /// dispatch's trim pass). References stay valid until the handle is
    /// mutated, trimmed or destroyed.
    ///
    /// Safe to call concurrently with other const member functions, including
    /// concurrent *first* materialisation of the same or different formats:
    /// each slot is published through an atomic pointer (the per-slot latch),
    /// and the losing threads of a materialisation race wait on the handle's
    /// repr mutex and then reuse the winner's conversion — it is never run
    /// twice, so the tracker is charged exactly once. An already-materialised
    /// representation is returned with a single acquire load (no lock).
    /// Mutation (assignment, convert_to, +=, multiply_add, destruction) still
    /// requires exclusive access to the handle, like any value type.
    [[nodiscard]] const CsrMatrix& csr(backend::Context& ctx) const;
    [[nodiscard]] const BitBlockMatrix& bitblocks(backend::Context& ctx) const;

    /// Convenience accessors on the handle's own context.
    [[nodiscard]] const CsrMatrix& csr() const { return csr(*ctx_); }
    [[nodiscard]] const BitBlockMatrix& bitblocks() const { return bitblocks(*ctx_); }

    /// Column indices of row \p r (sorted). Materialises the CSR rep.
    [[nodiscard]] std::span<const Index> row(Index r) const { return csr().row(r); }

    /// Re-anchor the primary representation to \p f (converting if needed).
    /// The previous primary remains available as a cached secondary.
    void convert_to(Format f, backend::Context& ctx);
    void convert_to(Format f) { convert_to(f, *ctx_); }

    /// Apply an insert/delete batch in place:
    /// this := (this \ removes) | adds — delete-then-insert, so a cell named
    /// by both deltas ends up present. Both deltas must match this shape.
    /// A no-op batch (both deltas empty) keeps the content stamp; any other
    /// batch installs a fresh version() even when the resulting cell set is
    /// value-equal, so every version-keyed derived cache (the incr layer's op
    /// memo) treats the handle as new content.
    void apply_delta(const Matrix& adds, const Matrix& removes, backend::Context& ctx);
    void apply_delta(const Matrix& adds, const Matrix& removes) {
        apply_delta(adds, removes, *ctx_);
    }

    /// Release cached secondary representations (and their tracker charge).
    /// Not safe against readers concurrently holding accessor references.
    void drop_cached() const noexcept SPBLA_EXCLUDES(repr_mutex_);

    /// Release cached secondaries while the process-wide gauge exceeds the
    /// budget. Called by dispatch after each routed operation.
    void trim_cache() const noexcept SPBLA_EXCLUDES(repr_mutex_);

    /// Bytes of cached secondaries currently charged by this handle.
    [[nodiscard]] std::size_t cached_bytes() const noexcept
        SPBLA_EXCLUDES(repr_mutex_);

    /// Simulated device footprint of the primary representation.
    [[nodiscard]] std::size_t device_bytes() const noexcept;

    // ---- facade sugar (routes through storage/dispatch.cpp) ----

    /// this := this | other (the paper's M += N).
    Matrix& operator+=(const Matrix& other);

    /// this := this | a * b (the paper's C += M x N fused form).
    Matrix& multiply_add(const Matrix& a, const Matrix& b);

    [[nodiscard]] friend Matrix operator+(const Matrix& a, const Matrix& b) {
        return Matrix::add(a, b);
    }
    [[nodiscard]] friend Matrix operator*(const Matrix& a, const Matrix& b) {
        return Matrix::mul(a, b);
    }

    /// Kronecker product K = this (x) other.
    [[nodiscard]] Matrix kron(const Matrix& other) const;

    /// Transpose.
    [[nodiscard]] Matrix transposed() const;

    /// Sub-matrix extraction M = this[r0..r0+m, c0..c0+n].
    [[nodiscard]] Matrix submatrix(Index r0, Index c0, Index m, Index n) const;

    /// V = reduceToColumn(this).
    [[nodiscard]] SpVector reduce_to_column() const;

    /// Structural equality (format-independent: same shape, same cells).
    friend bool operator==(const Matrix& a, const Matrix& b);

private:
    static Matrix add(const Matrix& a, const Matrix& b);
    static Matrix mul(const Matrix& a, const Matrix& b);

    /// Charge/release accounting for one cached secondary slot.
    struct SlotCharge {
        backend::MemoryTracker* tracker{nullptr};
        std::size_t bytes{0};
    };

    static std::uint64_t next_version() noexcept;  // process-unique, never 0

    void adopt_shape() noexcept;    // refresh nrows_/ncols_/nnz_ from primary
    void publish_primary() noexcept;  // expose the primary slot lock-free
    void release_all() noexcept SPBLA_EXCLUDES(repr_mutex_);
    void steal_from(Matrix& other) noexcept;  // move guts (ctor/assign body)
    void store_secondary(Format f) const SPBLA_REQUIRES(repr_mutex_);
    void drop_slot(Format f) const noexcept SPBLA_REQUIRES(repr_mutex_);

    /// Materialise format \p f (converting from the primary on \p ctx) and
    /// publish it through its atomic slot pointer. Idempotent.
    void materialise(Format f, backend::Context& ctx) const
        SPBLA_REQUIRES(repr_mutex_);

    /// materialise() for one slot: if \p slot is empty, fill it with
    /// \p convert applied to the primary (under prof span \p span) and
    /// charge it as a secondary; then publish it through \p pub.
    template <class T, class Convert>
    void fill(std::unique_ptr<const T>& slot, std::atomic<const T*>& pub, Format f,
              const char* span, const Convert& convert) const SPBLA_REQUIRES(repr_mutex_);

    /// Body of the representation accessors: \p pub's rep, materialised
    /// as format \p f on a miss.
    template <class T>
    const T& rep(Format f, const std::atomic<const T*>& pub, backend::Context& ctx) const
        SPBLA_EXCLUDES(repr_mutex_);

    /// \p fn applied to the published primary representation.
    template <class Fn>
    decltype(auto) visit_primary(Fn&& fn) const;

    backend::Context* ctx_;
    Index nrows_{0};
    Index ncols_{0};
    std::size_t nnz_{0};
    Format primary_{Format::Csr};
    std::uint64_t version_{0};  // content stamp; see version()

    /// Guards slot ownership and cache charges; held only while
    /// materialising, dropping or moving representations — every read goes
    /// through the atomic published pointers below. Leaf lock: no
    /// other spbla mutex is ever acquired while it is held (the conversions
    /// it covers launch onto the pool, whose own mutex is release-before-run).
    mutable util::Mutex repr_mutex_;

    // One ownership slot per Format; primary_ names the owned one, any other
    // non-null slot is a cached secondary with its charge recorded below.
    mutable std::unique_ptr<const CsrMatrix> csr_ SPBLA_GUARDED_BY(repr_mutex_);
    mutable std::unique_ptr<const BitBlockMatrix> bb_ SPBLA_GUARDED_BY(repr_mutex_);
    mutable SlotCharge charge_[kNumFormats] SPBLA_GUARDED_BY(repr_mutex_) {};

    // Per-slot latches: a slot becomes readable the instant its pointer is
    // release-published here; readers take one acquire load and never the
    // mutex. Null means "not materialised — take the mutex and convert".
    mutable std::atomic<const CsrMatrix*> csr_pub_{nullptr};
    mutable std::atomic<const BitBlockMatrix*> bb_pub_{nullptr};
};

}  // namespace spbla
