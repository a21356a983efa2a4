/// \file arena.hpp
/// \brief Scoped bump arenas and the pooled tile-buffer free lists.
///
/// Kernel scratch (per-row SpGEMM accumulators, conversion cursors) used to churn raw std::vectors through the general allocator on
/// every row and tile — invisible to MemoryTracker and paid in
/// malloc/free on the hottest paths. This header provides the two memory
/// tiers that replace that churn:
///
///   Arena / ScopedArena / ArenaVector — bump allocation inside an op scope,
///     wholesale reset at scope exit. Each thread gets its own Arena (see
///     ArenaHub), so pool workers never contend; scopes nest (re-entrant for
///     ops calling ops) by rewinding to the mark taken at scope entry. Slabs
///     are retained across resets and reused, so a warmed-up kernel performs
///     zero allocator traffic.
///
///   BufferPool — size-classed free lists for long-lived index buffers that
///     outlive one op (kernel output arrays). Releasing a buffer returns it
///     in O(1); the next acquire of its size class re-uses it.
///
/// Tracker veneer: a slab is counted once by MemoryTracker::on_alloc at its
/// reserve and once by on_free at trim; in between, the arena charges the
/// slab bytes while any scratch is live and uncharges them when the outermost
/// scope exits, so current_bytes()/peak_bytes() (and the telemetry peak
/// gauge) cover scratch exactly while leak checks stay exact — a context
/// whose arenas are quiescent reads the same balance as before the op ran.
/// Pool-held buffers are deliberately *not* tracker-charged (they are free
/// memory, like the heap); their footprint is the spbla.arena.pool_held_bytes
/// gauge.
///
/// SPBLA_ARENA=off (or backend::set_arena_enabled(false)) switches every
/// arena into a pass-through mode that forwards each allocation to the heap
/// and charges the tracker per allocation — the ablation the bench ladders
/// use to report the allocation-count reduction.
///
/// Checked builds keep DeviceBuffer's poison contract: at SPBLA_CHECKS=full
/// every byte an arena hands out is 0xA5-filled on allocation and again on
/// scope reset, so use-before-write and use-after-reset read poison.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/memory_tracker.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace spbla::backend {

/// Global arena switch (default on; SPBLA_ARENA=off|0 disables at startup).
/// In pass-through mode arenas forward to the heap and charge the tracker
/// per allocation. Toggleable at runtime from quiescent points so the bench
/// ablation can compare both modes in one process.
[[nodiscard]] bool arena_enabled() noexcept;
void set_arena_enabled(bool enabled) noexcept;

/// A single-owner-thread bump allocator over retained slabs.
///
/// Not thread-safe by design: each thread allocates only from its own arena
/// (ArenaHub::local()), which is what makes the fast path two additions and
/// no atomics. Cross-thread access is limited to the quiescent maintenance
/// entry points (trim, stats) — callers synchronise via pool joins.
class Arena {
public:
    explicit Arena(MemoryTracker* tracker) noexcept : tracker_{tracker} {}
    ~Arena() { trim(); }

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /// A rewind point: everything allocated after mark() is reclaimed by
    /// rewind(). Taken/consumed by ScopedArena.
    struct Mark {
        std::size_t slab;         ///< slab cursor at scope entry
        std::size_t offset;       ///< bump offset within that slab
        std::size_t used;         ///< total live bytes at scope entry
        std::size_t passthrough;  ///< pass-through entry count at scope entry
    };

    /// Bump-allocate \p bytes aligned to \p align. Never returns nullptr
    /// (throws std::bad_alloc on slab exhaustion like the heap would).
    /// Contents are undefined — 0xA5 poison at SPBLA_CHECKS=full.
    [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

    [[nodiscard]] Mark mark() const noexcept {
        return Mark{cursor_, cursor_ < slabs_.size() ? slabs_[cursor_].used : 0,
                    used_, passthrough_.size()};
    }

    /// Reclaim everything allocated since \p m (wholesale, O(slabs touched)).
    void rewind(const Mark& m) noexcept;

    /// Scope nesting, maintained by ScopedArena. When the outermost scope
    /// exits with no live bytes the arena settles: retained slab bytes are
    /// uncharged from the tracker until scratch is next needed.
    void enter_scope() noexcept { ++depth_; }
    void exit_scope() noexcept {
        SPBLA_ASSERT(depth_ > 0, "Arena: unbalanced scope exit");
        if (--depth_ == 0) settle();
    }

    /// Release all retained slabs back to the heap (and balance the tracker).
    /// Only legal at quiescence — no live scope, nothing allocated.
    void trim() noexcept;

    [[nodiscard]] std::size_t used() const noexcept { return used_; }
    [[nodiscard]] std::size_t reserved() const noexcept { return reserved_; }
    [[nodiscard]] std::size_t slab_count() const noexcept { return slabs_.size(); }
    [[nodiscard]] int depth() const noexcept { return depth_; }

private:
    struct Slab {
        std::vector<std::byte> mem;  ///< storage (vector keeps raw new/delete out)
        std::size_t used{0};         ///< bump offset
    };

    void* bump(std::size_t bytes, std::size_t align);
    void* passthrough_allocate(std::size_t bytes);
    void reserve_slab(std::size_t at_least);
    void settle() noexcept;
    void poison_tail(const Mark& m) noexcept;

    MemoryTracker* tracker_;
    std::vector<Slab> slabs_;
    std::size_t cursor_{0};    ///< index of the slab currently bumped
    std::size_t used_{0};      ///< live bytes across all slabs (incl. padding)
    std::size_t reserved_{0};  ///< total slab capacity
    int depth_{0};             ///< live ScopedArena nesting
    bool charged_{false};      ///< reserved_ currently counted in the tracker
    /// Pass-through mode: individually tracked heap blocks, freed on rewind.
    std::vector<std::vector<std::byte>> passthrough_;
};

/// RAII op/chunk scope on one arena: marks at entry, rewinds (and counts a
/// spbla.arena.resets) at exit. Re-entrant — nested ops stack their marks.
class ScopedArena {
public:
    explicit ScopedArena(Arena& arena) noexcept
        : arena_{arena}, mark_{arena.mark()} {
        arena_.enter_scope();
    }

    ~ScopedArena() {
        telemetry::gauge_max(telemetry::Gauge::ArenaUsedBytes,
                             static_cast<std::int64_t>(arena_.used()));
        arena_.rewind(mark_);
        arena_.exit_scope();
        telemetry::count(telemetry::Counter::ArenaResets);
    }

    ScopedArena(const ScopedArena&) = delete;
    ScopedArena& operator=(const ScopedArena&) = delete;

    [[nodiscard]] Arena& arena() noexcept { return arena_; }

private:
    Arena& arena_;
    Arena::Mark mark_;
};

/// std::allocator shim over an Arena. deallocate() is a no-op — memory comes
/// back wholesale at the enclosing ScopedArena reset, which is exactly why a
/// container using it must not escape its scope.
template <class T>
class ArenaAllocator {
public:
    using value_type = T;
    using propagate_on_container_copy_assignment = std::true_type;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    explicit ArenaAllocator(Arena& arena) noexcept : arena_{&arena} {}

    template <class U>
    ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_{other.arena_} {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    void deallocate(T*, std::size_t) noexcept {}

    template <class U>
    [[nodiscard]] bool operator==(const ArenaAllocator<U>& o) const noexcept {
        return arena_ == o.arena_;
    }
    template <class U>
    [[nodiscard]] bool operator!=(const ArenaAllocator<U>& o) const noexcept {
        return arena_ != o.arena_;
    }

    Arena* arena_;  ///< public so the rebind conversion above can read it
};

/// Scratch vector on an op arena: construct with ArenaVector<T> v{alloc} and
/// reuse (assign/resize) across rows within the scope.
template <class T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Per-context registry handing each thread its own Arena.
///
/// Lookup is a thread_local cache keyed by a process-unique hub id (so a
/// worker serving many contexts caches one arena per context, and entries
/// for destroyed hubs can never falsely match); misses fall back to a
/// mutex-guarded map keyed by thread.
class ArenaHub {
public:
    explicit ArenaHub(MemoryTracker* tracker);
    ~ArenaHub();

    ArenaHub(const ArenaHub&) = delete;
    ArenaHub& operator=(const ArenaHub&) = delete;

    /// The calling thread's arena (created on first use).
    [[nodiscard]] Arena& local();

    /// Trim every arena. Quiescent only: all scopes closed, pool joined.
    void trim() noexcept SPBLA_EXCLUDES(mu_);

    /// Aggregate stats (quiescent only, same caveat as trim()).
    [[nodiscard]] std::size_t reserved_bytes() const SPBLA_EXCLUDES(mu_);
    [[nodiscard]] std::size_t used_bytes() const SPBLA_EXCLUDES(mu_);
    [[nodiscard]] std::size_t arena_count() const SPBLA_EXCLUDES(mu_);

private:
    MemoryTracker* tracker_;
    const std::uint64_t id_;  ///< process-unique, never reused
    mutable util::Mutex mu_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Arena>> arenas_
        SPBLA_GUARDED_BY(mu_);
};

/// Size-classed free lists for index buffers that outlive one op (cached CSR
/// representations, kernel output arrays). Class c parks vectors whose
/// capacity is in [2^c, 2^(c+1)); acquire(n) serves from the first class
/// whose every member fits n. Thread-safe (ops on different pool threads
/// release tiles concurrently); held buffers are outside the tracker and
/// capped at kMaxHeldBytes — releases beyond the cap free to the heap.
///
/// The element type is std::uint32_t == spbla::Index, asserted at every use
/// site; pooling exactly the CSR array type keeps acquire/release moves
/// allocation-free.
class BufferPool {
public:
    using Buffer = std::vector<std::uint32_t>;

    BufferPool() = default;
    ~BufferPool() { trim(); }

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /// A buffer of size \p n, contents unspecified (stale values possible —
    /// callers must fully overwrite). 0xA5-poisoned at SPBLA_CHECKS=full.
    [[nodiscard]] Buffer acquire(std::size_t n) SPBLA_EXCLUDES(mu_);

    /// A buffer of size \p n, zero-filled (the row-offset contract).
    [[nodiscard]] Buffer acquire_zeroed(std::size_t n) SPBLA_EXCLUDES(mu_);

    /// Park \p b for reuse (or free it, above the held-bytes cap).
    void release(Buffer&& b) noexcept SPBLA_EXCLUDES(mu_);

    /// Free every parked buffer.
    void trim() noexcept SPBLA_EXCLUDES(mu_);

    [[nodiscard]] std::uint64_t hits() const noexcept {
        return hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t misses() const noexcept {
        return misses_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t held_bytes() const SPBLA_EXCLUDES(mu_);

private:
    /// Everything past this parks on the heap instead (per-pool cap).
    static constexpr std::size_t kMaxHeldBytes = std::size_t{256} << 20;
    static constexpr std::size_t kNumClasses = 48;

    mutable util::Mutex mu_;
    std::vector<Buffer> classes_[kNumClasses] SPBLA_GUARDED_BY(mu_);
    std::size_t held_bytes_ SPBLA_GUARDED_BY(mu_){0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

}  // namespace spbla::backend
