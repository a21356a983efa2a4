/// \file device_buffer.hpp
/// \brief RAII array living in (simulated) device memory.
///
/// In cuBool this is a cudaMalloc'd array; here it is host memory whose size
/// is charged against the owning context's MemoryTracker, so the benchmark
/// harness can report the same footprint numbers the paper does. Kernel
/// scratch and op-level buffers alike are DeviceBuffers from Context::alloc,
/// sized exactly and freed when they go out of scope, so the tracker's live
/// and peak bytes are the bytes the kernels asked for. A buffer made with a
/// BlockCache (Context::alloc_segment) takes its block from the cache and
/// hands it back on release instead of freeing it; it is charged the same.
///
/// Contract checking: element access is bounds-asserted at SPBLA_CHECKS=cheap
/// and above. Contents start undefined, as real cudaMalloc'd memory does: at
/// SPBLA_CHECKS=full the storage is poison-filled on allocation and release,
/// so kernels that read device scratch before writing it (or after freeing
/// it) compute from 0xA5 garbage instead of silently correct zeroes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <new>  // lint:allow(raw-new-delete): placement new below
#include <type_traits>
#include <utility>

#include "backend/block_cache.hpp"
#include "backend/memory_tracker.hpp"
#include "util/contracts.hpp"

namespace spbla::backend {

/// Byte written over checked-build allocations before first use and after
/// release; chosen to form implausible indices/counters when interpreted.
inline constexpr unsigned char kPoisonByte = 0xA5;

/// Fixed-capacity trivially-copyable array charged to a MemoryTracker.
template <class T>
class DeviceBuffer {
    static_assert(std::is_trivially_copyable_v<T>,
                  "device buffers hold trivially-copyable elements only");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "device buffers store their elements in a new[] byte block");

public:
    DeviceBuffer() noexcept = default;

    DeviceBuffer(MemoryTracker* tracker, std::size_t count)
        : DeviceBuffer{tracker, nullptr, count} {}

    /// A buffer whose storage is a block of \p cache when it holds one of
    /// this size, and goes back to \p cache (nullable) on release.
    DeviceBuffer(MemoryTracker* tracker, BlockCache* cache, std::size_t count)
        : tracker_{tracker}, cache_{cache}, size_{count} {
        // The byte count must not wrap, as new T[count] would have checked.
        if (count > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
            throw std::bad_array_new_length{};
        }
        if (cache_ != nullptr) block_ = cache_->take(bytes());
        if (!block_) block_ = std::make_unique_for_overwrite<std::byte[]>(bytes());
        // Placement new starts the elements' lifetimes in the block, which a
        // cached block may have held other elements in; it allocates nothing.
        data_ = ::new (static_cast<void*>(block_.get())) T[count];  // lint:allow(raw-new-delete)
        if (tracker_) tracker_->on_alloc(bytes());
        SPBLA_CHECKED(poison());
    }

    DeviceBuffer(const DeviceBuffer& other) : DeviceBuffer{other.tracker_, other.size_} {
        std::copy(other.begin(), other.end(), begin());
    }

    DeviceBuffer(DeviceBuffer&& other) noexcept
        : tracker_{std::exchange(other.tracker_, nullptr)},
          cache_{std::exchange(other.cache_, nullptr)},
          block_{std::move(other.block_)},
          data_{std::exchange(other.data_, nullptr)},
          size_{std::exchange(other.size_, 0)} {}

    DeviceBuffer& operator=(DeviceBuffer other) noexcept {
        swap(other);
        return *this;
    }

    ~DeviceBuffer() { release(); }

    void swap(DeviceBuffer& other) noexcept {
        std::swap(tracker_, other.tracker_);
        std::swap(cache_, other.cache_);
        block_.swap(other.block_);
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
    }

    /// Free the storage (or hand it back to its cache) and un-charge the
    /// tracker.
    void release() noexcept {
        SPBLA_CHECKED(poison());
        if (tracker_) tracker_->on_free(bytes());
        if (cache_ != nullptr && block_) cache_->give(std::move(block_), bytes());
        tracker_ = nullptr;
        cache_ = nullptr;
        block_.reset();
        data_ = nullptr;
        size_ = 0;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t bytes() const noexcept { return size_ * sizeof(T); }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    [[nodiscard]] T* data() noexcept { return data_; }
    [[nodiscard]] const T* data() const noexcept { return data_; }

    [[nodiscard]] T& operator[](std::size_t i) noexcept {
        SPBLA_ASSERT(i < size_, "DeviceBuffer: index out of bounds");
        return data_[i];
    }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
        SPBLA_ASSERT(i < size_, "DeviceBuffer: index out of bounds");
        return data_[i];
    }

    [[nodiscard]] T* begin() noexcept { return data(); }
    [[nodiscard]] T* end() noexcept { return data() + size_; }
    [[nodiscard]] const T* begin() const noexcept { return data(); }
    [[nodiscard]] const T* end() const noexcept { return data() + size_; }

private:
    void poison() noexcept {
        if (size_ > 0) std::memset(data(), kPoisonByte, bytes());
    }

    MemoryTracker* tracker_{nullptr};
    BlockCache* cache_{nullptr};
    std::unique_ptr<std::byte[]> block_;  ///< the storage data_ points into
    T* data_{nullptr};
    std::size_t size_{0};
};

}  // namespace spbla::backend
