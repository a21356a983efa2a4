/// \file device_buffer.hpp
/// \brief RAII array living in (simulated) device memory.
///
/// In cuBool this is a cudaMalloc'd array; here it is host memory whose size
/// is charged against the owning context's MemoryTracker, so the benchmark
/// harness can report the same footprint numbers the paper does. Kernel
/// scratch and op-level buffers alike are DeviceBuffers from Context::alloc,
/// sized exactly and freed when they go out of scope, so the tracker's live
/// and peak bytes are the bytes the kernels asked for.
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
#include <memory>
#include <type_traits>
#include <utility>

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

public:
    DeviceBuffer() noexcept = default;

    DeviceBuffer(MemoryTracker* tracker, std::size_t count)
        : tracker_{tracker}, data_{std::make_unique_for_overwrite<T[]>(count)}, size_{count} {
        if (tracker_) tracker_->on_alloc(bytes());
        SPBLA_CHECKED(poison());
    }

    DeviceBuffer(const DeviceBuffer& other) : DeviceBuffer{other.tracker_, other.size_} {
        std::copy(other.begin(), other.end(), begin());
    }

    DeviceBuffer(DeviceBuffer&& other) noexcept
        : tracker_{std::exchange(other.tracker_, nullptr)},
          data_{std::move(other.data_)},
          size_{std::exchange(other.size_, 0)} {}

    DeviceBuffer& operator=(DeviceBuffer other) noexcept {
        swap(other);
        return *this;
    }

    ~DeviceBuffer() { release(); }

    void swap(DeviceBuffer& other) noexcept {
        std::swap(tracker_, other.tracker_);
        data_.swap(other.data_);
        std::swap(size_, other.size_);
    }

    /// Free the storage and un-charge the tracker.
    void release() noexcept {
        SPBLA_CHECKED(poison());
        if (tracker_) tracker_->on_free(bytes());
        tracker_ = nullptr;
        data_.reset();
        size_ = 0;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t bytes() const noexcept { return size_ * sizeof(T); }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    [[nodiscard]] T* data() noexcept { return data_.get(); }
    [[nodiscard]] const T* data() const noexcept { return data_.get(); }

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
    std::unique_ptr<T[]> data_;
    std::size_t size_{0};
};

}  // namespace spbla::backend
