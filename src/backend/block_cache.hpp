/// \file block_cache.hpp
/// \brief Freed staging segments kept for the next op, per context.
///
/// The one-pass runner (ops/spgemm_plan.hpp) stages each chunk's rows in a
/// list of fixed-size segments instead of one buffer of the whole op's row
/// caps. Allocated from the heap, a large op's hundreds of segments grow the
/// heap and glibc trims it back when they are freed, so the next op pays the
/// sbrk calls and the page faults again (the one-worker SpGEMM ladder read
/// 2.3-2.45x against 3.5x with whole-op staging). The cache keeps the freed
/// segments for a later op of the same segment size, the analog of CUB's
/// caching device allocator in front of cudaMalloc.
///
/// Only power-of-two sizes are kept (a runner's full segments; a chunk's
/// last, partial segment is freed), at most kMaxBytes in all; a block past
/// the limit is freed. The memory tracker charges a cached block while it is
/// in use and not while it waits here, as a device pool's reserved bytes are
/// not its allocated bytes.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/thread_annotations.hpp"

namespace spbla::backend {

class BlockCache {
public:
    /// Bytes the cache holds at most.
    static constexpr std::size_t kMaxBytes = std::size_t{64} << 20;

    BlockCache() = default;
    BlockCache(const BlockCache&) = delete;
    BlockCache& operator=(const BlockCache&) = delete;

    /// A cached block of exactly \p bytes, or null when there is none.
    [[nodiscard]] std::unique_ptr<std::byte[]> take(std::size_t bytes) SPBLA_EXCLUDES(mutex_);

    /// Keeps \p block (\p bytes long) for a later take(), or frees it.
    void give(std::unique_ptr<std::byte[]> block, std::size_t bytes) noexcept
        SPBLA_EXCLUDES(mutex_);

    /// Bytes held for reuse.
    [[nodiscard]] std::size_t cached_bytes() const SPBLA_EXCLUDES(mutex_);

private:
    mutable util::Mutex mutex_;
    /// free_[b]: cached blocks of 2^b bytes.
    std::array<std::vector<std::unique_ptr<std::byte[]>>, 64> free_ SPBLA_GUARDED_BY(mutex_);
    std::size_t cached_ SPBLA_GUARDED_BY(mutex_){0};
};

}  // namespace spbla::backend
