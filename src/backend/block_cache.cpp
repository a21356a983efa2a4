#include "backend/block_cache.hpp"

#include <bit>

namespace spbla::backend {

std::unique_ptr<std::byte[]> BlockCache::take(std::size_t bytes) {
    if (!std::has_single_bit(bytes)) return nullptr;
    util::LockGuard lock{mutex_};
    auto& blocks = free_[std::countr_zero(bytes)];
    if (blocks.empty()) return nullptr;
    std::unique_ptr<std::byte[]> block = std::move(blocks.back());
    blocks.pop_back();
    cached_ -= bytes;
    return block;
}

void BlockCache::give(std::unique_ptr<std::byte[]> block, std::size_t bytes) noexcept {
    if (!std::has_single_bit(bytes)) return;
    util::LockGuard lock{mutex_};
    if (cached_ + bytes > kMaxBytes) return;
    try {
        free_[std::countr_zero(bytes)].push_back(std::move(block));
        cached_ += bytes;
    } catch (...) {
        // No room to list the block: it is freed instead.
    }
}

std::size_t BlockCache::cached_bytes() const {
    util::LockGuard lock{mutex_};
    return cached_;
}

}  // namespace spbla::backend
