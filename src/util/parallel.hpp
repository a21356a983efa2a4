/// \file parallel.hpp
/// \brief Data-parallel primitives (the "kernel launch" surface).
///
/// These functions are the reproduction's analog of CUDA grid launches and
/// Thrust algorithms used by cuBool: parallel_for_chunks replaces a
/// one-thread-per-row kernel (each chunk body loops over its rows inline),
/// exclusive_scan replaces thrust::exclusive_scan. A null pool or a
/// single-worker pool degrades to plain sequential loops, which stands in
/// for SPbLA's CPU fallback backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.hpp"

namespace spbla::util {

/// Partition [0, n) into contiguous chunks of at least \p grain elements and
/// run \p body(begin, end) on each chunk, claimed as tickets off \p pool's
/// atomic counter (ThreadPool::run_dynamic), so a heavy chunk never stalls
/// the rest of the range behind it. Blocks until complete. With pool ==
/// nullptr the body runs once on the full range.
void parallel_for_chunks(ThreadPool* pool, std::size_t n, std::size_t grain,
                         const std::function<void(std::size_t, std::size_t)>& body);

/// In-place exclusive prefix sum over \p data; returns the total sum.
/// data[i] becomes sum of original data[0..i). Mirrors thrust::exclusive_scan.
std::uint64_t exclusive_scan(std::vector<std::uint32_t>& data);

/// Exclusive prefix sum of 64-bit counters.
std::uint64_t exclusive_scan(std::vector<std::uint64_t>& data);

/// Parallel exclusive prefix sum: per-chunk partial sums, a sequential scan
/// of the chunk totals, then a parallel offset fixup — the classic two-level
/// GPU scan. Falls back to the sequential scan for small inputs or a null /
/// single-worker pool. Semantics match the sequential overload exactly.
std::uint64_t exclusive_scan(ThreadPool* pool, std::vector<std::uint32_t>& data);

}  // namespace spbla::util
