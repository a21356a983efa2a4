#include "util/parallel.hpp"

#include <algorithm>

#include "prof/prof.hpp"
#include "util/bit_ops.hpp"

namespace spbla::util {
namespace {

/// Bound on tickets per dynamic launch: past this, claim overhead dominates
/// any balance gain, so chunks are widened instead.
constexpr std::size_t kMaxDynamicChunks = 1u << 14;

void dispatch_chunks(ThreadPool* pool, std::size_t n, std::size_t chunk,
                     const std::function<void(std::size_t, std::size_t)>& body,
                     Schedule schedule) {
    if (schedule == Schedule::Dynamic) {
        const std::size_t tickets = ceil_div(n, chunk);
        pool->run_dynamic(tickets, [&body, chunk, n](std::size_t t) {
            const std::size_t begin = t * chunk;
            body(begin, std::min(begin + chunk, n));
        });
        return;
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(ceil_div(n, chunk));
    for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::size_t end = begin + chunk < n ? begin + chunk : n;
        jobs.emplace_back([&body, begin, end] { body(begin, end); });
    }
    pool->submit_many(std::move(jobs));
    pool->wait_idle();
}

}  // namespace

void parallel_for_chunks(ThreadPool* pool, std::size_t n, std::size_t grain,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         Schedule schedule) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t workers = pool ? pool->size() : 1;
    std::size_t chunk = grain;
    if (schedule == Schedule::Static) {
        // FIFO assignment cannot rebalance, so over-decomposing only adds
        // queue traffic: cap at a few chunks per worker.
        const std::size_t max_chunks = workers * 4;
        if (ceil_div(n, chunk) > max_chunks) chunk = ceil_div(n, max_chunks);
    } else if (ceil_div(n, chunk) > kMaxDynamicChunks) {
        chunk = ceil_div(n, kMaxDynamicChunks);
    }
    if (pool == nullptr || workers == 1 || n <= chunk) {
        body(0, n);
        return;
    }
    // Workers inherit the launcher's innermost span, so a chunk run on the
    // pool shows up in the trace under the op that launched it.
    if constexpr (prof::kCompiledLevel >= SPBLA_PROFILE_COUNTERS) {
        if (prof::counting()) {
            const prof::SiteId site = prof::current_span_site();
            if (site != prof::kNoSite) {
                const std::uint32_t launcher = telemetry::thread_id();
                dispatch_chunks(
                    pool, n, chunk,
                    [&body, site, launcher](std::size_t begin, std::size_t end) {
                        const prof::WorkerScope scope(site, launcher);
                        body(begin, end);
                    },
                    schedule);
                return;
            }
        }
    }
    dispatch_chunks(pool, n, chunk, body, schedule);
}

std::uint64_t exclusive_scan(std::vector<std::uint32_t>& data) {
    std::uint64_t sum = 0;
    for (auto& v : data) {
        const std::uint64_t next = sum + v;
        v = static_cast<std::uint32_t>(sum);
        sum = next;
    }
    return sum;
}

std::uint64_t exclusive_scan(std::vector<std::uint64_t>& data) {
    std::uint64_t sum = 0;
    for (auto& v : data) {
        const std::uint64_t next = sum + v;
        v = sum;
        sum = next;
    }
    return sum;
}

std::uint64_t exclusive_scan(ThreadPool* pool, std::vector<std::uint32_t>& data) {
    // Below this size the two extra passes cost more than they parallelise.
    constexpr std::size_t kParallelThreshold = 1u << 15;
    const std::size_t n = data.size();
    if (pool == nullptr || pool->size() == 1 || n < kParallelThreshold) {
        return exclusive_scan(data);
    }
    const std::size_t num_chunks = std::min<std::size_t>(pool->size() * 4, n);
    const std::size_t chunk = ceil_div(n, num_chunks);
    std::vector<std::uint64_t> chunk_sums(ceil_div(n, chunk), 0);

    // Pass 1: per-chunk totals.
    pool->run_dynamic(chunk_sums.size(), [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        std::uint64_t sum = 0;
        for (std::size_t i = begin; i < end; ++i) sum += data[i];
        chunk_sums[c] = sum;
    });

    // Sequential scan of the (few) chunk totals.
    const std::uint64_t total = exclusive_scan(chunk_sums);

    // Pass 2: per-chunk exclusive scan seeded with the chunk's offset.
    pool->run_dynamic(chunk_sums.size(), [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        std::uint64_t sum = chunk_sums[c];
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint64_t next = sum + data[i];
            data[i] = static_cast<std::uint32_t>(sum);
            sum = next;
        }
    });
    return total;
}

}  // namespace spbla::util
