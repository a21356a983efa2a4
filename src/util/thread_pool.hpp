/// \file thread_pool.hpp
/// \brief Fixed-size worker pool backing the simulated GPU device.
///
/// The original SPbLA executes kernels on CUDA/OpenCL devices. In this
/// reproduction the "device" is a shared-memory thread pool with one launch
/// shape, run_dynamic: a persistent-worker bulk launch. The caller publishes
/// one body and a ticket count; every worker (and the caller itself) claims
/// tickets off an atomic counter until the range is exhausted. This is the
/// work-stealing analog of a GPU grid launch with a global work queue: no
/// per-chunk std::function allocation, no mutex round-trip per chunk, and a
/// straggler chunk never idles the remaining workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace spbla::util {

/// A fixed pool of worker threads executing dynamically-scheduled bulk
/// launches.
///
/// Thread-safe. Bodies must not throw; exceptions escaping a body terminate the
/// process (kernels report failures through status codes, mirroring how CUDA
/// kernels cannot throw across the launch boundary).
class ThreadPool {
public:
    /// Create a pool with \p num_threads workers (0 → hardware concurrency).
    explicit ThreadPool(std::size_t num_threads = 0);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    /// Number of worker threads.
    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Bulk launch: invoke body(t) for every ticket t in [0, num_tickets).
    /// Tickets are claimed dynamically off an atomic counter by the pool
    /// workers and by the calling thread, which participates too. Blocks
    /// until every ticket's body invocation has completed.
    ///
    /// Safe to call concurrently from several threads and re-entrantly from
    /// inside a ticket body (the inner call's tickets are then served by the
    /// calling worker plus any workers that have drained their outer
    /// tickets); progress never depends on other workers being free.
    void run_dynamic(std::size_t num_tickets,
                     const std::function<void(std::size_t)>& body)
        SPBLA_EXCLUDES(mutex_);

private:
    /// One bulk launch. Workers hold it via shared_ptr, so a stale worker
    /// waking up after the launch retired only sees an exhausted ticket
    /// counter — it can never claim a ticket against a dead body. The ticket
    /// and completion counters are claimed/advanced lock-free; only the
    /// `bulk_` slot that publishes the task to workers is mutex-guarded.
    struct BulkTask {
        const std::function<void(std::size_t)>* body{nullptr};
        std::size_t count{0};
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
    };

    void worker_loop() SPBLA_EXCLUDES(mutex_);
    void execute_bulk(BulkTask& task) SPBLA_EXCLUDES(mutex_);

    std::vector<std::thread> workers_;
    Mutex mutex_;
    std::shared_ptr<BulkTask> bulk_ SPBLA_GUARDED_BY(mutex_);
    CondVar cv_job_;
    CondVar cv_bulk_done_;
    bool stop_ SPBLA_GUARDED_BY(mutex_) {false};
};

}  // namespace spbla::util
