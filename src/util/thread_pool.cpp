#include "util/thread_pool.hpp"

#include "telemetry/metrics.hpp"

namespace spbla::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0) num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    telemetry::gauge_add(telemetry::Gauge::PoolWorkers,
                         static_cast<std::int64_t>(num_threads));
}

ThreadPool::~ThreadPool() {
    {
        LockGuard lock{mutex_};
        stop_ = true;
    }
    cv_job_.notify_all();
    telemetry::gauge_add(telemetry::Gauge::PoolWorkers,
                         -static_cast<std::int64_t>(workers_.size()));
    for (auto& w : workers_) w.join();
}

void ThreadPool::execute_bulk(BulkTask& task) {
    std::size_t t;
    while ((t = task.next.fetch_add(1)) < task.count) {
        (*task.body)(t);
        if (task.done.fetch_add(1) + 1 == task.count) {
            // Last ticket completed: wake the launcher. The lock pairs with
            // the launcher's predicate check so the notify cannot be missed.
            LockGuard lock{mutex_};
            cv_bulk_done_.notify_all();
        }
    }
}

void ThreadPool::run_dynamic(std::size_t num_tickets,
                             const std::function<void(std::size_t)>& body) {
    if (num_tickets == 0) return;
    telemetry::count(telemetry::Counter::PoolBulkLaunches);
    telemetry::count(telemetry::Counter::PoolTickets, num_tickets);
    auto task = std::make_shared<BulkTask>();
    task->body = &body;
    task->count = num_tickets;
    {
        LockGuard lock{mutex_};
        bulk_ = task;
    }
    cv_job_.notify_all();
    execute_bulk(*task);  // the launcher claims tickets alongside the workers
    UniqueLock lock{mutex_};
    cv_bulk_done_.wait(lock, [&] { return task->done.load() == task->count; });
    if (bulk_ == task) bulk_.reset();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::shared_ptr<BulkTask> bulk;
        {
            UniqueLock lock{mutex_};
            cv_job_.wait(lock, [this]() SPBLA_REQUIRES(mutex_) {
                return stop_ || bulk_ != nullptr;
            });
            if (stop_) return;
            bulk = bulk_;
        }
        execute_bulk(*bulk);
        // Tickets exhausted: retire the slot so idle workers stop
        // re-checking it (in-flight bodies still hold their shared_ptr).
        LockGuard lock{mutex_};
        if (bulk_ == bulk) bulk_.reset();
    }
}

}  // namespace spbla::util
