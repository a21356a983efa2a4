#include "incr/memo.hpp"

#include <utility>

#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"

namespace spbla::incr {

std::shared_ptr<const Matrix> MemoTable::get_or_compute(
    const MemoKey& key, const std::function<Matrix()>& compute) {
    telemetry::count(telemetry::Counter::IncrMemoLookups);

    std::shared_ptr<Entry> entry;
    {
        util::LockGuard lk{mu_};
        ++stats_.lookups;
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            fifo_.push_back(key);
            while (entries_.size() > capacity_) {
                // FIFO eviction. Waiters on an evicted in-flight entry still
                // hold their shared_ptr and finish normally; the key is just
                // no longer discoverable.
                entries_.erase(fifo_.front());
                fifo_.erase(fifo_.begin());
                ++stats_.evictions;
                telemetry::count(telemetry::Counter::IncrMemoEvictions);
            }
        } else {
            entry = it->second;
        }
    }

    // Rendezvous outside the table lock: the first arrival computes, every
    // later arrival blocks here and reuses the published value. The thread
    // that created the entry may lose the race to the lock; its reuse then
    // counts as a hit like any other, so hits + stores == lookups.
    util::LockGuard lk{entry->compute_mu};
    if (entry->value == nullptr) {
        entry->value = std::make_shared<const Matrix>(compute());
        {
            util::LockGuard slk{mu_};
            ++stats_.stores;
        }
        telemetry::count(telemetry::Counter::IncrMemoStores);
    } else {
        {
            util::LockGuard slk{mu_};
            ++stats_.hits;
        }
        telemetry::count(telemetry::Counter::IncrMemoHits);
    }
    return entry->value;
}

void MemoTable::clear() {
    util::LockGuard lk{mu_};
    entries_.clear();
    fifo_.clear();
}

MemoStats MemoTable::stats() const {
    util::LockGuard lk{mu_};
    return stats_;
}

std::size_t MemoTable::size() const {
    util::LockGuard lk{mu_};
    return entries_.size();
}

MemoTable& memo() {
    static MemoTable table;
    return table;
}

namespace {

/// Copy a memoized value out as an independent handle bound to \p ctx's
/// default semantics. Copies share the cached content version, so chained
/// memo lookups keep hitting.
Matrix unwrap(const std::shared_ptr<const Matrix>& value) { return *value; }

}  // namespace

Matrix memo_multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                     const ops::SpGemmOptions& opts) {
    return unwrap(memo().get_or_compute(
        {OpKind::Multiply, a.version(), b.version(), 0},
        [&] { return storage::multiply(ctx, a, b, opts); }));
}

Matrix memo_kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return unwrap(memo().get_or_compute(
        {OpKind::Kronecker, a.version(), b.version(), 0},
        [&] { return storage::kronecker(ctx, a, b); }));
}

Matrix memo_ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return unwrap(memo().get_or_compute(
        {OpKind::EwiseAdd, a.version(), b.version(), 0},
        [&] { return storage::ewise_add(ctx, a, b); }));
}

Matrix memo_ewise_diff(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return unwrap(memo().get_or_compute(
        {OpKind::EwiseDiff, a.version(), b.version(), 0},
        [&] { return storage::ewise_diff(ctx, a, b); }));
}

}  // namespace spbla::incr
