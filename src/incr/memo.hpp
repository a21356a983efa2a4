/// \file memo.hpp
/// \brief Op-level memoization keyed by content-version epochs.
///
/// The incremental drivers replay the same sub-expressions across batches —
/// the RPQ driver takes a query automaton Kronecker the same unchanged label
/// matrix on every batch that touches that label. The
/// storage engine already stamps every Matrix with a process-unique content
/// version (PR 5's MVCC hook — see Matrix::version()), so an operation's
/// result is fully determined by (op kind, operand versions): that tuple is
/// the memo key, and staleness is structurally impossible — mutating a
/// handle installs a fresh stamp, so a stale entry can never be *found*,
/// only aged out of the FIFO.
///
/// Exactly-once: concurrent callers that miss on the same key rendezvous on
/// a per-entry mutex — the first computes, the rest block and reuse, so the
/// kernel (and its device-memory charge) runs once per (epoch, op) no matter
/// how many threads race it. This is the property IncrFuzzSweep pins by
/// racing same-key lookups.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ops/spgemm.hpp"
#include "storage/matrix.hpp"
#include "util/thread_annotations.hpp"

namespace spbla::incr {

/// Operation discriminator of a memo key. Values are part of the key hash
/// only — never serialized.
enum class OpKind : std::uint8_t {
    Multiply = 0,
    MultiplyAdd = 1,
    EwiseAdd = 2,
    EwiseDiff = 3,
    Kronecker = 4,
};

/// (op, operand content versions). Unused operand slots stay 0, which never
/// collides with a live handle (version 0 marks moved-from handles only).
struct MemoKey {
    OpKind op{OpKind::Multiply};
    std::uint64_t a{0};
    std::uint64_t b{0};
    std::uint64_t c{0};

    friend bool operator==(const MemoKey& x, const MemoKey& y) noexcept {
        return x.op == y.op && x.a == y.a && x.b == y.b && x.c == y.c;
    }
};

struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const noexcept {
        // splitmix64-style mixing of the three version words plus the op tag.
        std::uint64_t h = static_cast<std::uint64_t>(k.op) + 0x9e3779b97f4a7c15ull;
        for (const std::uint64_t v : {k.a, k.b, k.c}) {
            std::uint64_t x = v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            h ^= x ^ (x >> 31);
        }
        return static_cast<std::size_t>(h);
    }
};

/// Point-in-time memo statistics (mirrors the spbla.incr.memo_* counters).
struct MemoStats {
    std::uint64_t lookups{0};
    std::uint64_t hits{0};
    std::uint64_t stores{0};
    std::uint64_t evictions{0};
};

/// Bounded epoch-keyed result cache with exactly-once computation.
class MemoTable {
public:
    /// \p capacity bounds retained entries; insertion order evicts (FIFO —
    /// fixpoint reuse is dominated by the immediately preceding rounds, so
    /// recency tracking buys little over arrival order here).
    explicit MemoTable(std::size_t capacity = 96) : capacity_{capacity} {}

    /// Return the memoized result for \p key, running \p compute at most
    /// once per cached lifetime of the key. The returned pointer shares
    /// ownership with the table (and stays valid after eviction).
    [[nodiscard]] std::shared_ptr<const Matrix> get_or_compute(
        const MemoKey& key, const std::function<Matrix()>& compute)
        SPBLA_EXCLUDES(mu_);

    /// Drop every entry (and its device-memory charge). Call before tearing
    /// down the contexts whose matrices the table retains.
    void clear() SPBLA_EXCLUDES(mu_);

    [[nodiscard]] MemoStats stats() const SPBLA_EXCLUDES(mu_);
    [[nodiscard]] std::size_t size() const SPBLA_EXCLUDES(mu_);
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    struct Entry {
        /// Rendezvous lock for the exactly-once computation; acquired only
        /// after mu_ has been released (leaf with respect to the table).
        util::Mutex compute_mu;
        std::shared_ptr<const Matrix> value SPBLA_GUARDED_BY(compute_mu);
    };

    std::size_t capacity_;
    mutable util::Mutex mu_;
    std::unordered_map<MemoKey, std::shared_ptr<Entry>, MemoKeyHash> entries_
        SPBLA_GUARDED_BY(mu_);
    std::vector<MemoKey> fifo_ SPBLA_GUARDED_BY(mu_);  // arrival order
    MemoStats stats_ SPBLA_GUARDED_BY(mu_);
};

/// The process-wide memo the incremental drivers share. Cleared by
/// spbla_Finalize and by the incremental test fixtures before their
/// leak-balance checks.
[[nodiscard]] MemoTable& memo();

// ---- memoized dispatch wrappers -------------------------------------------
// Same contracts as the storage::* ops they wrap; results come back as
// fresh value-semantic copies (sharing the cached content version).

[[nodiscard]] Matrix memo_multiply(backend::Context& ctx, const Matrix& a,
                                   const Matrix& b,
                                   const ops::SpGemmOptions& opts = {});
[[nodiscard]] Matrix memo_kronecker(backend::Context& ctx, const Matrix& a,
                                    const Matrix& b);
[[nodiscard]] Matrix memo_ewise_add(backend::Context& ctx, const Matrix& a,
                                    const Matrix& b);
[[nodiscard]] Matrix memo_ewise_diff(backend::Context& ctx, const Matrix& a,
                                     const Matrix& b);

}  // namespace spbla::incr
