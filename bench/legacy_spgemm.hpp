/// \file legacy_spgemm.hpp
/// \brief A frozen copy of the library's first SpGEMM kernel: the SpGEMM
/// ladder's baseline (bench_ops_micro, "two_pass_static").
///
/// Nsparse's two-pass hash kernel on the calling thread: a walk over A for
/// each row's product bound ub, a symbolic pass that counts each row's
/// distinct columns, an exclusive scan for the exact output, and a numeric
/// pass that recomputes each row into its slot. A row picks its accumulator
/// by ub: gather-sort-unique when ub <= 32, a dense bitmap over ncols when
/// ub reaches a quarter of ncols (on at least 256 columns), an
/// open-addressing hash set otherwise. Each accumulator is reset whole for
/// every row: the full table, the full bitmap. The library no longer
/// carries any of this; the copy is kept unchanged so that geomean_speedup
/// keeps measuring the library against the baseline its committed value was
/// recorded on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/csr.hpp"  // lint:allow(format-leak)
#include "util/bit_ops.hpp"

namespace spbla::bench {

/// C = A x B over the Boolean semiring with the frozen two-pass kernel.
[[nodiscard]] inline CsrMatrix two_pass_static_multiply(const CsrMatrix& a, const CsrMatrix& b) {
    check(a.ncols() == b.nrows(), Status::DimensionMismatch, "two_pass_static: shapes");
    constexpr Index kEmptySlot = 0xFFFFFFFFu;
    constexpr std::uint64_t kTiny = 32;
    constexpr double kDenseFraction = 0.25;
    constexpr double kLoadFactor = 0.5;
    const Index m = a.nrows();
    const Index ncols = b.ncols();
    const Index* a_off = a.row_offsets().data();
    const Index* a_cols = a.cols().data();
    const Index* b_off = b.row_offsets().data();

    std::vector<std::uint64_t> ub(m);
    std::uint64_t max_ub = 0;
    for (Index i = 0; i < m; ++i) {
        std::uint64_t bound = 0;
        for (Index p = a_off[i]; p < a_off[i + 1]; ++p) {
            bound += b_off[a_cols[p] + 1] - b_off[a_cols[p]];
        }
        ub[i] = bound;
        max_ub = std::max(max_ub, bound);
    }
    const auto slots_for = [&](std::uint64_t bound) {
        std::uint64_t want = util::next_pow2(
            static_cast<std::uint64_t>(static_cast<double>(bound) / kLoadFactor + 1.0));
        const std::uint64_t cap = util::next_pow2(static_cast<std::uint64_t>(ncols) * 2);
        return std::max<std::uint64_t>(std::min(want, cap), 16);
    };
    const std::size_t words = (static_cast<std::size_t>(ncols) + 63) / 64;
    std::vector<Index> slots(static_cast<std::size_t>(slots_for(max_ub)), kEmptySlot);
    std::vector<Index> gathered(static_cast<std::size_t>(std::min(max_ub, kTiny)));
    std::vector<Index> extracted(static_cast<std::size_t>(std::min<std::uint64_t>(max_ub, ncols)));
    std::vector<std::uint64_t> bitmap(words, 0);

    // Count row i's distinct columns; with need_columns also leave them
    // sorted at the returned pointer.
    const auto accumulate = [&](Index i, bool need_columns) -> std::pair<Index, const Index*> {
        const std::uint64_t bound = ub[i];
        if (bound == 0) return {0, nullptr};
        if (bound <= kTiny) {
            Index* end = gathered.data();
            for (const auto k : a.row(i)) {
                const auto brow = b.row(k);
                end = std::copy(brow.begin(), brow.end(), end);
            }
            std::sort(gathered.data(), end);
            return {static_cast<Index>(std::unique(gathered.data(), end) - gathered.data()),
                    gathered.data()};
        }
        if (ncols >= 256 && static_cast<double>(bound) >=
                                static_cast<double>(ncols) * kDenseFraction) {
            for (const auto k : a.row(i)) {
                for (const auto c : b.row(k)) bitmap[c >> 6] |= std::uint64_t{1} << (c & 63);
            }
            Index count = 0;
            Index* out = extracted.data();
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t bits = bitmap[w];
                bitmap[w] = 0;
                count += static_cast<Index>(std::popcount(bits));
                if (need_columns) {
                    while (bits != 0) {
                        *out++ = static_cast<Index>(
                            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
                        bits &= bits - 1;
                    }
                }
            }
            return {count, extracted.data()};
        }
        const std::uint64_t want = slots_for(bound);
        const Index mask = static_cast<Index>(want - 1);
        std::fill(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(want), kEmptySlot);
        Index count = 0;
        for (const auto k : a.row(i)) {
            for (const auto c : b.row(k)) {
                Index h = (c * 2654435761u) & mask;
                for (;;) {
                    const Index cur = slots[h];
                    if (cur == c) break;
                    if (cur == kEmptySlot) {
                        slots[h] = c;
                        ++count;
                        break;
                    }
                    h = (h + 1) & mask;
                }
            }
        }
        if (need_columns) {
            Index* out = extracted.data();
            for (std::size_t slot = 0; slot < want; ++slot) {
                if (slots[slot] != kEmptySlot) *out++ = slots[slot];
            }
            std::sort(extracted.data(), out);
        }
        return {count, extracted.data()};
    };

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    for (Index i = 0; i < m; ++i) row_offsets[i] = accumulate(i, false).first;
    std::uint64_t total = 0;
    for (auto& v : row_offsets) {
        const std::uint64_t next = total + v;
        v = static_cast<Index>(total);
        total = next;
    }
    check(total <= 0xFFFFFFFFull, Status::OutOfRange, "two_pass_static: nnz overflows Index");
    std::vector<Index> cols(static_cast<std::size_t>(total));
    for (Index i = 0; i < m; ++i) {
        const auto [size, columns] = accumulate(i, true);
        std::copy(columns, columns + size, cols.begin() + row_offsets[i]);
    }
    return CsrMatrix::from_raw(m, ncols, std::move(row_offsets), std::move(cols));
}

}  // namespace spbla::bench
