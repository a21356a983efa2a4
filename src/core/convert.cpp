#include "core/convert.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "backend/arena.hpp"
#include "util/bit_ops.hpp"

namespace spbla {

namespace {

// Grain sizes for the conversion launches: rows are cheap (a search or a
// popcount each), entries cheaper still, so keep chunks large enough that
// ticket bookkeeping never dominates.
constexpr std::size_t kRowGrain = 1024;

}  // namespace

CsrMatrix to_csr(backend::Context& ctx, const CooMatrix& coo) {
    // Row pointers of a sorted COO: offsets[r] = first entry with row >= r,
    // found independently per row (binary search), so the pass parallelises
    // with no carried dependency.
    const auto rows = coo.rows();
    std::vector<Index> row_offsets(static_cast<std::size_t>(coo.nrows()) + 1, 0);
    row_offsets[coo.nrows()] = static_cast<Index>(rows.size());
    ctx.parallel_for(coo.nrows(), kRowGrain, [&](std::size_t r) {
        row_offsets[r] = static_cast<Index>(
            std::lower_bound(rows.begin(), rows.end(), static_cast<Index>(r)) -
            rows.begin());
    });
    std::vector<Index> cols(coo.cols().begin(), coo.cols().end());
    return CsrMatrix::from_raw(coo.nrows(), coo.ncols(), std::move(row_offsets),
                               std::move(cols));
}

CooMatrix to_coo(backend::Context& ctx, const CsrMatrix& csr) {
    std::vector<Index> rows(csr.nnz());
    ctx.parallel_for(csr.nrows(), kRowGrain, [&](std::size_t r) {
        const auto offsets = csr.row_offsets();
        std::fill(rows.begin() + offsets[r], rows.begin() + offsets[r + 1],
                  static_cast<Index>(r));
    });
    std::vector<Index> cols(csr.cols().begin(), csr.cols().end());
    return CooMatrix::from_sorted(csr.nrows(), csr.ncols(), std::move(rows),
                                  std::move(cols));
}

CsrMatrix to_csr(backend::Context& ctx, const DenseMatrix& dense) {
    // Per-row popcount, exclusive scan for the destination offsets, then an
    // independent per-row bit scatter.
    const Index nrows = dense.nrows();
    std::vector<std::uint32_t> counts(nrows, 0);
    ctx.parallel_for(nrows, kRowGrain, [&](std::size_t r) {
        counts[r] = dense.row_nnz(static_cast<Index>(r));
    });
    const std::uint64_t total = ctx.exclusive_scan(counts);

    std::vector<Index> cols(total);
    std::vector<Index> row_offsets(static_cast<std::size_t>(nrows) + 1, 0);
    row_offsets[nrows] = static_cast<Index>(total);
    ctx.parallel_for(nrows, kRowGrain / 4, [&](std::size_t r) {
        row_offsets[r] = static_cast<Index>(counts[r]);
        std::size_t dst = counts[r];
        const auto words = dense.row_words(static_cast<Index>(r));
        for (std::size_t w = 0; w < words.size(); ++w) {
            std::uint64_t bits = words[w];
            while (bits != 0) {
                cols[dst++] = static_cast<Index>(
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    });
    return CsrMatrix::from_raw(nrows, dense.ncols(), std::move(row_offsets),
                               std::move(cols));
}

DenseMatrix to_dense(backend::Context& ctx, const CsrMatrix& csr) {
    DenseMatrix out{csr.nrows(), csr.ncols()};
    // Rows own disjoint word ranges of the bitmap, so per-row writes do not
    // race.
    ctx.parallel_for(csr.nrows(), kRowGrain / 4, [&](std::size_t r) {
        for (const auto c : csr.row(static_cast<Index>(r))) {
            out.set(static_cast<Index>(r), c);
        }
    });
    return out;
}

// ---------------------------------------------------------------------------
// BitBlocks conversions. Tilings run per block row (64 matrix rows each):
// a counting pass sizes the descriptor and pool demand per block row, serial
// scans place the per-row bases, and an independent fill pass materialises
// the tiles — the same count/scan/scatter shape as the dense -> CSR pass.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kBlockRowGrain = 16;

[[nodiscard]] Index block_count(Index cells) noexcept {
    return static_cast<Index>((static_cast<std::size_t>(cells) + 63) / 64);
}

/// Exclusive scan of per-block-row demand into base offsets; returns total.
[[nodiscard]] std::uint64_t place(std::vector<std::uint32_t>& demand) {
    std::uint64_t total = 0;
    for (auto& d : demand) {
        const std::uint32_t here = d;
        d = static_cast<std::uint32_t>(total);
        total += here;
    }
    return total;
}

}  // namespace

BitBlockMatrix to_bitblocks(backend::Context& ctx, const CsrMatrix& csr) {
    using BlockRef = BitBlockMatrix::BlockRef;
    using BlockKind = BitBlockMatrix::BlockKind;
    constexpr std::uint32_t kMin = BitBlockMatrix::kBitmapMinNnz;
    const Index nrows = csr.nrows();
    const Index brows = block_count(nrows);
    const Index bcols = block_count(csr.ncols());

    std::vector<std::uint32_t> blocks_in(brows, 0);
    std::vector<std::uint32_t> words_in(brows, 0);
    std::vector<std::uint32_t> entries_in(brows, 0);
    // Per-tile-column tallies live on the worker's op arena, constructed once
    // per chunk and re-assigned per block row (heap-free on the hot path).
    ctx.parallel_for_chunks(brows, kBlockRowGrain, [&](std::size_t cb, std::size_t ce) {
        backend::ArenaVector<std::uint16_t> counts{
            backend::ArenaAllocator<std::uint16_t>{ctx.scratch_arena()}};
        for (std::size_t br = cb; br < ce; ++br) {
            counts.assign(bcols, 0);
            const Index r0 = static_cast<Index>(br) * 64;
            const Index r1 = std::min<Index>(nrows, r0 + 64);
            for (Index r = r0; r < r1; ++r) {
                for (const Index c : csr.row(r)) ++counts[c >> 6];
            }
            for (Index bc = 0; bc < bcols; ++bc) {
                if (counts[bc] == 0) continue;
                ++blocks_in[br];
                if (counts[bc] >= kMin) {
                    words_in[br] += BitBlockMatrix::kBlockWords;
                } else {
                    entries_in[br] += counts[bc];
                }
            }
        }
    });

    const std::uint64_t total_blocks = place(blocks_in);
    const std::uint64_t total_words = place(words_in);
    const std::uint64_t total_entries = place(entries_in);

    std::vector<Index> block_row_offsets(static_cast<std::size_t>(brows) + 1, 0);
    for (Index br = 0; br < brows; ++br) block_row_offsets[br] = blocks_in[br];
    block_row_offsets[brows] = static_cast<Index>(total_blocks);

    std::vector<BlockRef> blocks(total_blocks);
    std::vector<std::uint64_t> words(total_words, 0);
    std::vector<std::uint16_t> entries(total_entries);
    ctx.parallel_for_chunks(brows, kBlockRowGrain, [&](std::size_t cb, std::size_t ce) {
        backend::Arena& arena = ctx.scratch_arena();
        backend::ArenaVector<std::uint16_t> counts{
            backend::ArenaAllocator<std::uint16_t>{arena}};
        backend::ArenaVector<std::uint32_t> word_base{
            backend::ArenaAllocator<std::uint32_t>{arena}};
        backend::ArenaVector<std::uint32_t> entry_cursor{
            backend::ArenaAllocator<std::uint32_t>{arena}};
        for (std::size_t br = cb; br < ce; ++br) {
            counts.assign(bcols, 0);
            word_base.assign(bcols, 0);
            entry_cursor.assign(bcols, 0);
            const Index r0 = static_cast<Index>(br) * 64;
            const Index r1 = std::min<Index>(nrows, r0 + 64);
            for (Index r = r0; r < r1; ++r) {
                for (const Index c : csr.row(r)) ++counts[c >> 6];
            }
            std::uint32_t bcur = blocks_in[br];
            std::uint32_t wcur = words_in[br];
            std::uint32_t ecur = entries_in[br];
            for (Index bc = 0; bc < bcols; ++bc) {
                if (counts[bc] == 0) continue;
                BlockRef ref{};
                ref.bcol = bc;
                ref.nnz = counts[bc];
                if (counts[bc] >= kMin) {
                    ref.kind = BlockKind::Bitmap;
                    ref.offset = wcur;
                    word_base[bc] = wcur;
                    wcur += BitBlockMatrix::kBlockWords;
                } else {
                    ref.kind = BlockKind::Sparse;
                    ref.offset = ecur;
                    entry_cursor[bc] = ecur;
                    ecur += counts[bc];
                }
                blocks[bcur++] = ref;
            }
            // Row-major refill: ascending (row, col) emits sparse-tile
            // entries in ascending packed order and sets bitmap bits
            // race-free (this thread owns every tile of the block row).
            for (Index r = r0; r < r1; ++r) {
                const Index rl = r & 63;
                for (const Index c : csr.row(r)) {
                    const Index bc = c >> 6;
                    if (counts[bc] >= kMin) {
                        words[word_base[bc] + rl] |= std::uint64_t{1} << (c & 63);
                    } else {
                        entries[entry_cursor[bc]++] =
                            static_cast<std::uint16_t>((rl << 6) | (c & 63));
                    }
                }
            }
        }
    });

    return BitBlockMatrix::from_raw(csr.nrows(), csr.ncols(),
                                    std::move(block_row_offsets), std::move(blocks),
                                    std::move(words), std::move(entries));
}

CsrMatrix to_csr(backend::Context& ctx, const BitBlockMatrix& bb) {
    const Index nrows = bb.nrows();
    // This conversion materialises cached secondary representations, so its
    // output arrays cycle through the pool: Matrix::drop_slot hands them
    // back and the next materialisation re-acquires them in O(1).
    auto counts = ctx.buffer_pool().acquire_zeroed(nrows);
    ctx.parallel_for(bb.brows(), kBlockRowGrain, [&](std::size_t br) {
        const Index r0 = static_cast<Index>(br) * 64;
        const Index live = std::min<Index>(nrows - r0, 64);
        for (const auto& tile : bb.block_row(static_cast<Index>(br))) {
            if (tile.kind == BitBlockMatrix::BlockKind::Bitmap) {
                const auto w = bb.bitmap_words(tile);
                for (Index rl = 0; rl < live; ++rl) {
                    counts[r0 + rl] += static_cast<std::uint32_t>(util::popcount64(w[rl]));
                }
            } else {
                for (const std::uint16_t e : bb.sparse_entries(tile)) {
                    ++counts[r0 + (e >> 6)];
                }
            }
        }
    });
    const std::uint64_t total = ctx.exclusive_scan(counts);

    auto row_offsets =
        ctx.buffer_pool().acquire_zeroed(static_cast<std::size_t>(nrows) + 1);
    row_offsets[nrows] = static_cast<Index>(total);
    auto cols = ctx.buffer_pool().acquire(static_cast<std::size_t>(total));
    ctx.parallel_for_chunks(bb.brows(), kBlockRowGrain, [&](std::size_t cb,
                                                            std::size_t ce) {
        backend::ArenaVector<std::uint32_t> cursor{
            backend::ArenaAllocator<std::uint32_t>{ctx.scratch_arena()}};
        for (std::size_t br = cb; br < ce; ++br) {
            const auto row = bb.block_row(static_cast<Index>(br));
            const Index r0 = static_cast<Index>(br) * 64;
            const Index live = std::min<Index>(nrows - r0, 64);
            cursor.assign(row.size(), 0);  // sparse-tile scan heads
            for (Index rl = 0; rl < live; ++rl) {
                const Index r = r0 + rl;
                row_offsets[r] = static_cast<Index>(counts[r]);
                std::size_t dst = counts[r];
                for (std::size_t t = 0; t < row.size(); ++t) {
                    const Index cbase = row[t].bcol * 64;
                    if (row[t].kind == BitBlockMatrix::BlockKind::Bitmap) {
                        util::for_each_set_bit(bb.bitmap_words(row[t])[rl],
                                               [&](unsigned bit) {
                                                   cols[dst++] = cbase + bit;
                                               });
                    } else {
                        const auto es = bb.sparse_entries(row[t]);
                        while (cursor[t] < es.size() &&
                               static_cast<Index>(es[cursor[t]] >> 6) == rl) {
                            cols[dst++] = cbase + (es[cursor[t]] & 63);
                            ++cursor[t];
                        }
                    }
                }
            }
        }
    });
    ctx.buffer_pool().release(std::move(counts));
    return CsrMatrix::from_raw(bb.nrows(), bb.ncols(), std::move(row_offsets),
                               std::move(cols));
}

CsrMatrix to_csr(const CooMatrix& coo) { return to_csr(backend::default_context(), coo); }
CooMatrix to_coo(const CsrMatrix& csr) { return to_coo(backend::default_context(), csr); }
CsrMatrix to_csr(const DenseMatrix& dense) {
    return to_csr(backend::default_context(), dense);
}
DenseMatrix to_dense(const CsrMatrix& csr) {
    return to_dense(backend::default_context(), csr);
}

}  // namespace spbla
