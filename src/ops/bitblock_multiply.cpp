/// Boolean SpGEMM on the 64x64 tile grid.
///
/// Gustavson over panels of A block rows: workers own kPanelRows output
/// block rows at a time and sweep A's tiles of the panel in ascending inner
/// block column, so each B tile is fetched once per panel and the
/// Four-Russians table built for it amortises across up to kPanelRows A
/// tiles. Three inner paths per (A tile, B tile) pair:
///
///  - sparse scatter: A tile is entry-based — per entry (r, k) OR B's row k
///    into accumulator row r (nnz_A word ORs);
///  - row-OR: A tile is a bitmap below the lookup threshold — walk its set
///    bits with for_each_set_bit and OR the matching B rows;
///  - Four-Russians: dense A tile — build the 8 x 256-word table of all
///    row-subset ORs of the B tile (2048 ORs, incremental over subsets),
///    then each of A's 64 rows costs just 8 table lookups + ORs instead of
///    up to 64.
///
/// The lookup path turns per-row work from O(row popcount) into O(8): at
/// tile density 1/4 and up it does 4-8x fewer word ops, which is the bench
/// ladder's headline. Counters: spbla.bitblock.blocks_touched counts tile
/// pairs, spbla.bitblock.lookup_hits counts table probes.
#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "backend/arena.hpp"
#include "core/validate.hpp"
#include "ops/bitblock_common.hpp"
#include "ops/bitblock_ops.hpp"
#include "prof/prof.hpp"
#include "util/bit_ops.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

namespace {

constexpr std::size_t kW = BitBlockMatrix::kBlockWords;

/// A tiles at or above this population take the Four-Russians path. The
/// table costs 2048 ORs to build (amortised over the panel) plus 512
/// lookup-ORs to apply; the row-OR path costs one OR per set cell, so the
/// crossover sits near 1024 cells (tile density 1/4).
constexpr std::uint32_t kFourRussiansMinNnz = 1024;

/// Output block rows owned by one worker task. Larger panels amortise the
/// lookup-table build across more A tiles but shrink the task count; four
/// keeps 256-row matrices at a full task per core on typical pools.
constexpr std::size_t kPanelRows = 4;

/// All-subset row ORs of one B tile: table[t][m] = OR of B rows
/// { 8t + i : bit i set in m }. Built incrementally — each subset extends
/// the subset with its lowest bit cleared by one OR.
struct FourRussiansTable {
    std::uint64_t at[8][256];

    void build(const std::uint64_t* bw) noexcept {
        for (unsigned t = 0; t < 8; ++t) {
            const std::uint64_t* base = bw + t * 8;
            at[t][0] = 0;
            for (unsigned m = 1; m < 256; ++m) {
                at[t][m] = at[t][m & (m - 1)] | base[util::lowest_set_bit(m)];
            }
        }
    }
};

/// One A tile of the current panel, keyed by its inner block column.
struct PanelTile {
    Index bk;                                 ///< inner block column
    Index bil;                                ///< panel-local block row
    const BitBlockMatrix::BlockRef* tile;
};

}  // namespace

BitBlockMatrix multiply(backend::Context& ctx, const BitBlockMatrix& a,
                        const BitBlockMatrix& b) {
    check(a.ncols() == b.nrows(), Status::DimensionMismatch, "bitblock multiply");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("bitblock.multiply");

    const Index brows = a.brows();
    const Index bcols_out = b.bcols();
    std::vector<detail::BlockRowStage> stages(static_cast<std::size_t>(brows));

    const std::size_t npanels =
        (static_cast<std::size_t>(brows) + kPanelRows - 1) / kPanelRows;
    ctx.parallel_for_chunks(npanels, 1, [&](std::size_t p0, std::size_t p1) {
        // Panel scratch on the worker's op arena: built once per chunk,
        // re-assigned per panel, reclaimed wholesale at chunk-scope reset.
        backend::Arena& arena = ctx.scratch_arena();
        backend::ArenaVector<PanelTile> atiles{
            backend::ArenaAllocator<PanelTile>{arena}};
        backend::ArenaVector<std::int32_t> slot{
            backend::ArenaAllocator<std::int32_t>{arena}};
        backend::ArenaVector<std::uint64_t> acc{
            backend::ArenaAllocator<std::uint64_t>{arena}};
        backend::ArenaVector<std::pair<Index, Index>> touched{  // (bil, bj)
            backend::ArenaAllocator<std::pair<Index, Index>>{arena}};
        backend::ArenaVector<std::uint32_t> order{
            backend::ArenaAllocator<std::uint32_t>{arena}};

        const auto run_panel = [&](std::size_t p) {
        const Index bi0 = static_cast<Index>(p * kPanelRows);
        const Index bi1 = std::min<Index>(brows, bi0 + static_cast<Index>(kPanelRows));
        const std::size_t nbi = bi1 - bi0;

        // Panel tiles sorted by inner block column: all A tiles that read
        // B block row bk are adjacent, so each B tile is visited once.
        atiles.clear();
        for (Index bi = bi0; bi < bi1; ++bi) {
            for (const auto& t : a.block_row(bi)) {
                atiles.push_back(PanelTile{t.bcol, static_cast<Index>(bi - bi0), &t});
            }
        }
        if (atiles.empty()) return;
        std::stable_sort(atiles.begin(), atiles.end(),
                         [](const PanelTile& x, const PanelTile& y) { return x.bk < y.bk; });

        // Accumulator tiles, allocated on first touch of (panel row, bcol).
        slot.assign(nbi * static_cast<std::size_t>(bcols_out), -1);
        acc.clear();
        touched.clear();

        std::uint64_t bexp[kW];
        FourRussiansTable table;
        std::uint64_t pairs = 0;
        std::uint64_t lookups = 0;

        std::size_t i = 0;
        while (i < atiles.size()) {
            const Index bk = atiles[i].bk;
            std::size_t j = i;
            while (j < atiles.size() && atiles[j].bk == bk) ++j;
            const auto brow_b = b.block_row(bk);
            for (const auto& btile : brow_b) {
                const Index bj = btile.bcol;
                const std::uint64_t* bw;
                if (btile.kind == BitBlockMatrix::BlockKind::Bitmap) {
                    bw = b.bitmap_words(btile).data();
                } else {
                    b.expand(btile, bexp);
                    bw = bexp;
                }
                bool table_built = false;
                for (std::size_t k = i; k < j; ++k) {
                    const auto& atile = *atiles[k].tile;
                    const std::size_t bil = atiles[k].bil;
                    std::int32_t& s = slot[bil * static_cast<std::size_t>(bcols_out) + bj];
                    if (s < 0) {
                        s = static_cast<std::int32_t>(touched.size());
                        touched.emplace_back(static_cast<Index>(bil), bj);
                        acc.resize(acc.size() + kW, 0);
                    }
                    std::uint64_t* dst = acc.data() + static_cast<std::size_t>(s) * kW;
                    ++pairs;
                    if (atile.kind == BitBlockMatrix::BlockKind::Sparse) {
                        for (const std::uint16_t e : a.sparse_entries(atile)) {
                            dst[e >> 6] |= bw[e & 63];
                        }
                    } else if (atile.nnz >= kFourRussiansMinNnz) {
                        if (!table_built) {
                            table.build(bw);
                            table_built = true;
                        }
                        const std::uint64_t* aw = a.bitmap_words(atile).data();
                        for (std::size_t rl = 0; rl < kW; ++rl) {
                            const std::uint64_t x = aw[rl];
                            if (x == 0) continue;
                            dst[rl] |= table.at[0][x & 0xff] |
                                       table.at[1][(x >> 8) & 0xff] |
                                       table.at[2][(x >> 16) & 0xff] |
                                       table.at[3][(x >> 24) & 0xff] |
                                       table.at[4][(x >> 32) & 0xff] |
                                       table.at[5][(x >> 40) & 0xff] |
                                       table.at[6][(x >> 48) & 0xff] |
                                       table.at[7][x >> 56];
                            lookups += 8;
                        }
                    } else {
                        const std::uint64_t* aw = a.bitmap_words(atile).data();
                        for (std::size_t rl = 0; rl < kW; ++rl) {
                            std::uint64_t* out_row = dst + rl;
                            util::for_each_set_bit(aw[rl],
                                                   [&](unsigned kk) { *out_row |= bw[kk]; });
                        }
                    }
                }
            }
            i = j;
        }

        // Flush: regroup accumulator tiles per panel row in bcol order — a
        // flat sorted index over `touched` (pairs order by bil, then bj)
        // instead of the old vector-of-vectors regroup.
        order.resize(touched.size());
        for (std::size_t t = 0; t < order.size(); ++t) {
            order[t] = static_cast<std::uint32_t>(t);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t x, std::uint32_t y) { return touched[x] < touched[y]; });
        std::size_t t = 0;
        while (t < order.size()) {
            const Index bil = touched[order[t]].first;
            std::size_t e = t;
            while (e < order.size() && touched[order[e]].first == bil) ++e;
            detail::BlockRowStage& stage = stages[bi0 + bil];
            stage.bcols.reserve(e - t);
            stage.words.resize((e - t) * kW);
            for (std::size_t q = t; q < e; ++q) {
                stage.bcols.push_back(touched[order[q]].second);
                std::memcpy(stage.words.data() + (q - t) * kW,
                            acc.data() + static_cast<std::size_t>(order[q]) * kW,
                            kW * sizeof(std::uint64_t));
            }
            t = e;
        }
        SPBLA_PROF_TALLY(BitblockBlocksTouched, pairs);
        SPBLA_PROF_TALLY(BitblockLookupHits, lookups);
        };
        for (std::size_t p = p0; p < p1; ++p) run_panel(p);
    });

    BitBlockMatrix out = detail::assemble(a.nrows(), b.ncols(), std::move(stages));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
