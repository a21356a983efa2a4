/// Structural kernels on the 64x64 tile grid: transpose, reduce, mxv.
///
/// transpose() is two nested transposes that never leave registers for the
/// inner one: the block grid is scattered CSR-transpose style (histogram +
/// cursor placement, like ops/transpose.cpp does for rows), and each bitmap
/// tile is flipped in place with the 6-round masked-XOR 64x64 bit transpose
/// from util/bit_ops.hpp — ~384 word ops per tile, no lookup tables, no
/// per-bit loops. Sparse-kind tiles just swap their packed coordinates.
///
/// reduce_to_column() folds each tile into one 64-bit row-occupancy mask;
/// mxv() packs the operand vector into one word per block column so a tile
/// row is tested with a single AND (counted in spbla.bitblock.words_anded).
#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "ops/bitblock_ops.hpp"
#include "prof/prof.hpp"
#include "util/bit_ops.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

namespace {

constexpr std::size_t kW = BitBlockMatrix::kBlockWords;
constexpr std::size_t kBlockRowGrain = 16;

using BlockRef = BitBlockMatrix::BlockRef;
using BlockKind = BitBlockMatrix::BlockKind;

}  // namespace

BitBlockMatrix transpose(backend::Context& ctx, const BitBlockMatrix& a) {
    (void)ctx;  // grid histogram + per-tile register transpose; single-launch
    SPBLA_VALIDATE(a);
    SPBLA_PROF_SPAN("bitblock.transpose");
    SPBLA_PROF_TALLY(BitblockBlocksTouched, a.blocks().size());

    const Index obrows = a.bcols();
    std::vector<Index> offsets(static_cast<std::size_t>(obrows) + 1, 0);
    for (const auto& t : a.blocks()) ++offsets[t.bcol + 1];
    for (Index br = 0; br < obrows; ++br) offsets[br + 1] += offsets[br];

    // Pass 1: scatter (source tile, target column) pairs into target block
    // rows, CSR-transpose style. Ascending source block rows per target block
    // row keep each output tile list sorted by bcol.
    struct Placed {
        const BlockRef* src;
        Index bcol;  // output column = source block row
    };
    std::vector<Placed> placed(a.blocks().size());
    std::vector<Index> cursor(offsets.begin(), offsets.end() - 1);
    for (Index br = 0; br < a.brows(); ++br) {
        for (const auto& t : a.block_row(br)) {
            placed[cursor[t.bcol]++] = {&t, br};
        }
    }

    // Pass 2: walk tiles in output order so pool offsets are assigned
    // canonically (equal matrices stay bitwise-equal, which operator== and
    // the law tests rely on), flipping each tile as it lands.
    std::vector<BlockRef> blocks(a.blocks().size());
    std::vector<std::uint64_t> words;
    std::vector<std::uint16_t> entries;
    std::vector<std::uint16_t> scratch;
    for (std::size_t i = 0; i < placed.size(); ++i) {
        const BlockRef& t = *placed[i].src;
        BlockRef out;
        out.bcol = placed[i].bcol;
        out.nnz = t.nnz;
        out.kind = t.kind;
        if (t.kind == BlockKind::Bitmap) {
            out.offset = static_cast<std::uint32_t>(words.size());
            const auto src = a.bitmap_words(t);
            words.insert(words.end(), src.begin(), src.end());
            util::bit_transpose_64x64(words.data() + out.offset);
        } else {
            out.offset = static_cast<std::uint32_t>(entries.size());
            scratch.clear();
            for (const std::uint16_t e : a.sparse_entries(t)) {
                scratch.push_back(
                    static_cast<std::uint16_t>(((e & 63) << 6) | (e >> 6)));
            }
            std::sort(scratch.begin(), scratch.end());
            entries.insert(entries.end(), scratch.begin(), scratch.end());
        }
        blocks[i] = out;
    }

    BitBlockMatrix out = BitBlockMatrix::from_raw(a.ncols(), a.nrows(), std::move(offsets),
                                                  std::move(blocks), std::move(words),
                                                  std::move(entries));
    SPBLA_VALIDATE(out);
    return out;
}

SpVector reduce_to_column(backend::Context& ctx, const BitBlockMatrix& a) {
    SPBLA_VALIDATE(a);
    SPBLA_PROF_SPAN("bitblock.reduce_to_column");

    const Index brows = a.brows();
    std::vector<std::uint64_t> masks(static_cast<std::size_t>(brows), 0);
    ctx.parallel_for(static_cast<std::size_t>(brows), kBlockRowGrain, [&](std::size_t bri) {
        std::uint64_t mask = 0;
        std::uint64_t tiles = 0;
        for (const auto& t : a.block_row(static_cast<Index>(bri))) {
            if (t.kind == BlockKind::Bitmap) {
                const auto w = a.bitmap_words(t);
                for (std::size_t rl = 0; rl < kW; ++rl) {
                    if (w[rl] != 0) mask |= std::uint64_t{1} << rl;
                }
            } else {
                for (const std::uint16_t e : a.sparse_entries(t)) {
                    mask |= std::uint64_t{1} << (e >> 6);
                }
            }
            ++tiles;
        }
        masks[bri] = mask;
        SPBLA_PROF_TALLY(BitblockBlocksTouched, tiles);
    });

    std::vector<Index> indices;
    for (Index br = 0; br < brows; ++br) {
        util::for_each_set_bit(masks[br], [&](unsigned rl) {
            indices.push_back(br * BitBlockMatrix::kBlockDim + rl);
        });
    }
    SpVector out = SpVector::from_indices(a.nrows(), std::move(indices));
    SPBLA_VALIDATE(out);
    return out;
}

SpVector mxv(backend::Context& ctx, const BitBlockMatrix& a, const SpVector& x) {
    check(x.size() == a.ncols(), Status::DimensionMismatch, "bitblock mxv");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(x);
    SPBLA_PROF_SPAN("bitblock.mxv");

    // One word per block column: tile row r intersects x iff
    // words[r] & xw[bcol] != 0 — a 64-way Boolean dot product per AND.
    std::vector<std::uint64_t> xw(static_cast<std::size_t>(a.bcols()), 0);
    for (const Index i : x.indices()) {
        xw[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    const Index brows = a.brows();
    std::vector<std::uint64_t> masks(static_cast<std::size_t>(brows), 0);
    ctx.parallel_for(static_cast<std::size_t>(brows), kBlockRowGrain, [&](std::size_t bri) {
        std::uint64_t mask = 0;
        std::uint64_t tiles = 0;
        std::uint64_t anded = 0;
        for (const auto& t : a.block_row(static_cast<Index>(bri))) {
            const std::uint64_t xk = xw[t.bcol];
            ++tiles;
            if (xk == 0) continue;
            if (t.kind == BlockKind::Bitmap) {
                const auto w = a.bitmap_words(t);
                for (std::size_t rl = 0; rl < kW; ++rl) {
                    if (w[rl] & xk) mask |= std::uint64_t{1} << rl;
                }
                anded += kW;
            } else {
                for (const std::uint16_t e : a.sparse_entries(t)) {
                    if ((xk >> (e & 63)) & 1) mask |= std::uint64_t{1} << (e >> 6);
                }
            }
        }
        masks[bri] = mask;
        SPBLA_PROF_TALLY(BitblockBlocksTouched, tiles);
        SPBLA_PROF_TALLY(BitblockWordsAnded, anded);
    });

    std::vector<Index> indices;
    for (Index br = 0; br < brows; ++br) {
        util::for_each_set_bit(masks[br], [&](unsigned rl) {
            indices.push_back(br * BitBlockMatrix::kBlockDim + rl);
        });
    }
    SpVector out = SpVector::from_indices(a.nrows(), std::move(indices));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
