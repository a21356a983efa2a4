/// Element-wise OR / AND on the 64x64 tile grid.
///
/// Both kernels are a per-block-row merge of the two tile lists by block
/// column. OR keeps every tile (unmatched tiles copy through, matched pairs
/// OR word-wise); AND keeps only matched pairs, 64 word ANDs each — that is
/// the counter spbla.bitblock.words_anded, the broadword tier's unit of useful
/// work (one AND = 64 Boolean cell products). Sparse-kind tiles are
/// expanded into a 64-word scratch first; at < 32 entries the expansion is
/// a memset plus a handful of stores, cheaper than a dedicated entry-merge
/// path would save.
#include <cstring>
#include <vector>

#include "core/validate.hpp"
#include "ops/bitblock_common.hpp"
#include "ops/bitblock_ops.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

namespace {

constexpr std::size_t kW = BitBlockMatrix::kBlockWords;
constexpr std::size_t kBlockRowGrain = 16;

/// Append one staged tile and return its word buffer (zero-initialised).
std::uint64_t* push_tile(detail::BlockRowStage& stage, Index bcol) {
    stage.bcols.push_back(bcol);
    stage.words.resize(stage.words.size() + kW, 0);
    return stage.words.data() + stage.words.size() - kW;
}

}  // namespace

BitBlockMatrix ewise_add(backend::Context& ctx, const BitBlockMatrix& a,
                         const BitBlockMatrix& b) {
    check(a.nrows() == b.nrows() && a.ncols() == b.ncols(), Status::DimensionMismatch,
          "bitblock ewise_add");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("bitblock.ewise_add");

    const Index brows = a.brows();
    std::vector<detail::BlockRowStage> stages(static_cast<std::size_t>(brows));
    ctx.parallel_for(static_cast<std::size_t>(brows), kBlockRowGrain, [&](std::size_t bri) {
        const auto br = static_cast<Index>(bri);
        const auto ra = a.block_row(br);
        const auto rb = b.block_row(br);
        detail::BlockRowStage& stage = stages[bri];
        std::uint64_t tiles = 0;
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < ra.size() || j < rb.size()) {
            const bool take_a =
                j >= rb.size() || (i < ra.size() && ra[i].bcol <= rb[j].bcol);
            const bool take_b =
                i >= ra.size() || (j < rb.size() && rb[j].bcol <= ra[i].bcol);
            const Index bcol = take_a ? ra[i].bcol : rb[j].bcol;
            std::uint64_t* dst = push_tile(stage, bcol);
            if (take_a) a.expand(ra[i++], dst);
            if (take_b) {
                if (take_a) {
                    std::uint64_t tmp[kW];
                    b.expand(rb[j], tmp);
                    for (std::size_t w = 0; w < kW; ++w) dst[w] |= tmp[w];
                } else {
                    b.expand(rb[j], dst);
                }
                ++j;
            }
            ++tiles;
        }
        SPBLA_PROF_TALLY(BitblockBlocksTouched, tiles);
    });

    BitBlockMatrix out = detail::assemble(a.nrows(), a.ncols(), std::move(stages));
    SPBLA_VALIDATE(out);
    return out;
}

BitBlockMatrix ewise_mult(backend::Context& ctx, const BitBlockMatrix& a,
                          const BitBlockMatrix& b) {
    check(a.nrows() == b.nrows() && a.ncols() == b.ncols(), Status::DimensionMismatch,
          "bitblock ewise_mult");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("bitblock.ewise_mult");

    const Index brows = a.brows();
    std::vector<detail::BlockRowStage> stages(static_cast<std::size_t>(brows));
    ctx.parallel_for(static_cast<std::size_t>(brows), kBlockRowGrain, [&](std::size_t bri) {
        const auto br = static_cast<Index>(bri);
        const auto ra = a.block_row(br);
        const auto rb = b.block_row(br);
        detail::BlockRowStage& stage = stages[bri];
        std::uint64_t tiles = 0;
        std::uint64_t anded = 0;
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < ra.size() && j < rb.size()) {
            if (ra[i].bcol < rb[j].bcol) {
                ++i;
            } else if (rb[j].bcol < ra[i].bcol) {
                ++j;
            } else {
                std::uint64_t* dst = push_tile(stage, ra[i].bcol);
                std::uint64_t tmp[kW];
                a.expand(ra[i], dst);
                b.expand(rb[j], tmp);
                for (std::size_t w = 0; w < kW; ++w) dst[w] &= tmp[w];
                anded += kW;
                ++tiles;
                ++i;
                ++j;
            }
        }
        SPBLA_PROF_TALLY(BitblockBlocksTouched, tiles);
        SPBLA_PROF_TALLY(BitblockWordsAnded, anded);
    });

    BitBlockMatrix out = detail::assemble(a.nrows(), a.ncols(), std::move(stages));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
