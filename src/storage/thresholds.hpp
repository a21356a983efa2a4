/// \file thresholds.hpp
/// \brief Named crossover constants of the storage engine's cost model.
///
/// The density / byte-cap gate the dispatcher uses to admit the bit-block
/// tier as a candidate lives here, in one place. The constants are
/// crossovers, not laws: the bench ladder (bench_ops_micro --formats,
/// BENCH_formats.json) keeps them honest against the acceptance bar (auto
/// within 10% of the best static format).
#pragma once

#include <cstddef>

namespace spbla::storage {

/// BitBlocks candidacy gate: the tiled 64x64 bit format starts paying for
/// its block bookkeeping once an average 64x64 tile region carries at least
/// ~8 entries, i.e. density >= 8 / 4096. Below that the per-block expansion
/// and accumulator flushes swamp the broadword savings and the index-based
/// kernels win.
inline constexpr double kBitBlockMinDensity = 8.0 / 4096.0;

/// BitBlocks byte cap. The worst case (every non-empty block bitmapped) is
/// bounded by the flat bitmap's footprint, but the grid stays sparse — empty
/// block regions cost nothing.
inline constexpr std::size_t kBitBlockByteCap = std::size_t{256} << 20;  // 256 MiB

}  // namespace spbla::storage
