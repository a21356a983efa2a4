/// \file bitblock_ops.hpp
/// \brief Broadword kernels on the tiled 64x64 bit-matrix format.
///
/// The bit-parallel tier of the library: every kernel below works on packed
/// words — one AND/OR touches 64 Boolean cells — instead of index lists.
/// multiply() accumulates per-tile products Gustavson-style over the block
/// grid with three inner paths picked per tile pair (sparse scatter, row-OR,
/// and an 8-bit Four-Russians lookup table for dense tiles); transpose() is
/// an in-register 64x64 bit transpose per tile; the element-wise family and
/// mxv/reduce are word-wide sweeps. Work is observable through the
/// spbla.bitblock.* telemetry tallies of profiling builds (blocks touched,
/// words ANDed, lookup hits).
#pragma once

#include "backend/context.hpp"
#include "core/bitblocks.hpp"
#include "core/spvector.hpp"

namespace spbla::ops {

/// Boolean product C = A x B on the block grid.
[[nodiscard]] BitBlockMatrix multiply(backend::Context& ctx, const BitBlockMatrix& a,
                                      const BitBlockMatrix& b);

/// Element-wise OR; shapes must match.
[[nodiscard]] BitBlockMatrix ewise_add(backend::Context& ctx, const BitBlockMatrix& a,
                                       const BitBlockMatrix& b);

/// Element-wise AND; shapes must match.
[[nodiscard]] BitBlockMatrix ewise_mult(backend::Context& ctx, const BitBlockMatrix& a,
                                        const BitBlockMatrix& b);

/// Transpose (per-tile in-register 64x64 bit transpose + grid transpose).
[[nodiscard]] BitBlockMatrix transpose(backend::Context& ctx, const BitBlockMatrix& a);

/// V[i] = OR over row i (the paper's reduce-to-column-vector).
[[nodiscard]] SpVector reduce_to_column(backend::Context& ctx, const BitBlockMatrix& a);

/// y = A x (Boolean matrix-vector product on packed words).
[[nodiscard]] SpVector mxv(backend::Context& ctx, const BitBlockMatrix& a,
                           const SpVector& x);

}  // namespace spbla::ops
