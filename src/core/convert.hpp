/// \file convert.hpp
/// \brief Conversions between the storage formats.
///
/// The storage engine's two representations, CSR and the 64x64 bit-block
/// grid, convert losslessly into each other; these Context& overloads run on
/// the device pool (parallel row passes + exclusive scan) and are the hot
/// path of format dispatch. CSR <-> COO serves the footprint comparison with
/// the paper's clBool format, and CSR <-> dense the tests' reference oracle.
/// The context-free overloads delegate to the process default context.
#pragma once

#include "backend/context.hpp"
#include "core/bitblocks.hpp"
#include "core/coo.hpp"
#include "core/csr.hpp"
#include "core/dense.hpp"

namespace spbla {

/// COO -> CSR (O(nnz) work, parallel row-pointer search + copy).
[[nodiscard]] CsrMatrix to_csr(backend::Context& ctx, const CooMatrix& coo);

/// CSR -> COO (O(nnz) work, parallel row expansion).
[[nodiscard]] CooMatrix to_coo(backend::Context& ctx, const CsrMatrix& csr);

/// Dense -> CSR (parallel popcount + exclusive scan + parallel bit scatter).
[[nodiscard]] CsrMatrix to_csr(backend::Context& ctx, const DenseMatrix& dense);

/// CSR -> dense (parallel per-row bit fill).
[[nodiscard]] DenseMatrix to_dense(backend::Context& ctx, const CsrMatrix& csr);

/// CSR -> BitBlocks (parallel per-block-row tiling; hybrid tiles chosen by
/// population against BitBlockMatrix::kBitmapMinNnz).
[[nodiscard]] BitBlockMatrix to_bitblocks(backend::Context& ctx, const CsrMatrix& csr);

/// BitBlocks -> CSR (parallel per-block-row expansion).
[[nodiscard]] CsrMatrix to_csr(backend::Context& ctx, const BitBlockMatrix& bb);

/// Context-free conveniences (default context's pool).
[[nodiscard]] CsrMatrix to_csr(const CooMatrix& coo);
[[nodiscard]] CooMatrix to_coo(const CsrMatrix& csr);
[[nodiscard]] CsrMatrix to_csr(const DenseMatrix& dense);
[[nodiscard]] DenseMatrix to_dense(const CsrMatrix& csr);

}  // namespace spbla
