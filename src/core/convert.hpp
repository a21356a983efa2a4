/// \file convert.hpp
/// \brief Conversions between the storage formats.
///
/// The storage engine holds every matrix in CSR; the other formats exist
/// beside it. CSR <-> COO serves the footprint comparison with the paper's
/// clBool format, and CSR <-> dense the tests' reference oracle. The
/// Context& overloads run on the device pool (parallel row passes +
/// exclusive scan); the context-free ones delegate to the process default
/// context.
#pragma once

#include "backend/context.hpp"
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

/// Context-free conveniences (default context's pool).
[[nodiscard]] CsrMatrix to_csr(const CooMatrix& coo);
[[nodiscard]] CooMatrix to_coo(const CsrMatrix& csr);
[[nodiscard]] CsrMatrix to_csr(const DenseMatrix& dense);
[[nodiscard]] DenseMatrix to_dense(const CsrMatrix& csr);

}  // namespace spbla
