/// \file ewise_add.hpp
/// \brief Element-wise Boolean addition (OR) of sparse matrices.
///
/// cuBool runs a GPU-Merge-Path-style two-pass merge: a pass counting every
/// row pair's union, a scan, then the merge into exact slots. Here each row
/// is merged once into staging at its bound |a| + |b| (a row whose partner
/// is empty is copied across), and the chunked join compacts the rows into
/// an exact-size result (ops/ewise_plan.hpp).
#pragma once

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// C = A | B for CSR matrices of equal shape (one-pass row merge).
[[nodiscard]] CsrMatrix ewise_add(backend::Context& ctx, const CsrMatrix& a,
                                  const CsrMatrix& b);

}  // namespace spbla::ops
