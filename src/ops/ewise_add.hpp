/// \file ewise_add.hpp
/// \brief Element-wise Boolean addition (OR) of sparse matrices.
///
/// Reproduces cuBool: a GPU-Merge-Path-style two-pass per-row merge — the
/// first pass counts the union size of every row pair so the result is
/// allocated exactly, the second pass merges.
#pragma once

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// C = A | B for CSR matrices of equal shape (two-pass row merge).
[[nodiscard]] CsrMatrix ewise_add(backend::Context& ctx, const CsrMatrix& a,
                                  const CsrMatrix& b);

}  // namespace spbla::ops
