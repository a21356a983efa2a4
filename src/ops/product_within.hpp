/// \file product_within.hpp
/// \brief Containment test A x B within C, with no product built.
///
/// The squaring closure keeps adj <= C <= adj+, so C is the closure exactly
/// when adj x C lies within C (adj^(i+1) <= adj x C <= C by induction). The
/// test walks A's rows: row i marks C's row in a per-chunk byte marker, then
/// reads the B rows that A's row selects against it, and stops at the first
/// product cell the marker lacks. Nothing is written; the chunks share one
/// stop flag, so a miss ends every chunk at its next row.
#pragma once

#include "backend/context.hpp"
#include "core/csr.hpp"

namespace spbla::ops {

/// Whether every cell of A x B is set in C (DimensionMismatch unless
/// A.ncols == B.nrows and C is A.nrows x B.ncols).
[[nodiscard]] bool product_within(backend::Context& ctx, const CsrMatrix& a,
                                  const CsrMatrix& b, const CsrMatrix& c);

}  // namespace spbla::ops
