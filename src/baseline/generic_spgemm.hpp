/// \file generic_spgemm.hpp
/// \brief Generic (value-carrying) SpGEMM comparators.
///
/// Two baselines bracket the libraries the paper compares against:
///  - hash: the same structure as the Boolean kernel, carrying float
///    products. Every op takes the same one-pass path, with the same row
///    classes and the same chunked runner (ops/spgemm_plan.hpp): sort rows
///    gather and sort (col, product) pairs, marker rows add a float
///    accumulator over ncols, bitmap rows the same accumulator, and each
///    staging segment a value array. This isolates exactly the
///    Boolean-specialisation delta: the value arrays and the multiply-adds.
///  - esc: expand-sort-compress (CUSP's strategy) — materialise every
///    partial product as (col, val), sort, then compress by key. Simple,
///    memory-hungry, the paper's "up to 4x more memory" end of the bracket.
#pragma once

#include "backend/context.hpp"
#include "baseline/generic_csr.hpp"

namespace spbla::baseline {

/// C = A x B with float arithmetic, on the Boolean kernel's row classes.
[[nodiscard]] GenericCsr multiply_hash(backend::Context& ctx, const GenericCsr& a,
                                       const GenericCsr& b);

/// C = A x B with float arithmetic using expand-sort-compress.
[[nodiscard]] GenericCsr multiply_esc(backend::Context& ctx, const GenericCsr& a,
                                      const GenericCsr& b);

}  // namespace spbla::baseline
