/// \file generic_ewise_add.hpp
/// \brief Generic (value-carrying) element-wise addition comparator.
///
/// Same one-pass row merge on the same runner as the Boolean kernel
/// (ops/ewise_plan.hpp), but merging float values too (summing where both
/// operands are present) — the extra value traffic the Boolean
/// specialisation avoids.
#pragma once

#include "backend/context.hpp"
#include "baseline/generic_csr.hpp"

namespace spbla::baseline {

/// C = A + B for equal-shape matrices, summing coincident values.
[[nodiscard]] GenericCsr ewise_add(backend::Context& ctx, const GenericCsr& a,
                                   const GenericCsr& b);

}  // namespace spbla::baseline
