/// \file validate.hpp
/// \brief Structural validators for the sparse formats, plus the op wiring
/// macro.
///
/// Every kernel in src/ops and the CFPQ/RPQ drivers calls SPBLA_VALIDATE on
/// its operands at entry and its result at exit. At the default checks level
/// the macro compiles to nothing; at SPBLA_CHECKS=full each call runs the
/// full O(nnz) structural check (monotone row offsets, in-bounds
/// strictly-sorted columns, nnz consistency) and throws Error on violation,
/// so a kernel that emits a corrupt matrix fails at its own boundary instead
/// of poisoning a later op.
#pragma once

#include "core/csr.hpp"
#include "core/spvector.hpp"
#include "util/contracts.hpp"

namespace spbla::core {

/// Check all CsrMatrix storage invariants; throws Error(InvalidState).
void validate(const CsrMatrix& m);

/// Check all SpVector storage invariants; throws Error(InvalidState).
void validate(const SpVector& v);

}  // namespace spbla::core

/// Structural validation of a matrix/vector, active at SPBLA_CHECKS=full.
#define SPBLA_VALIDATE(m) SPBLA_CHECKED(::spbla::core::validate(m))
