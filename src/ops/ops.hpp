/// \file ops.hpp
/// \brief Umbrella header for every Boolean kernel in the library.
#pragma once

#include "ops/ewise_add.hpp"   // IWYU pragma: export
#include "ops/ewise_mult.hpp"  // IWYU pragma: export
#include "ops/kronecker.hpp"   // IWYU pragma: export
#include "ops/masked.hpp"      // IWYU pragma: export
#include "ops/mxv.hpp"         // IWYU pragma: export
#include "ops/reduce.hpp"      // IWYU pragma: export
#include "ops/spgemm.hpp"      // IWYU pragma: export
#include "ops/submatrix.hpp"   // IWYU pragma: export
#include "ops/transpose.hpp"   // IWYU pragma: export
