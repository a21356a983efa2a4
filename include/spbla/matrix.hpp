/// \file matrix.hpp
/// \brief High-level C++ facade over the SPbLA kernels.
///
/// The paper ships pyspbla, a thin object wrapper over the C API that makes
/// the operation set pleasant to compose. As of the storage-engine refactor
/// the facade class *is* the format-polymorphic handle: spbla::Matrix lives
/// in src/storage/matrix.hpp, owns one of the two representations (CSR or
/// 64x64 bit blocks), and routes every operator through the cost-driven
/// dispatch layer. This header re-exports it together with the dispatch
/// entry points so user code keeps a single include.
#pragma once

#include "storage/dispatch.hpp"  // IWYU pragma: export
#include "storage/matrix.hpp"    // IWYU pragma: export
