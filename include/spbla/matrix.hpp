/// \file matrix.hpp
/// \brief High-level C++ facade over the SPbLA kernels.
///
/// The paper ships pyspbla, a thin object wrapper over the C API that makes
/// the operation set pleasant to compose. The facade class *is* the
/// storage-engine handle: spbla::Matrix lives in src/storage/matrix.hpp,
/// owns one CSR matrix, and routes every operator through the instrumented
/// dispatch layer. This header re-exports it together with the dispatch
/// entry points so user code keeps a single include.
#pragma once

#include "storage/dispatch.hpp"  // IWYU pragma: export
#include "storage/matrix.hpp"    // IWYU pragma: export
