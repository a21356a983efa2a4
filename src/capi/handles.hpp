/// \file handles.hpp
/// \brief Definitions behind the opaque C API handles (spbla/spbla.h).
///
/// Only the C API implementation and white-box tests include this; C callers
/// see the handles as opaque pointers.
#pragma once

#include "spbla/spbla.h"

#include "core/spvector.hpp"
#include "storage/matrix.hpp"

struct spbla_Matrix_t {
    spbla::Matrix data;
};

struct spbla_Vector_t {
    spbla::SpVector data;
};
