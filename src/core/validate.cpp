#include "core/validate.hpp"

namespace spbla::core {

void validate(const CsrMatrix& m) { m.validate(); }

void validate(const SpVector& v) { v.validate(); }

}  // namespace spbla::core
