// Fixture: concrete format headers included above the storage engine.
#include "core/csr.hpp"
#include "core/dense.hpp"
void use() {}
