/// \file quickstart.cpp
/// \brief First contact with the SPbLA C++ API.
///
/// Builds two small Boolean matrices, runs every primitive the paper lists
/// (multiply-add, element-wise add, Kronecker product, transpose,
/// sub-matrix, reduce) and prints the results.
#include <cstdio>

#include "backend/context.hpp"
#include "spbla/matrix.hpp"

namespace {

void print_matrix(const char* name, const spbla::Matrix& m) {
    std::printf("%s (%u x %u, %zu nnz):\n", name, m.nrows(), m.ncols(), m.nnz());
    for (const auto& c : m.to_coords()) std::printf("  (%u, %u)\n", c.row, c.col);
}

}  // namespace

int main() {
    using namespace spbla;

    // A context is the simulated device every kernel runs on.
    backend::Context ctx{backend::Policy::Parallel};

    // Fill matrix with values {(i, j)_k}_k — a tiny directed graph.
    const auto a = Matrix::from_coords(4, 4, {{0, 1}, {1, 2}, {2, 3}}, ctx);
    const auto b = Matrix::from_coords(4, 4, {{1, 0}, {2, 1}, {3, 2}}, ctx);
    print_matrix("A", a);
    print_matrix("B", b);

    // C += A x B over the Boolean semiring. The storage engine picks the
    // representation (CSR or 64x64 bit blocks) per operation.
    const auto c = storage::multiply_add(ctx, Matrix{4, 4, ctx}, a, b);
    print_matrix("A * B", c);

    // M += N (element-wise addition).
    print_matrix("A + B", storage::ewise_add(ctx, a, b));

    // K = A (x) B (Kronecker product).
    const auto k = storage::kronecker(ctx, a, b);
    std::printf("A (x) B: %u x %u with %zu nnz\n", k.nrows(), k.ncols(), k.nnz());

    // M = N^T.
    print_matrix("A^T", storage::transpose(ctx, a));

    // M = N[0..2, 1..3].
    print_matrix("A[0..2, 1..3]", storage::submatrix(ctx, a, 0, 1, 2, 2));

    // V = reduceToColumn(A).
    const auto v = storage::reduce_to_column(ctx, a);
    std::printf("reduceToColumn(A): %zu non-empty rows\n", v.nnz());

    // The memory story: Boolean CSR costs (m + 1 + nnz) indices.
    std::printf("device footprint of A: %zu bytes\n", a.device_bytes());
    std::printf("peak tracked device memory: %zu bytes\n", ctx.tracker().peak_bytes());
    return 0;
}
