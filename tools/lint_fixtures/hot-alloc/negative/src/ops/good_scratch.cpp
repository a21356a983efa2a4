// Fixture: kernel scratch as tracked Context::alloc buffers, plus the shapes
// the rule must not flag — reference bindings, output-slot assigns, serial
// vectors, and an annotated deliberate cold-path allocation.
#include <cstddef>
#include <vector>

#include "backend/context.hpp"

namespace spbla {

void tracked_rows(backend::Context& ctx, std::size_t n,
                  std::vector<std::vector<int>>& cache) {
    std::vector<int> serial_scratch(n);  // serial code: fine
    serial_scratch.resize(n + 1);
    ctx.parallel_for_chunks(n, 8, [&](std::size_t b, std::size_t e) {
        auto scratch = ctx.alloc<int>(64);  // tracked chunk scratch: fine
        for (std::size_t i = b; i < e; ++i) {
            const std::vector<int>& row = cache[i];  // reference binding
            cache[i].assign(row.begin(), row.end());  // output slot, not scratch
            std::vector<int> cold(row.size());  // lint:allow(hot-alloc) cold path
            scratch[0] = cold.empty() ? 0 : cold[0];
        }
    });
}

}  // namespace spbla
