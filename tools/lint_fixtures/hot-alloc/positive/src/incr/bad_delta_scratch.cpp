// Fixture: the incremental layer is inside the hot-alloc perimeter too —
// per-round scratch in a semi-naive loop must go through Context::alloc.
#include <cstddef>
#include <vector>

#include "backend/context.hpp"

namespace spbla::incr {

void hot_frontier(backend::Context& ctx, std::size_t n) {
    ctx.parallel_for_chunks(n, 8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            std::vector<int> per_round(64);  // constructed per frontier row
            per_round[0] = static_cast<int>(i);
        }
    });
}

}  // namespace spbla::incr
