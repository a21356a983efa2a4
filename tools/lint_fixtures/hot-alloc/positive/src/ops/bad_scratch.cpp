// Fixture: raw heap scratch inside parallel extents — the allocation-churn
// shape the arena refactor removed (re-adding one must fail this rule).
#include <cstddef>
#include <vector>

#include "backend/context.hpp"

namespace spbla {

void hot_rows(backend::Context& ctx, std::size_t n) {
    std::vector<int> grown_serially;  // declared outside: seeds the name set
    ctx.parallel_for_chunks(n, 8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            std::vector<int> per_row(64);  // constructed per row
            per_row[0] = static_cast<int>(i);
            grown_serially.resize(i);  // regrown per row
        }
    });
}

void hot_chunks(backend::Context& ctx, std::size_t n) {
    ctx.parallel_for_chunks(n, 8, [&](std::size_t b, std::size_t e) {
        auto tmp = std::vector<std::size_t>(e - b);  // temporary per chunk
        tmp[0] = b;
    });
}

}  // namespace spbla
