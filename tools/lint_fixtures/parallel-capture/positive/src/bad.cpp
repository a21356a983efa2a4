// Fixture: lazy accessors inside parallel extents with no prewarm — the
// PR 6 bug shape (re-adding an unguarded accessor must fail this rule).
#include "storage/matrix.hpp"
namespace spbla {
void hot_loop(backend::Context& ctx, const Matrix& m) {
    ctx.parallel_for(64, 8, [&](std::size_t i) {
        (void)m.csr(ctx);
        (void)i;
    });
}
void hot_job(util::ThreadPool& pool, backend::Context& ctx, const Matrix& n) {
    pool.submit([&] {
        (void)n.bitblocks(ctx);
    });
}
}  // namespace spbla
