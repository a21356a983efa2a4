#include "algorithms/triangles.hpp"

#include <atomic>

namespace spbla::algorithms {

std::uint64_t count_triangles(backend::Context& ctx, const Matrix& adj) {
    check(adj.nrows() == adj.ncols(), Status::DimensionMismatch,
          "count_triangles: matrix must be square");
    const auto& rows = adj.csr();
    // Edge iterator: for each edge (u, v) with u < v, count common
    // neighbours w with w > v; each triangle u < v < w is counted once.
    std::atomic<std::uint64_t> total{0};
    ctx.parallel_for_chunks(rows.nrows(), 128, [&](std::size_t begin, std::size_t end) {
        std::uint64_t local = 0;
        for (std::size_t ui = begin; ui < end; ++ui) {
            const auto u = static_cast<Index>(ui);
            const auto nu = rows.row(u);
            for (const auto v : nu) {
                if (v <= u) continue;
                const auto nv = rows.row(v);
                // Intersect the parts of N(u) and N(v) above v.
                std::size_t a = 0, b = 0;
                while (a < nu.size() && nu[a] <= v) ++a;
                while (b < nv.size() && nv[b] <= v) ++b;
                while (a < nu.size() && b < nv.size()) {
                    if (nu[a] < nv[b])
                        ++a;
                    else if (nv[b] < nu[a])
                        ++b;
                    else {
                        ++local;
                        ++a;
                        ++b;
                    }
                }
            }
        }
        total.fetch_add(local, std::memory_order_relaxed);
    });
    return total.load();
}

}  // namespace spbla::algorithms
