#include "ops/product_within.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "core/validate.hpp"
#include "ops/spgemm_plan.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

bool product_within(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b,
                    const CsrMatrix& c) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "product_within: inner dimensions disagree");
    SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(), Status::DimensionMismatch,
                  "product_within: C's shape disagrees with the product's");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_VALIDATE(c);
    SPBLA_PROF_SPAN("product_within");
    if (a.nnz() == 0 || b.nnz() == 0) return true;

    const Index m = a.nrows();
    const Index ncols = b.ncols();
    const CsrView av{a};
    const CsrView bv{b};
    const CsrView cv{c};
    // The walk reads about nnz(A) x (average B row) marker bytes, and a
    // chunk pays for its own ncols-byte marker.
    const std::uint64_t per_entry = (std::uint64_t{b.nnz()} + b.nrows() - 1) / b.nrows();
    const std::size_t n_chunks =
        lean_chunk_count(lean_workers(ctx), m, ncols, std::uint64_t{a.nnz()} * per_entry);
    const std::size_t grain = (std::size_t{m} + n_chunks - 1) / n_chunks;

    std::atomic<bool> open{false};
    ctx.parallel_for_chunks(m, grain, [&](std::size_t begin, std::size_t end) {
        auto marker = ctx.alloc<std::uint8_t>(ncols);
        std::uint8_t* mark = marker.data();
        std::fill_n(mark, ncols, std::uint8_t{0});
        for (std::size_t i = begin; i < end; ++i) {
            if (av.off[i] == av.off[i + 1]) continue;
            if (open.load(std::memory_order_relaxed)) return;
            const Index* c_row = cv.cols + cv.off[i];
            const Index* c_end = cv.cols + cv.off[i + 1];
            for (const Index* p = c_row; p != c_end; ++p) mark[*p] = 1;
            std::uint8_t held = 1;
            for (Index q = av.off[i]; q < av.off[i + 1] && held != 0; ++q) {
                const Index k = av.cols[q];
                for (Index r = bv.off[k]; r < bv.off[k + 1]; ++r) held &= mark[bv.cols[r]];
            }
            for (const Index* p = c_row; p != c_end; ++p) mark[*p] = 0;
            if (held == 0) {
                open.store(true, std::memory_order_relaxed);
                return;
            }
        }
    });
    return !open.load(std::memory_order_relaxed);
}

}  // namespace spbla::ops
