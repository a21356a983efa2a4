#include "ops/mxv.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

SpVector mxv(backend::Context& ctx, const CsrMatrix& m, const SpVector& x) {
    SPBLA_REQUIRE(m.ncols() == x.size(), Status::DimensionMismatch,
                  "mxv: shape mismatch");
    SPBLA_VALIDATE(m);
    SPBLA_VALIDATE(x);
    SPBLA_PROF_SPAN("mxv");
    const auto xs = x.indices();
    std::vector<std::uint8_t> hit(m.nrows(), 0);
    ctx.parallel_for_chunks(m.nrows(), 512, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto row = m.row(static_cast<Index>(i));
            // Intersect the sorted row with the sorted frontier.
            std::size_t a = 0, b = 0;
            while (a < row.size() && b < xs.size()) {
                if (row[a] < xs[b])
                    ++a;
                else if (xs[b] < row[a])
                    ++b;
                else {
                    hit[i] = 1;
                    break;
                }
            }
        }
    });
    std::vector<Index> out;
    for (Index i = 0; i < m.nrows(); ++i) {
        if (hit[i]) out.push_back(i);
    }
    SpVector result = SpVector::from_indices(m.nrows(), std::move(out));
    SPBLA_VALIDATE(result);
    return result;
}

SpVector vxm(backend::Context& ctx, const SpVector& x, const CsrMatrix& m) {
    (void)ctx;
    SPBLA_REQUIRE(m.nrows() == x.size(), Status::DimensionMismatch,
                  "vxm: shape mismatch");
    SPBLA_VALIDATE(m);
    SPBLA_VALIDATE(x);
    SPBLA_PROF_SPAN("vxm");
    // Union of the rows selected by the frontier.
    std::vector<std::uint8_t> hit(m.ncols(), 0);
    for (const auto i : x.indices()) {
        for (const auto c : m.row(i)) hit[c] = 1;
    }
    std::vector<Index> out;
    for (Index c = 0; c < m.ncols(); ++c) {
        if (hit[c]) out.push_back(c);
    }
    SpVector result = SpVector::from_indices(m.ncols(), std::move(out));
    SPBLA_VALIDATE(result);
    return result;
}

}  // namespace spbla::ops
