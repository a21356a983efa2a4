/// \file dispatch.cpp
/// \brief The op table every storage operation routes through.
///
/// Every public op is one OpSpec entry in the table at the bottom of this
/// file, and route() is the one instrumented skeleton they all run.

#include "storage/dispatch.hpp"

#include <optional>
#include <type_traits>
#include <vector>

#include "ops/ops.hpp"
#include "prof/prof.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace spbla::storage {

namespace {

template <class Fn>
struct OpSpec;

/// One entry of the op table, typed by the public function it backs.
template <class Out, class... Args>
struct OpSpec<Out(backend::Context&, Args...)> {
    const char* span;    ///< prof span, "storage.dispatch.<op>"
    const char* flight;  ///< flight-recorder op name
    /// Empty-operand fast path: the result when it applies, else nullopt.
    std::optional<Out> (*shortcut)(backend::Context&, Args...) = nullptr;
    /// The CSR kernel.
    Out (*kernel)(backend::Context&, Args...) = nullptr;
    /// For SpVector results: a 1 x n row (true) or an n x 1 column.
    bool row_vector = false;
};

using KroneckerTerms = std::span<const KroneckerTerm>;

template <class T>
[[nodiscard]] std::uint64_t nnz_of(const T& x) noexcept {
    if constexpr (std::is_same_v<T, Matrix> || std::is_same_v<T, SpVector>) {
        return x.nnz();
    } else if constexpr (std::is_same_v<T, const Matrix*>) {
        return x != nullptr ? x->nnz() : 0;
    } else if constexpr (std::is_same_v<T, KroneckerTerms>) {
        std::uint64_t total = 0;
        for (const auto& [a, b] : x) total += a->nnz() + b->nnz();
        return total;
    } else {
        return 0;
    }
}

/// The one routing skeleton: span, empty-operand shortcut, kernel,
/// telemetry close. A result that is neither a matrix nor a vector (the
/// containment test's bool) books as a 1 x 1 result with no cells.
template <const auto& Op, class... Ts>
auto route(backend::Context& ctx, const Ts&... args) {
    SPBLA_PROF_SPAN(Op.span);
    const util::Timer timer;
    const std::uint64_t nnz_in = (nnz_of(args) + ...);
    // Close the op's telemetry once the result exists: one DispatchOps and
    // one DispatchCsr count, the latency histogram, the nnz in/out
    // histograms and a flight-recorder record. Ops that throw record
    // nothing — the invariant "sum of latency-histogram counts ==
    // spbla.dispatch.ops" is what check_trace --require-metrics verifies.
    const auto done = [&](const auto& out) {
        using Out = std::remove_cvref_t<decltype(out)>;
        Index nrows = 1, ncols = 1;
        if constexpr (std::is_same_v<Out, Matrix>) {
            nrows = out.nrows();
            ncols = out.ncols();
        } else if constexpr (std::is_same_v<Out, SpVector>) {
            (Op.row_vector ? ncols : nrows) = out.size();
        }
        const std::uint64_t nnz_out = nnz_of(out);
        const auto ns = static_cast<std::uint64_t>(timer.seconds() * 1e9);
        telemetry::count(telemetry::Counter::DispatchOps);
        telemetry::count(telemetry::Counter::DispatchCsr);
        telemetry::observe(telemetry::Histogram::OpLatencyCsrNs, ns);
        telemetry::observe(telemetry::Histogram::OpNnzIn, nnz_in);
        telemetry::observe(telemetry::Histogram::OpNnzOut, nnz_out);
        telemetry::flight::record(Op.flight, "csr", nrows, ncols, nnz_in, nnz_out, ns);
    };

    if (Op.shortcut != nullptr) {
        // Delta-shaped operand: a drained frontier (or empty base) decides
        // the result without a kernel. The fast path still closes the
        // telemetry scope, so the dispatch invariants hold.
        if (auto out = Op.shortcut(ctx, args...)) {
            telemetry::count(telemetry::Counter::IncrShortCircuits);
            done(*out);
            return *std::move(out);
        }
    }
    auto out = Op.kernel(ctx, args...);
    done(out);
    return out;
}

// ---------------------------------------------------------------------------
// The op table
// ---------------------------------------------------------------------------

constexpr OpSpec<decltype(multiply)> kMultiply{
    .span = "storage.dispatch.multiply",
    .flight = "multiply",
    .shortcut = [](backend::Context& ctx, const Matrix& a, const Matrix& b,
                   const ops::SpGemmOptions&) -> std::optional<Matrix> {
        if (!a.empty() && !b.empty()) return std::nullopt;
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "multiply: inner dimensions disagree");
        return Matrix{a.nrows(), b.ncols(), ctx};
    },
    .kernel = [](auto& ctx, const auto& a, const auto& b, const auto& opts) {
        return Matrix{ops::multiply(ctx, a.csr(), b.csr(), opts), ctx};
    },
};

constexpr OpSpec<decltype(multiply_add)> kMultiplyAdd{
    .span = "storage.dispatch.multiply_add",
    .flight = "multiply_add",
    .shortcut = [](backend::Context&, const Matrix& c, const Matrix& a, const Matrix& b,
                   const ops::SpGemmOptions&) -> std::optional<Matrix> {
        // Empty product term: the fused form degenerates to C itself. The
        // copy carries C's content version (same cells, same stamp), which
        // the version-keyed caches rely on.
        if (!a.empty() && !b.empty()) return std::nullopt;
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "multiply_add: inner dimensions disagree");
        SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(),
                      Status::DimensionMismatch, "multiply_add: accumulator shape disagrees");
        return Matrix{c};
    },
    .kernel = [](auto& ctx, const auto& c, const auto& a, const auto& b, const auto& opts) {
        return Matrix{ops::multiply_add(ctx, c.csr(), a.csr(), b.csr(), opts), ctx};
    },
};

constexpr OpSpec<decltype(product_within)> kProductWithin{
    .span = "storage.dispatch.product_within",
    .flight = "product_within",
    .shortcut = [](backend::Context&, const Matrix& a, const Matrix& b,
                   const Matrix& c) -> std::optional<bool> {
        // An empty product lies within any C of the right shape.
        if (!a.empty() && !b.empty()) return std::nullopt;
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "product_within: inner dimensions disagree");
        SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(),
                      Status::DimensionMismatch,
                      "product_within: C's shape disagrees with the product's");
        return true;
    },
    .kernel = [](auto& ctx, const auto& a, const auto& b, const auto& c) {
        return ops::product_within(ctx, a.csr(), b.csr(), c.csr());
    },
};

constexpr OpSpec<decltype(ewise_add)> kEwiseAdd{
    .span = "storage.dispatch.ewise_add",
    .flight = "ewise_add",
    .kernel = [](auto& ctx, const auto& a, const auto& b) {
        return Matrix{ops::ewise_add(ctx, a.csr(), b.csr()), ctx};
    },
};

constexpr OpSpec<decltype(ewise_mult)> kEwiseMult{
    .span = "storage.dispatch.ewise_mult",
    .flight = "ewise_mult",
    .kernel = [](auto& ctx, const auto& a, const auto& b) {
        return Matrix{ops::ewise_mult(ctx, a.csr(), b.csr()), ctx};
    },
};

constexpr OpSpec<decltype(ewise_diff)> kEwiseDiff{
    .span = "storage.dispatch.ewise_diff",
    .flight = "ewise_diff",
    .kernel = [](auto& ctx, const auto& a, const auto& b) {
        return Matrix{ops::ewise_diff(ctx, a.csr(), b.csr()), ctx};
    },
};

constexpr OpSpec<decltype(kronecker)> kKronecker{
    .span = "storage.dispatch.kronecker",
    .flight = "kronecker",
    .kernel = [](auto& ctx, const auto& a, const auto& b) {
        return Matrix{ops::kronecker(ctx, a.csr(), b.csr()), ctx};
    },
};

// One fused pass over every term, reading each term's CSR rows directly.
constexpr OpSpec<decltype(kronecker_sum)> kKroneckerSum{
    .span = "storage.dispatch.kronecker_sum",
    .flight = "kronecker_sum",
    .kernel = [](auto& ctx, Index nrows, Index ncols, KroneckerTerms terms) {
        if (terms.empty()) return Matrix{nrows, ncols, ctx};
        std::vector<ops::KroneckerTerm> csr_terms;
        csr_terms.reserve(terms.size());
        for (const auto& [a, b] : terms) csr_terms.push_back({&a->csr(), &b->csr()});
        CsrMatrix out = ops::kronecker_sum(ctx, csr_terms);
        SPBLA_REQUIRE(out.nrows() == nrows && out.ncols() == ncols,
                      Status::DimensionMismatch,
                      "kronecker_sum: terms disagree with the declared shape");
        return Matrix{std::move(out), ctx};
    },
};

constexpr OpSpec<decltype(transpose)> kTranspose{
    .span = "storage.dispatch.transpose",
    .flight = "transpose",
    .kernel = [](auto& ctx, const auto& a) { return Matrix{ops::transpose(ctx, a.csr()), ctx}; },
};

constexpr OpSpec<decltype(submatrix)> kSubmatrix{
    .span = "storage.dispatch.submatrix",
    .flight = "submatrix",
    .kernel = [](auto& ctx, const auto& a, auto r0, auto c0, auto m, auto n) {
        return Matrix{ops::submatrix(ctx, a.csr(), r0, c0, m, n), ctx};
    },
};

constexpr OpSpec<decltype(fold_blocks)> kFoldBlocks{
    .span = "storage.dispatch.fold_blocks",
    .flight = "fold_blocks",
    .kernel = [](auto& ctx, const Matrix& src, Index row0, std::span<const Index> col0s,
                 Index m, bool with_identity, const Matrix* minus) {
        return Matrix{ops::fold_blocks(ctx, src.csr(), row0, col0s, m, m, with_identity,
                                       minus != nullptr ? &minus->csr() : nullptr),
                      ctx};
    },
};

constexpr OpSpec<decltype(reduce_to_column)> kReduceToColumn{
    .span = "storage.dispatch.reduce_to_column",
    .flight = "reduce_to_col",
    .kernel = [](auto& ctx, const auto& a) { return ops::reduce_to_column(ctx, a.csr()); },
};

constexpr OpSpec<decltype(reduce_to_row)> kReduceToRow{
    .span = "storage.dispatch.reduce_to_row",
    .flight = "reduce_to_row",
    .kernel = [](auto& ctx, const auto& a) { return ops::reduce_to_row(ctx, a.csr()); },
    .row_vector = true,
};

constexpr OpSpec<decltype(mxv)> kMxv{
    .span = "storage.dispatch.mxv",
    .flight = "mxv",
    .kernel = [](auto& ctx, const auto& a, const auto& x) { return ops::mxv(ctx, a.csr(), x); },
};

constexpr OpSpec<decltype(vxm)> kVxm{
    .span = "storage.dispatch.vxm",
    .flight = "vxm",
    .kernel = [](auto& ctx, const auto& x, const auto& a) { return ops::vxm(ctx, x, a.csr()); },
    .row_vector = true,
};

constexpr OpSpec<decltype(multiply_masked)> kMultiplyMasked{
    .span = "storage.dispatch.multiply_masked",
    .flight = "mxm_masked",
    .kernel = [](auto& ctx, const auto& mask, const auto& a, const auto& bt, bool complement) {
        return Matrix{ops::multiply_masked(ctx, mask.csr(), a.csr(), bt.csr(), complement), ctx};
    },
};

}  // namespace

Matrix multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                const ops::SpGemmOptions& opts) {
    return route<kMultiply>(ctx, a, b, opts);
}

Matrix multiply_add(backend::Context& ctx, const Matrix& c, const Matrix& a,
                    const Matrix& b, const ops::SpGemmOptions& opts) {
    return route<kMultiplyAdd>(ctx, c, a, b, opts);
}

bool product_within(backend::Context& ctx, const Matrix& a, const Matrix& b, const Matrix& c) {
    return route<kProductWithin>(ctx, a, b, c);
}

Matrix ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kEwiseAdd>(ctx, a, b);
}

Matrix ewise_mult(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kEwiseMult>(ctx, a, b);
}

Matrix ewise_diff(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kEwiseDiff>(ctx, a, b);
}

Matrix kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    return route<kKronecker>(ctx, a, b);
}

Matrix kronecker_sum(backend::Context& ctx, Index nrows, Index ncols, KroneckerTerms terms) {
    return route<kKroneckerSum>(ctx, nrows, ncols, terms);
}

Matrix transpose(backend::Context& ctx, const Matrix& a) { return route<kTranspose>(ctx, a); }

Matrix submatrix(backend::Context& ctx, const Matrix& a, Index r0, Index c0, Index m,
                 Index n) {
    return route<kSubmatrix>(ctx, a, r0, c0, m, n);
}

Matrix fold_blocks(backend::Context& ctx, const Matrix& src, Index row0,
                   std::span<const Index> col0s, Index m, bool with_identity,
                   const Matrix* minus) {
    return route<kFoldBlocks>(ctx, src, row0, col0s, m, with_identity, minus);
}

SpVector reduce_to_column(backend::Context& ctx, const Matrix& a) {
    return route<kReduceToColumn>(ctx, a);
}

SpVector reduce_to_row(backend::Context& ctx, const Matrix& a) {
    return route<kReduceToRow>(ctx, a);
}

std::size_t reduce_scalar(const Matrix& a) noexcept { return a.nnz(); }

SpVector mxv(backend::Context& ctx, const Matrix& a, const SpVector& x) {
    return route<kMxv>(ctx, a, x);
}

SpVector vxm(backend::Context& ctx, const SpVector& x, const Matrix& a) {
    return route<kVxm>(ctx, x, a);
}

Matrix multiply_masked(backend::Context& ctx, const Matrix& mask, const Matrix& a,
                       const Matrix& b_transposed, bool complement) {
    return route<kMultiplyMasked>(ctx, mask, a, b_transposed, complement);
}

}  // namespace spbla::storage
