#include "ops/kronecker.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

/// One target block of a plan row i1: A-column \p col and the terms
/// plan.terms[first, last) whose A_t has (i1, col) set.
struct Block {
    Index col;
    std::size_t first;
    std::size_t last;
};

/// Per-A-row target blocks in ascending column order, built once per call.
struct Plan {
    std::vector<std::size_t> row_offsets;  ///< rA + 1 offsets into blocks
    std::vector<Block> blocks;
    std::vector<std::size_t> terms;  ///< term ids, grouped by block
    std::size_t max_shared{1};       ///< most terms sharing one block
};

/// Terms with an empty factor contribute nothing and are left out.
[[nodiscard]] Plan make_plan(std::span<const KroneckerTerm> terms, Index a_rows) {
    Plan plan;
    plan.row_offsets.reserve(static_cast<std::size_t>(a_rows) + 1);
    plan.row_offsets.push_back(0);
    std::vector<std::pair<Index, std::size_t>> entries;  // (j1, term) of one A-row
    for (Index i1 = 0; i1 < a_rows; ++i1) {
        entries.clear();
        for (std::size_t t = 0; t < terms.size(); ++t) {
            if (terms[t].b->empty()) continue;
            for (const Index j1 : terms[t].a->row(i1)) entries.emplace_back(j1, t);
        }
        std::sort(entries.begin(), entries.end());
        for (std::size_t e = 0; e < entries.size();) {
            const Index col = entries[e].first;
            const std::size_t first = plan.terms.size();
            for (; e < entries.size() && entries[e].first == col; ++e) {
                plan.terms.push_back(entries[e].second);
            }
            plan.blocks.push_back({col, first, plan.terms.size()});
            plan.max_shared = std::max(plan.max_shared, plan.terms.size() - first);
        }
        plan.row_offsets.push_back(plan.blocks.size());
    }
    return plan;
}

/// Read position in one B row during a k-way merge.
struct Cursor {
    const Index* at;
    const Index* end;
};

/// Row i2 of a B factor, read off its raw arrays (no per-row bounds check).
[[nodiscard]] std::span<const Index> b_row(const CsrMatrix& b, Index i2) noexcept {
    const auto offsets = b.row_offsets();
    return b.cols().subspan(offsets[i2], offsets[i2 + 1] - offsets[i2]);
}

/// Output row (i1, i2): counts its cells, and with \p Write also stores them
/// at \p out in ascending order. \p heads is scratch for plan.max_shared rows.
template <bool Write>
Index fill_row(const Plan& plan, std::span<const KroneckerTerm> terms, Index i1, Index i2,
               Index b_cols, Index* out, Cursor* heads) {
    Index n = 0;
    const auto emit = [&](Index base, std::span<const Index> src) {
        if constexpr (Write) {
            for (const Index c : src) out[n++] = base + c;
        } else {
            n += static_cast<Index>(src.size());
        }
    };
    for (std::size_t k = plan.row_offsets[i1]; k < plan.row_offsets[i1 + 1]; ++k) {
        const Block& blk = plan.blocks[k];
        const Index base = blk.col * b_cols;
        if (blk.last - blk.first == 1) {
            emit(base, b_row(*terms[plan.terms[blk.first]].b, i2));
            continue;
        }
        // Several terms share the block: k-way merge of their sorted rows,
        // each column emitted once.
        std::size_t live = 0;
        for (std::size_t t = blk.first; t < blk.last; ++t) {
            const auto row = b_row(*terms[plan.terms[t]].b, i2);
            if (!row.empty()) heads[live++] = {row.data(), row.data() + row.size()};
        }
        while (live > 1) {
            Index c = *heads[0].at;
            for (std::size_t h = 1; h < live; ++h) c = std::min(c, *heads[h].at);
            if constexpr (Write) out[n] = base + c;
            ++n;
            for (std::size_t h = 0; h < live;) {
                if (*heads[h].at == c) ++heads[h].at;
                if (heads[h].at == heads[h].end) {
                    heads[h] = heads[--live];
                } else {
                    ++h;
                }
            }
        }
        if (live == 1) emit(base, {heads[0].at, heads[0].end});
    }
    return n;
}

}  // namespace

CsrMatrix kronecker_sum(backend::Context& ctx, std::span<const KroneckerTerm> terms) {
    SPBLA_REQUIRE(!terms.empty(), Status::InvalidArgument, "kronecker_sum: no terms");
    const CsrMatrix& a0 = *terms.front().a;
    const CsrMatrix& b0 = *terms.front().b;
    std::uint64_t in_total = 0;
    for (const auto& [a, b] : terms) {
        SPBLA_VALIDATE(*a);
        SPBLA_VALIDATE(*b);
        SPBLA_REQUIRE(a->nrows() == a0.nrows() && a->ncols() == a0.ncols() &&
                          b->nrows() == b0.nrows() && b->ncols() == b0.ncols(),
                      Status::DimensionMismatch,
                      "kronecker_sum: terms disagree on factor shapes");
        in_total += a->nnz() + b->nnz();
    }
    const std::uint64_t out_rows = static_cast<std::uint64_t>(a0.nrows()) * b0.nrows();
    const std::uint64_t out_cols = static_cast<std::uint64_t>(a0.ncols()) * b0.ncols();
    SPBLA_REQUIRE(out_rows <= 0xFFFFFFFFull && out_cols <= 0xFFFFFFFFull,
                  Status::OutOfRange, "kronecker_sum: result shape overflows Index");
    // Every term is a subset of the sum, so one term past Index already
    // overflows it; the exact total is checked after the count pass.
    for (const auto& [a, b] : terms) {
        SPBLA_REQUIRE(static_cast<std::uint64_t>(a->nnz()) * b->nnz() <= 0xFFFFFFFFull,
                      Status::OutOfRange, "kronecker_sum: result nnz overflows Index");
    }
    SPBLA_PROF_SPAN("kronecker_sum");

    const Index m = static_cast<Index>(out_rows);
    const Index b_rows = b0.nrows();
    const Index b_cols = b0.ncols();
    const Plan plan = make_plan(terms, a0.nrows());

    // Both passes run one output row per launch item; each chunk borrows
    // merge cursors from its worker's arena.
    const auto launch_rows = [&](const auto& row_fn) {
        ctx.parallel_for_chunks(m, 256, [&](std::size_t begin, std::size_t end) {
            auto heads = ctx.scratch_alloc<Cursor>(plan.max_shared);
            for (std::size_t r = begin; r < end; ++r) {
                const auto row = static_cast<Index>(r);
                row_fn(row, row / b_rows, row % b_rows, heads.data());
            }
        });
    };

    // Pass 1: exact row sizes, scanned in place into the CSR offsets. The
    // offsets and columns become the result, so they come from the pool.
    auto row_offsets = ctx.buffer_pool().acquire_zeroed(static_cast<std::size_t>(m) + 1);
    launch_rows([&](Index r, Index i1, Index i2, Cursor* heads) {
        row_offsets[r] = fill_row<false>(plan, terms, i1, i2, b_cols, nullptr, heads);
    });
    const std::uint64_t total = ctx.exclusive_scan(row_offsets);
    SPBLA_REQUIRE(total <= 0xFFFFFFFFull, Status::OutOfRange,
                  "kronecker_sum: result nnz overflows Index");

    // Pass 2: every row written straight into its exact slot.
    auto cols = ctx.buffer_pool().acquire(static_cast<std::size_t>(total));
    launch_rows([&](Index r, Index i1, Index i2, Cursor* heads) {
        (void)fill_row<true>(plan, terms, i1, i2, b_cols, cols.data() + row_offsets[r], heads);
    });

    CsrMatrix out = CsrMatrix::from_raw(m, static_cast<Index>(out_cols),
                                        std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

CsrMatrix kronecker(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    const KroneckerTerm term{&a, &b};
    return kronecker_sum(ctx, {&term, 1});
}

}  // namespace spbla::ops
