#include "ops/kronecker.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "ops/spgemm_plan.hpp"
#include "prof/prof.hpp"
#include "util/bit_ops.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

constexpr std::uint64_t kMaxIndex = 0xFFFFFFFFull;

/// One target block of an A-row: the B factor it reads (raw CSR arrays) and
/// the column shift j1 * cB of its A-column j1.
struct Block {
    const Index* off;
    const Index* cols;
    Index shift;
};

/// Per-A-row block tables in ascending column order, built once per call.
/// Output row (i1, i2) starts at base[i1] + sum over the blocks of i1 of
/// off[i2], so every offset, and the exact nnz base[rA], comes straight
/// from the factors' own row offsets.
struct Plan {
    std::vector<std::size_t> row_blocks;  ///< rA + 1 offsets into blocks
    std::vector<Block> blocks;
    std::vector<std::uint64_t> base;  ///< rA + 1 output positions
    std::deque<CsrMatrix> unions;     ///< the B factors of shared blocks
};

/// The union of same-shape matrices \p bs (at least two), in one pass over
/// their rows: each row a k-way merge of the factors' sorted rows, appended
/// to the output. Every union cell is a cell of the Kronecker sum, so an
/// overflowing union is the sum's nnz overflow.
[[nodiscard]] CsrMatrix union_of(const std::vector<const CsrMatrix*>& bs) {
    const Index rows = bs.front()->nrows();
    std::size_t bound = 0;
    for (const CsrMatrix* b : bs) bound += b->nnz();
    std::vector<Index> off(static_cast<std::size_t>(rows) + 1, 0);
    std::vector<Index> cols;
    cols.reserve(bound);
    std::vector<std::pair<const Index*, const Index*>> heads(bs.size());
    for (Index i = 0; i < rows; ++i) {
        std::size_t live = 0;
        for (const CsrMatrix* b : bs) {
            const Index* b_off = b->row_offsets().data();
            if (b_off[i] != b_off[i + 1]) {
                heads[live++] = {b->cols().data() + b_off[i], b->cols().data() + b_off[i + 1]};
            }
        }
        while (live > 1) {
            Index c = *heads[0].first;
            for (std::size_t h = 1; h < live; ++h) c = std::min(c, *heads[h].first);
            cols.push_back(c);
            for (std::size_t h = 0; h < live;) {
                if (*heads[h].first == c) ++heads[h].first;
                if (heads[h].first == heads[h].second) {
                    heads[h] = heads[--live];
                } else {
                    ++h;
                }
            }
        }
        if (live == 1) cols.insert(cols.end(), heads[0].first, heads[0].second);
        SPBLA_REQUIRE(cols.size() <= kMaxIndex, Status::OutOfRange,
                      "kronecker_sum: result nnz overflows Index");
        off[i + 1] = static_cast<Index>(cols.size());
    }
    return CsrMatrix::from_raw(rows, bs.front()->ncols(), std::move(off), std::move(cols));
}

/// Terms with an empty B factor contribute nothing and are left out. A block
/// set in several terms reads the union of their distinct B factors (terms
/// holding the same B object count once), built once per distinct factor
/// set. Throws OutOfRange as soon as the running nnz passes an Index, before
/// the output exists.
[[nodiscard]] Plan make_plan(std::span<const KroneckerTerm> terms, Index a_rows, Index b_cols) {
    Plan plan;
    plan.row_blocks.reserve(static_cast<std::size_t>(a_rows) + 1);
    plan.row_blocks.push_back(0);
    plan.base.reserve(static_cast<std::size_t>(a_rows) + 1);
    plan.base.push_back(0);
    // A B factor's id is the first term that holds it.
    std::vector<std::size_t> factor_of(terms.size());
    for (std::size_t t = 0; t < terms.size(); ++t) {
        factor_of[t] = t;
        for (std::size_t u = 0; u < t; ++u) {
            if (terms[u].b == terms[t].b) {
                factor_of[t] = u;
                break;
            }
        }
    }
    std::map<std::vector<std::size_t>, const CsrMatrix*> union_for;
    std::vector<std::pair<Index, std::size_t>> entries;  // (j1, factor id) of one A-row
    std::vector<std::size_t> ids;
    std::vector<const CsrMatrix*> factors;
    std::uint64_t total = 0;
    for (Index i1 = 0; i1 < a_rows; ++i1) {
        entries.clear();
        for (std::size_t t = 0; t < terms.size(); ++t) {
            if (terms[t].b->empty()) continue;
            for (const Index j1 : terms[t].a->row(i1)) entries.emplace_back(j1, factor_of[t]);
        }
        std::sort(entries.begin(), entries.end());
        entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
        for (std::size_t e = 0; e < entries.size();) {
            const Index col = entries[e].first;
            ids.clear();
            for (; e < entries.size() && entries[e].first == col; ++e) {
                ids.push_back(entries[e].second);
            }
            const CsrMatrix* src = terms[ids.front()].b;
            if (ids.size() > 1) {
                auto [it, fresh] = union_for.try_emplace(ids, nullptr);
                if (fresh) {
                    factors.clear();
                    for (const std::size_t id : ids) factors.push_back(terms[id].b);
                    it->second = &plan.unions.emplace_back(union_of(factors));
                }
                src = it->second;
            }
            plan.blocks.push_back(
                {src->row_offsets().data(), src->cols().data(), col * b_cols});
            total += src->nnz();
        }
        SPBLA_REQUIRE(total <= kMaxIndex, Status::OutOfRange,
                      "kronecker_sum: result nnz overflows Index");
        plan.row_blocks.push_back(plan.blocks.size());
        plan.base.push_back(total);
    }
    return plan;
}

/// Rows [lo, hi) of A-row \p i1's output: offsets to \p row_offsets (indexed
/// by i2) and columns to \p out, each row written once at its final place.
void write_rows(const Plan& plan, Index i1, Index lo, Index hi, Index* row_offsets, Index* out) {
    const Block* blocks = plan.blocks.data() + plan.row_blocks[i1];
    const std::size_t n_blocks = plan.row_blocks[i1 + 1] - plan.row_blocks[i1];
    const auto base = static_cast<Index>(plan.base[i1]);
    if (n_blocks == 0) {
        std::fill(row_offsets + lo, row_offsets + hi, base);
        return;
    }
    if (n_blocks == 1) {
        // The rows are B's rows [lo, hi) shifted: one run of B's columns.
        const Block& blk = blocks[0];
        for (Index i2 = lo; i2 < hi; ++i2) row_offsets[i2] = base + blk.off[i2];
        const Index* src = blk.cols + blk.off[lo];
        Index* dst = out + base + blk.off[lo];
        const Index len = blk.off[hi] - blk.off[lo];
        for (Index p = 0; p < len; ++p) dst[p] = src[p] + blk.shift;
        return;
    }
    // Several blocks: each row is the concatenation of the blocks' rows in
    // column order.
    Index pos = base;
    for (std::size_t k = 0; k < n_blocks; ++k) pos += blocks[k].off[lo];
    for (Index i2 = lo; i2 < hi; ++i2) {
        row_offsets[i2] = pos;
        for (std::size_t k = 0; k < n_blocks; ++k) {
            const Block& blk = blocks[k];
            for (Index p = blk.off[i2]; p < blk.off[i2 + 1]; ++p) {
                out[pos++] = blk.cols[p] + blk.shift;
            }
        }
    }
}

}  // namespace

CsrMatrix kronecker_sum(backend::Context& ctx, std::span<const KroneckerTerm> terms) {
    SPBLA_REQUIRE(!terms.empty(), Status::InvalidArgument, "kronecker_sum: no terms");
    const CsrMatrix& a0 = *terms.front().a;
    const CsrMatrix& b0 = *terms.front().b;
    for (const auto& [a, b] : terms) {
        SPBLA_VALIDATE(*a);
        SPBLA_VALIDATE(*b);
        SPBLA_REQUIRE(a->nrows() == a0.nrows() && a->ncols() == a0.ncols() &&
                          b->nrows() == b0.nrows() && b->ncols() == b0.ncols(),
                      Status::DimensionMismatch,
                      "kronecker_sum: terms disagree on factor shapes");
    }
    const std::uint64_t out_rows = static_cast<std::uint64_t>(a0.nrows()) * b0.nrows();
    const std::uint64_t out_cols = static_cast<std::uint64_t>(a0.ncols()) * b0.ncols();
    SPBLA_REQUIRE(out_rows <= kMaxIndex && out_cols <= kMaxIndex, Status::OutOfRange,
                  "kronecker_sum: result shape overflows Index");
    SPBLA_PROF_SPAN("kronecker_sum");

    const Index m = static_cast<Index>(out_rows);
    const Index b_rows = b0.nrows();
    const Plan plan = make_plan(terms, a0.nrows(), b0.ncols());
    const std::uint64_t total = plan.base.back();

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1);
    std::vector<Index> cols(static_cast<std::size_t>(total));
    row_offsets[m] = static_cast<Index>(total);
    // Contiguous chunks of output rows; a chunk may start or end inside an
    // A-row, and writes the rows it owns only.
    const std::size_t n_chunks = lean_chunk_count(lean_workers(ctx), m, 0, total);
    const auto run = [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end;) {
            const auto i1 = static_cast<Index>(r / b_rows);
            const std::size_t first = static_cast<std::size_t>(i1) * b_rows;
            const auto lo = static_cast<Index>(r - first);
            const auto hi = static_cast<Index>(std::min<std::size_t>(b_rows, end - first));
            write_rows(plan, i1, lo, hi, row_offsets.data() + first, cols.data());
            r = first + hi;
        }
    };
    ctx.parallel_for_chunks(m, util::ceil_div(m, n_chunks), run);

    CsrMatrix out = CsrMatrix::from_raw(m, static_cast<Index>(out_cols), std::move(row_offsets),
                                        std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

CsrMatrix kronecker(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    const KroneckerTerm term{&a, &b};
    return kronecker_sum(ctx, {&term, 1});
}

}  // namespace spbla::ops
