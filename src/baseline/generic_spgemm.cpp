#include "baseline/generic_spgemm.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ops/spgemm_plan.hpp"
#include "util/bit_ops.hpp"
#include "util/parallel.hpp"

namespace spbla::baseline {
namespace {

constexpr Index kEmptySlot = 0xFFFFFFFFu;

/// Worker-local open-addressing hash map: column -> accumulated value.
struct HashMapScratch {
    std::vector<Index> keys;
    std::vector<float> vals;
    std::vector<Index> order;
};

/// Accumulate row \p i of A*B into the hash map; returns distinct count.
/// When \p emit is true the sorted (col, val) pairs are left in scratch.
Index hashmap_row(const GenericCsr& a, const GenericCsr& b, Index i, std::uint64_t ub,
                  HashMapScratch& s, bool emit) {
    if (ub == 0) {
        s.order.clear();
        return 0;
    }
    std::uint64_t want = util::next_pow2(ub * 2);
    const std::uint64_t cap = util::next_pow2(static_cast<std::uint64_t>(b.ncols()) * 2);
    if (want > cap) want = cap;
    if (want < 16) want = 16;
    const Index mask = static_cast<Index>(want - 1);
    s.keys.assign(static_cast<std::size_t>(want), kEmptySlot);
    s.vals.assign(static_cast<std::size_t>(want), 0.0f);

    Index count = 0;
    const auto arow = a.row(i);
    const auto avals = a.row_vals(i);
    for (std::size_t t = 0; t < arow.size(); ++t) {
        const Index k = arow[t];
        const float av = avals[t];
        const auto brow = b.row(k);
        const auto bvals = b.row_vals(k);
        for (std::size_t u = 0; u < brow.size(); ++u) {
            const Index c = brow[u];
            const float prod = av * bvals[u];  // the FMA the Boolean kernel skips
            Index h = (c * 2654435761u) & mask;
            for (;;) {
                const Index cur = s.keys[h];
                if (cur == c) {
                    s.vals[h] += prod;
                    break;
                }
                if (cur == kEmptySlot) {
                    s.keys[h] = c;
                    s.vals[h] = prod;
                    ++count;
                    break;
                }
                h = (h + 1) & mask;
            }
        }
    }
    if (emit) {
        s.order.clear();
        s.order.reserve(count);
        for (Index h = 0; h <= mask; ++h) {
            if (s.keys[h] != kEmptySlot) s.order.push_back(h);
        }
        std::sort(s.order.begin(), s.order.end(),
                  [&s](Index x, Index y) { return s.keys[x] < s.keys[y]; });
    }
    return count;
}

/// Worker scratch of the value-carrying lean path: the shared marker and
/// bitmap (ops/spgemm_plan.hpp), plus a float accumulator over ncols beside
/// them, the marker rows' new columns and a (col, val) buffer for the sort
/// rows, each allocated on first use.
class LeanScratch : public ops::LeanScratchBase {
public:
    LeanScratch(backend::Context& ctx, Index ncols, std::size_t buffer_cap)
        : LeanScratchBase{ctx, ncols}, buffer_cap_{buffer_cap} {}

    [[nodiscard]] float* acc() { return carve(acc_, ncols()); }
    [[nodiscard]] Index* fresh() { return carve(fresh_, buffer_cap_); }
    struct Product {
        Index col;
        float val;
    };
    [[nodiscard]] Product* products() { return carve(products_, buffer_cap_); }

private:
    std::size_t buffer_cap_;
    backend::DeviceBuffer<float> acc_;
    backend::DeviceBuffer<Index> fresh_;
    backend::DeviceBuffer<Product> products_;
};

/// Write row i of A*B as sorted (col, val) pairs to \p cols / \p vals in one
/// pass, with the Boolean kernel's row classes; returns its length. Rows
/// with ub == 0 never get here: the runner leaves them empty in runs.
Index lean_row(const GenericCsr& a, const GenericCsr& b, Index i, std::uint64_t ub,
               const ops::LeanRowClasses& classes, LeanScratch& s, Index* cols, float* vals) {
    const Index* a_off = a.row_offsets().data();
    const Index* a_cols = a.cols().data();
    const float* a_vals = a.vals().data();
    const Index* b_off = b.row_offsets().data();
    const Index* b_cols = b.cols().data();
    const float* b_vals = b.vals().data();
    if (ub < classes.sort_below) {
        // Gather (col, product) pairs, sort by column, sum the runs.
        LeanScratch::Product* g = s.products();
        std::size_t n = 0;
        for (Index p = a_off[i]; p < a_off[i + 1]; ++p) {
            const Index k = a_cols[p];
            const float av = a_vals[p];
            for (Index q = b_off[k]; q < b_off[k + 1]; ++q) {
                g[n++] = {b_cols[q], av * b_vals[q]};  // the FMA the Boolean kernel skips
            }
        }
        std::sort(g, g + n, [](const auto& x, const auto& y) { return x.col < y.col; });
        Index out = 0;
        for (std::size_t t = 0; t < n; ++t) {
            if (out != 0 && cols[out - 1] == g[t].col) {
                vals[out - 1] += g[t].val;
            } else {
                cols[out] = g[t].col;
                vals[out] = g[t].val;
                ++out;
            }
        }
        return out;
    }
    float* acc = s.acc();
    if (ub >= classes.dense_from) {
        std::uint64_t* bitmap = s.bitmap();
        std::uint32_t* touched = s.touched();
        std::size_t n_touched = 0;
        for (Index p = a_off[i]; p < a_off[i + 1]; ++p) {
            const Index k = a_cols[p];
            const float av = a_vals[p];
            for (Index q = b_off[k]; q < b_off[k + 1]; ++q) {
                const Index c = b_cols[q];
                const float prod = av * b_vals[q];
                const std::size_t w = c >> 6;
                const std::uint64_t bit = std::uint64_t{1} << (c & 63);
                if (bitmap[w] == 0) touched[n_touched++] = static_cast<std::uint32_t>(w);
                if ((bitmap[w] & bit) == 0) {
                    bitmap[w] |= bit;
                    acc[c] = prod;
                } else {
                    acc[c] += prod;
                }
            }
        }
        std::sort(touched, touched + n_touched);
        Index n = 0;
        for (std::size_t t = 0; t < n_touched; ++t) {
            const std::uint32_t w = touched[t];
            std::uint64_t bits = bitmap[w];
            bitmap[w] = 0;
            const Index base = static_cast<Index>(w) << 6;
            while (bits != 0) {
                const Index c = base + static_cast<Index>(std::countr_zero(bits));
                cols[n] = c;
                vals[n] = acc[c];
                ++n;
                bits &= bits - 1;
            }
        }
        return n;
    }
    Index* marker = s.marker();
    Index* fresh = s.fresh();
    Index n_fresh = 0;
    for (Index p = a_off[i]; p < a_off[i + 1]; ++p) {
        const Index k = a_cols[p];
        const float av = a_vals[p];
        for (Index q = b_off[k]; q < b_off[k + 1]; ++q) {
            const Index c = b_cols[q];
            const float prod = av * b_vals[q];
            if (marker[c] != i) {
                marker[c] = i;
                acc[c] = prod;
                fresh[n_fresh++] = c;
            } else {
                acc[c] += prod;
            }
        }
    }
    std::sort(fresh, fresh + n_fresh);
    for (Index t = 0; t < n_fresh; ++t) {
        cols[t] = fresh[t];
        vals[t] = acc[fresh[t]];
    }
    return n_fresh;
}

}  // namespace

GenericCsr multiply_hash(backend::Context& ctx, const GenericCsr& a, const GenericCsr& b) {
    check(a.ncols() == b.nrows(), Status::DimensionMismatch, "generic spgemm: shape");
    const Index m = a.nrows();
    const Index ncols = b.ncols();

    // Same structure as the Boolean kernel: one walk over A gives the
    // per-row product bounds, which pick the lean path (the shared runner of
    // ops/spgemm_plan.hpp) or size the hash tables of the two-pass one.
    const ops::SpGemmOptions opts{};
    const ops::RowBounds bounds =
        ops::row_bounds(ctx, m, b.nrows(), ncols, a.row_offsets().data(), a.cols().data(),
                        b.row_offsets().data(), nullptr, util::Schedule::Dynamic);
    const std::uint64_t* ub = bounds.ub.data();
    if (ops::lean_eligible(opts, bounds.max, bounds.out_bound)) {
        const ops::LeanRowClasses classes = ops::lean_row_classes(opts, ncols, bounds);
        std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
        std::vector<Index> cols;
        std::vector<float> vals;
        ops::lean_run<float>(
            ctx, m, bounds.out_bound,
            ops::lean_chunk_count(ops::lean_workers(ctx), bounds.busy_rows, ncols,
                                  bounds.out_bound),
            [&](Index i) { return std::min<std::uint64_t>(ub[i], ncols); },
            [&](Index i) { return ub[i] == 0 ? ops::RowFrom::Empty : ops::RowFrom::Write; },
            {},
            [&] { return LeanScratch{ctx, ncols, classes.buffer_cap}; },
            [&](LeanScratch& s, Index i, Index* out_cols, float* out_vals) {
                return lean_row(a, b, i, ub[i], classes, s, out_cols, out_vals);
            },
            row_offsets.data(), cols, &vals);
        return GenericCsr::from_raw(m, ncols, std::move(row_offsets), std::move(cols),
                                    std::move(vals));
    }

    auto row_sizes = ctx.alloc<Index>(m);
    ctx.parallel_for_chunks(m, 64, [&](std::size_t begin, std::size_t end) {
        HashMapScratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
            row_sizes[i] = hashmap_row(a, b, static_cast<Index>(i), ub[i], scratch, false);
        }
    });

    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::uint64_t total = 0;
    for (Index i = 0; i < m; ++i) {
        row_offsets[i] = static_cast<Index>(total);
        total += row_sizes[i];
    }
    row_offsets[m] = static_cast<Index>(total);
    check(total <= 0xFFFFFFFFull, Status::OutOfRange, "generic spgemm: nnz overflow");

    std::vector<Index> cols(static_cast<std::size_t>(total));
    std::vector<float> vals(static_cast<std::size_t>(total));
    ctx.parallel_for_chunks(m, 64, [&](std::size_t begin, std::size_t end) {
        HashMapScratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
            hashmap_row(a, b, static_cast<Index>(i), ub[i], scratch, true);
            std::size_t out = row_offsets[i];
            for (const auto h : scratch.order) {
                cols[out] = scratch.keys[h];
                vals[out] = scratch.vals[h];
                ++out;
            }
        }
    });

    return GenericCsr::from_raw(m, b.ncols(), std::move(row_offsets), std::move(cols),
                                std::move(vals));
}

GenericCsr multiply_esc(backend::Context& ctx, const GenericCsr& a, const GenericCsr& b) {
    check(a.ncols() == b.nrows(), Status::DimensionMismatch, "generic spgemm: shape");
    const Index m = a.nrows();

    // Expand: materialise every partial product (this is the memory hog —
    // the buffer is proportional to the number of products, not the result).
    std::uint64_t products = 0;
    for (Index i = 0; i < m; ++i) {
        for (const auto k : a.row(i)) products += b.row_nnz(k);
    }
    auto exp_rows = ctx.alloc<Index>(products);
    auto exp_cols = ctx.alloc<Index>(products);
    auto exp_vals = ctx.alloc<float>(products);

    std::size_t out = 0;
    for (Index i = 0; i < m; ++i) {
        const auto arow = a.row(i);
        const auto avals = a.row_vals(i);
        for (std::size_t t = 0; t < arow.size(); ++t) {
            const auto brow = b.row(arow[t]);
            const auto bvals = b.row_vals(arow[t]);
            for (std::size_t u = 0; u < brow.size(); ++u) {
                exp_rows[out] = i;
                exp_cols[out] = brow[u];
                exp_vals[out] = avals[t] * bvals[u];
                ++out;
            }
        }
    }

    // Sort by (row, col). Rows are already grouped, so sort each row segment.
    std::vector<Index> perm(products);
    for (std::size_t k = 0; k < products; ++k) perm[k] = static_cast<Index>(k);
    std::size_t seg_begin = 0;
    for (std::size_t k = 1; k <= products; ++k) {
        if (k == products || exp_rows[k] != exp_rows[seg_begin]) {
            std::sort(perm.begin() + static_cast<std::ptrdiff_t>(seg_begin),
                      perm.begin() + static_cast<std::ptrdiff_t>(k),
                      [&](Index x, Index y) { return exp_cols[x] < exp_cols[y]; });
            seg_begin = k;
        }
    }

    // Compress by (row, col) key, summing duplicate products.
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> cols;
    std::vector<float> vals;
    Index last_row = 0;
    bool have_last = false;
    for (std::size_t k = 0; k < products; ++k) {
        const Index p = perm[k];
        const Index r = exp_rows[p];
        const Index c = exp_cols[p];
        if (have_last && r == last_row && c == cols.back()) {
            vals.back() += exp_vals[p];
        } else {
            cols.push_back(c);
            vals.push_back(exp_vals[p]);
            ++row_offsets[r + 1];
            last_row = r;
            have_last = true;
        }
    }
    for (Index r = 0; r < m; ++r) row_offsets[r + 1] += row_offsets[r];

    return GenericCsr::from_raw(m, b.ncols(), std::move(row_offsets), std::move(cols),
                                std::move(vals));
}

}  // namespace spbla::baseline
