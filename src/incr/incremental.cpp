#include "incr/incremental.hpp"

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "algorithms/closure.hpp"
#include "cfpq/azimov.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"

namespace spbla::incr {

namespace {

/// Effective insert set of a batch against \p before: cells genuinely new.
Matrix effective_adds(backend::Context& ctx, const Matrix& adds,
                      const Matrix& before) {
    return storage::ewise_diff(ctx, adds, before);
}

/// Effective delete set: cells actually present and not re-inserted by the
/// same batch (delete-then-insert — the insert wins).
Matrix effective_dels(backend::Context& ctx, const Matrix& removes,
                      const Matrix& adds, const Matrix& before) {
    return storage::ewise_diff(ctx, storage::ewise_mult(ctx, removes, before),
                               adds);
}

/// DRed re-derivation restricted to the suspect pairs of a delete batch:
/// returns the cells of \p suspect that no path of \p a_mid reaches, i.e.
/// C(A) \ C(A_mid). Induction on the last edge (w, j) of a surviving path
/// i ⇝ j: the cell (i, w) before it is the diagonal, a kept (non-suspect)
/// cell of row i, or a suspect pair re-derived earlier. So the seed is
/// R₀ = suspect ∩ (A_mid ∪ K_S·A_mid), with K_S the kept cells of the rows
/// that hold a suspect pair, and R_{k+1} = rest ∩ R_k·A_mid, with rest the
/// suspect pairs not re-derived yet. Every matrix here is compacted to those
/// rows (row k stands for row rows[k]), so no op walks all n rows of C.
Matrix underivable(backend::Context& ctx, const Matrix& c, const Matrix& suspect,
                   const Matrix& a_mid, const ops::SpGemmOptions& opts,
                   std::size_t& rounds) {
    const algorithms::RowCompaction rows{ctx, suspect};
    const Matrix sus = rows.gather(ctx, suspect);
    const Matrix kept = storage::ewise_diff(ctx, rows.gather(ctx, c), sus);
    Matrix frontier = storage::ewise_mult(
        ctx, sus,
        storage::multiply(ctx, storage::ewise_add(ctx, rows.selector(), kept), a_mid, opts));
    Matrix rest = storage::ewise_diff(ctx, sus, frontier);
    while (!frontier.empty() && !rest.empty()) {
        ++rounds;
        SPBLA_PROF_SPAN_ITER("incr.closure.round", rounds);
        telemetry::count(telemetry::Counter::IncrFrontierNnz, frontier.nnz());
        frontier =
            storage::ewise_mult(ctx, rest, storage::multiply(ctx, frontier, a_mid, opts));
        rest = storage::ewise_diff(ctx, rest, frontier);
    }
    return rows.scatter(ctx, rest);
}

/// One spbla.incr.batches per caller batch that names any cell, plus those
/// cells in spbla.incr.delta_nnz. IncrementalRpq and IncrementalCfpq fold a
/// batch into several handles (one per label, then the product) with
/// Matrix::fold_delta, so the batch is booked here once, with the caller's
/// cells only.
void book_batch(std::uint64_t cells) {
    if (cells == 0) return;
    telemetry::count(telemetry::Counter::IncrBatches);
    telemetry::count(telemetry::Counter::IncrDeltaNnz, cells);
}

/// Per-batch saved-iterations accounting shared by the three drivers.
void account_batch(IncrStats& stats, std::size_t rounds_used) {
    stats.rounds += rounds_used;
    const std::uint64_t saved = stats.baseline_rounds > rounds_used
                                    ? stats.baseline_rounds - rounds_used
                                    : 0;
    stats.iterations_saved += saved;
    telemetry::count(telemetry::Counter::IncrIterationsSaved, saved);
    telemetry::count(telemetry::Counter::IncrBaselineRounds, stats.baseline_rounds);
}

}  // namespace

ClosureUpdate update_closure(backend::Context& ctx, Matrix& closure,
                             const Matrix& adj_after, const Matrix& add_eff,
                             const Matrix& del_eff,
                             const ops::SpGemmOptions& opts) {
    ClosureUpdate out;
    if (add_eff.empty() && del_eff.empty()) return out;
    // Every step builds a fresh handle, and closure is assigned only at the
    // end, so a throwing op leaves it untouched.
    std::optional<Matrix> repaired;

    if (!del_eff.empty()) {
        // DRed over-delete: every closure pair with an old derivation
        // through a deleted edge is suspect; every other pair keeps a
        // Δ⁻-free path. Only the suspect pairs are re-derived.
        const Matrix left =
            storage::ewise_add(ctx, del_eff, storage::multiply(ctx, closure, del_eff, opts));
        const Matrix suspect =
            storage::ewise_add(ctx, left, storage::multiply(ctx, left, closure, opts));
        // The graph between the two phases: A' minus this batch's inserts.
        std::optional<Matrix> a_mid_owned;
        if (!add_eff.empty()) a_mid_owned = storage::ewise_diff(ctx, adj_after, add_eff);
        const Matrix& a_mid = a_mid_owned ? *a_mid_owned : adj_after;
        const Matrix lost = underivable(ctx, closure, suspect, a_mid, opts, out.rounds);
        if (!lost.empty()) repaired = storage::ewise_diff(ctx, closure, lost);
    }

    if (!add_eff.empty()) {
        // Insert-only from here: extends the repaired closure, or the
        // closure itself (it assigns only after its last op).
        algorithms::ClosureStats cs;
        (void)algorithms::extend_closure(ctx, repaired ? *repaired : closure, add_eff,
                                         &cs, opts);
        out.rounds += cs.rounds;
    }
    if (repaired) closure = std::move(*repaired);
    return out;
}

// ---------------------------------------------------------------------------
// IncrementalClosure
// ---------------------------------------------------------------------------

IncrementalClosure::IncrementalClosure(backend::Context& ctx, Matrix adjacency,
                                       const ops::SpGemmOptions& opts)
    : ctx_{&ctx}, opts_{opts}, adj_{std::move(adjacency)} {
    SPBLA_PROF_SPAN("incr.closure");
    algorithms::ClosureStats cs;
    closure_ = algorithms::transitive_closure(
        ctx, adj_, algorithms::ClosureStrategy::Delta, &cs, opts_);
    stats_.baseline_rounds = cs.rounds;
}

void IncrementalClosure::apply(const Matrix& adds, const Matrix& removes) {
    SPBLA_PROF_SPAN("incr.closure");
    ++stats_.batches;
    const Matrix add_eff = effective_adds(*ctx_, adds, adj_);
    const Matrix del_eff = effective_dels(*ctx_, removes, adds, adj_);
    // The batch is folded into a new handle and committed only after the
    // closure update succeeds.
    Matrix after = adj_.with_delta(adds, removes, *ctx_);
    if (!add_eff.empty() || !del_eff.empty()) {
        const ClosureUpdate upd =
            update_closure(*ctx_, closure_, after, add_eff, del_eff, opts_);
        account_batch(stats_, upd.rounds);
    }
    adj_ = std::move(after);
}

// ---------------------------------------------------------------------------
// IncrementalRpq
// ---------------------------------------------------------------------------

IncrementalRpq::IncrementalRpq(backend::Context& ctx,
                               const data::LabeledGraph& graph, rpq::Dfa query,
                               const ops::SpGemmOptions& opts)
    : ctx_{&ctx},
      query_{std::move(query)},
      opts_{opts},
      n_{graph.num_vertices()},
      product_{query_.num_states * n_, query_.num_states * n_, ctx},
      closure_{query_.num_states * n_, query_.num_states * n_, ctx},
      reachable_{n_, n_, ctx} {
    SPBLA_PROF_SPAN("incr.rpq");
    // Cache the automaton matrices once: Dfa::matrix materialises a fresh
    // handle per call.
    for (const auto& symbol : query_.symbols()) {
        qmats_.emplace(symbol, query_.matrix(symbol));
    }
    for (const auto& label : graph.labels()) {
        labels_.emplace(label, graph.matrix(label));
    }
    for (const auto& [symbol, q] : qmats_) {
        auto it = labels_.find(symbol);
        if (it == labels_.end()) continue;
        product_ = storage::ewise_add(*ctx_, product_,
                                      storage::kronecker(*ctx_, q, it->second));
    }
    algorithms::ClosureStats cs;
    closure_ = algorithms::transitive_closure(
        ctx, product_, algorithms::ClosureStrategy::Delta, &cs, opts_);
    stats_.baseline_rounds = cs.rounds;
    refresh_reachable();
}

void IncrementalRpq::apply(const std::vector<data::LabeledEdge>& adds,
                           const std::vector<data::LabeledEdge>& removes) {
    SPBLA_PROF_SPAN("incr.rpq");
    ++stats_.batches;

    // Group the batch into per-label cell matrices.
    std::map<std::string, std::vector<Coord>> add_coords;
    std::map<std::string, std::vector<Coord>> del_coords;
    for (const auto& e : adds) add_coords[e.label].push_back({e.src, e.dst});
    for (const auto& e : removes) del_coords[e.label].push_back({e.src, e.dst});
    std::map<std::string, Matrix> add_eff;
    std::map<std::string, Matrix> del_eff;
    Matrix del_union{n_, n_, *ctx_};  // graph-space cells any label deletes
    std::uint64_t cells = 0;
    for (const auto& label : [&] {
             std::vector<std::string> ls;
             for (const auto& [l, _] : add_coords) ls.push_back(l);
             for (const auto& [l, _] : del_coords)
                 if (!add_coords.contains(l)) ls.push_back(l);
             return ls;
         }()) {
        auto ac = add_coords.find(label);
        auto dc = del_coords.find(label);
        const Matrix batch_add = Matrix::from_coords(
            n_, n_, ac != add_coords.end() ? ac->second : std::vector<Coord>{},
            *ctx_);
        const Matrix batch_del = Matrix::from_coords(
            n_, n_, dc != del_coords.end() ? dc->second : std::vector<Coord>{},
            *ctx_);
        auto [it, inserted] = labels_.try_emplace(label, n_, n_, *ctx_);
        Matrix& g = it->second;
        Matrix a = effective_adds(*ctx_, batch_add, g);
        Matrix d = effective_dels(*ctx_, batch_del, batch_add, g);
        g.fold_delta(batch_add, batch_del, *ctx_);
        cells += batch_add.nnz() + batch_del.nnz();
        if (!d.empty()) del_union = storage::ewise_add(*ctx_, del_union, d);
        if (!a.empty()) add_eff.emplace(label, std::move(a));
        if (!d.empty()) del_eff.emplace(label, std::move(d));
    }
    book_batch(cells);
    if (add_eff.empty() && del_eff.empty()) return;  // no effective change

    // Product deltas. A raw deleted cell survives when another label still
    // supports it, so the delete set is corrected against the patch
    // P = Σ_s Q_s ⊗ (G'_s ∩ U) over the touched graph cells U.
    Matrix raw_add{product_.nrows(), product_.ncols(), *ctx_};
    Matrix raw_del{product_.nrows(), product_.ncols(), *ctx_};
    Matrix patch{product_.nrows(), product_.ncols(), *ctx_};
    for (const auto& [symbol, q] : qmats_) {
        if (auto it = add_eff.find(symbol); it != add_eff.end()) {
            raw_add = storage::ewise_add(*ctx_, raw_add,
                                         storage::kronecker(*ctx_, q, it->second));
        }
        if (auto it = del_eff.find(symbol); it != del_eff.end()) {
            raw_del = storage::ewise_add(*ctx_, raw_del,
                                         storage::kronecker(*ctx_, q, it->second));
        }
        if (!del_union.empty()) {
            if (auto it = labels_.find(symbol); it != labels_.end()) {
                const Matrix touched =
                    storage::ewise_mult(*ctx_, it->second, del_union);
                if (!touched.empty()) {
                    patch = storage::ewise_add(
                        *ctx_, patch, storage::kronecker(*ctx_, q, touched));
                }
            }
        }
    }
    const Matrix prod_del = storage::ewise_diff(*ctx_, raw_del, patch);
    const Matrix prod_add = storage::ewise_diff(*ctx_, raw_add, product_);
    if (prod_add.empty() && prod_del.empty()) return;  // answers unchanged

    product_.fold_delta(prod_add, prod_del, *ctx_);
    const ClosureUpdate upd =
        update_closure(*ctx_, closure_, product_, prod_add, prod_del, opts_);
    account_batch(stats_, upd.rounds);
    refresh_reachable();
}

void IncrementalRpq::refresh_reachable() {
    // Mirrors rpq::build_index's answer extraction cell-for-cell.
    std::vector<Index> finals;
    for (const auto f : query_.accepting_states()) finals.push_back(f * n_);
    reachable_ = storage::fold_blocks(*ctx_, closure_, query_.start * n_, finals, n_,
                                      query_.accepting[static_cast<std::size_t>(query_.start)]);
}

data::LabeledGraph IncrementalRpq::current_graph() const {
    std::vector<data::LabeledEdge> edges;
    for (const auto& [label, m] : labels_) {
        for (const auto& [r, c] : m.to_coords()) edges.push_back({r, label, c});
    }
    return data::LabeledGraph::from_edges(n_, edges);
}

// ---------------------------------------------------------------------------
// IncrementalCfpq
// ---------------------------------------------------------------------------

IncrementalCfpq::IncrementalCfpq(backend::Context& ctx,
                                 const data::LabeledGraph& graph,
                                 const cfpq::Grammar& grammar,
                                 const ops::SpGemmOptions& opts)
    : ctx_{&ctx},
      cnf_{cfpq::to_cnf(grammar)},
      opts_{opts},
      n_{graph.num_vertices()} {
    for (const auto& label : graph.labels()) {
        labels_.emplace(label, graph.matrix(label));
    }
    rebuild();
    stats_.rebuilds = 0;  // the initial build is the baseline, not a fallback
}

void IncrementalCfpq::rebuild() {
    SPBLA_PROF_SPAN("incr.cfpq");
    nt_ = cfpq::seed_nonterminals(*ctx_, cnf_, n_, [&](const std::string& label) {
        const auto it = labels_.find(label);
        return it == labels_.end() ? nullptr : &it->second;
    });
    stats_.baseline_rounds = cfpq::azimov_fixpoint(*ctx_, cnf_, nt_, opts_);
    ++stats_.rebuilds;
}

void IncrementalCfpq::apply(const std::vector<data::LabeledEdge>& adds,
                            const std::vector<data::LabeledEdge>& removes) {
    SPBLA_PROF_SPAN("incr.cfpq");
    ++stats_.batches;

    std::map<std::string, std::vector<Coord>> add_coords;
    std::map<std::string, std::vector<Coord>> del_coords;
    for (const auto& e : adds) add_coords[e.label].push_back({e.src, e.dst});
    for (const auto& e : removes) del_coords[e.label].push_back({e.src, e.dst});
    std::map<std::string, Matrix> add_eff;
    bool any_delete = false;
    for (const auto& [label, coords] : del_coords) {
        auto it = labels_.find(label);
        if (it == labels_.end()) continue;
        const Matrix batch_del = Matrix::from_coords(n_, n_, coords, *ctx_);
        auto ac = add_coords.find(label);
        const Matrix batch_add = Matrix::from_coords(
            n_, n_, ac != add_coords.end() ? ac->second : std::vector<Coord>{},
            *ctx_);
        if (!effective_dels(*ctx_, batch_del, batch_add, it->second).empty()) {
            any_delete = true;
        }
    }
    for (const auto& [label, coords] : add_coords) {
        auto [it, inserted] = labels_.try_emplace(label, n_, n_, *ctx_);
        const Matrix batch_add = Matrix::from_coords(n_, n_, coords, *ctx_);
        Matrix a = effective_adds(*ctx_, batch_add, it->second);
        if (!a.empty()) add_eff.emplace(label, std::move(a));
    }
    // Fold the whole batch into the label matrices (delete-then-insert).
    std::uint64_t cells = 0;
    for (const auto& [label, coords] : del_coords) {
        auto it = labels_.find(label);
        if (it == labels_.end()) continue;
        auto ac = add_coords.find(label);
        const Matrix batch_add = Matrix::from_coords(
            n_, n_, ac != add_coords.end() ? ac->second : std::vector<Coord>{}, *ctx_);
        const Matrix batch_del = Matrix::from_coords(n_, n_, coords, *ctx_);
        it->second.fold_delta(batch_add, batch_del, *ctx_);
        cells += batch_add.nnz() + batch_del.nnz();
    }
    for (const auto& [label, coords] : add_coords) {
        if (del_coords.contains(label)) continue;  // folded above
        const Matrix batch_add = Matrix::from_coords(n_, n_, coords, *ctx_);
        labels_.at(label).fold_delta(batch_add, Matrix{n_, n_, *ctx_}, *ctx_);
        cells += batch_add.nnz();
    }
    book_batch(cells);

    if (any_delete) {
        // Non-monotone: derivations may die. Rebuild from the updated labels
        // (counted — the bench ladder shows what deletes cost vs inserts).
        rebuild();
        account_batch(stats_, stats_.baseline_rounds);
        return;
    }
    if (add_eff.empty()) return;  // no effective change

    // Semi-naive insert propagation: seed per-nonterminal frontiers from the
    // terminal rules, then push D_B·T_C ∪ T_B·D_C through every binary rule
    // until no frontier survives. T already includes the applied frontiers,
    // so D_B·D_C pairs are covered.
    const auto k = static_cast<std::size_t>(cnf_.num_nonterminals());
    std::vector<Matrix> d(k, Matrix{n_, n_, *ctx_});
    for (const auto& [a, label] : cnf_.terminal_rules) {
        auto it = add_eff.find(label);
        if (it == add_eff.end()) continue;
        auto& da = d[static_cast<std::size_t>(a)];
        da = storage::ewise_add(*ctx_, da, it->second);
    }
    for (std::size_t a = 0; a < k; ++a) {
        if (d[a].empty()) continue;
        d[a] = storage::ewise_diff(*ctx_, d[a], nt_[a]);
        if (!d[a].empty()) nt_[a] = storage::ewise_add(*ctx_, nt_[a], d[a]);
    }
    std::size_t rounds = 0;
    for (bool live = true; live;) {
        live = false;
        for (const auto& m : d) {
            if (!m.empty()) {
                live = true;
                break;
            }
        }
        if (!live) break;
        ++rounds;
        SPBLA_PROF_SPAN_ITER("incr.cfpq.round", rounds);
        std::vector<Matrix> nd(k, Matrix{n_, n_, *ctx_});
        // nd[a] |= x·y, dispatching nothing when a factor is empty.
        const auto gain = [&](std::size_t a, const Matrix& x, const Matrix& y) {
            if (x.empty() || y.empty()) return;
            Matrix p = storage::multiply(*ctx_, x, y, opts_);
            nd[a] = nd[a].empty() ? std::move(p) : storage::ewise_add(*ctx_, nd[a], p);
        };
        for (const auto& [a, b, c] : cnf_.binary_rules) {
            const auto ai = static_cast<std::size_t>(a);
            const auto bi = static_cast<std::size_t>(b);
            const auto ci = static_cast<std::size_t>(c);
            gain(ai, d[bi], nt_[ci]);
            gain(ai, nt_[bi], d[ci]);
        }
        for (std::size_t a = 0; a < k; ++a) {
            if (nd[a].empty()) continue;
            nd[a] = storage::ewise_diff(*ctx_, nd[a], nt_[a]);
            if (!nd[a].empty()) nt_[a] = storage::ewise_add(*ctx_, nt_[a], nd[a]);
        }
        d = std::move(nd);
    }
    account_batch(stats_, rounds);
}

data::LabeledGraph IncrementalCfpq::current_graph() const {
    std::vector<data::LabeledEdge> edges;
    for (const auto& [label, m] : labels_) {
        for (const auto& [r, c] : m.to_coords()) edges.push_back({r, label, c});
    }
    return data::LabeledGraph::from_edges(n_, edges);
}

}  // namespace spbla::incr
