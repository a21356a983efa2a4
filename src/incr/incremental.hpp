/// \file incremental.hpp
/// \brief Semi-naive incremental fixpoint drivers: TC, RPQ, CFPQ.
///
/// Every driver in src/algorithms, src/rpq and src/cfpq recomputes its
/// fixpoint from scratch; these classes maintain the same results under an
/// edge stream, paying per batch work proportional to the *change*:
///
///  - transitive closure: inserts extend the existing closure with the
///    one-new-edge seed X = (I∪C)·Δ⁺·(I∪C) and then iterate frontier·S with
///    the delta-sized step matrix S = Δ⁺·(I∪C) — every k-new-edge path is
///    X·S^(k-1), so rounds scale with new edges per path, not graph
///    diameter (algorithms::extend_closure). Deletes run a DRed-style over-delete: suspect =
///    (I∪C)·Δ⁻·(I∪C), and only the suspect pairs are re-derived, seeded
///    from the kept cells of their own rows (see update_closure).
///  - RPQ: the Kronecker product matrix is maintained cell-exactly under
///    per-label deltas (a product cell dies only when its last label
///    support dies), then the closure update above runs on the product.
///  - CFPQ (Azimov): per-nonterminal frontiers D_A propagate through the
///    CNF rules as D_B·T_C ∪ T_B·D_C until drained; deletions fall back to
///    a counted full rebuild (non-monotone CFPQ deletion is out of scope).
///
/// All results are guarded by the differential stream-oracle net in
/// tests/test_incremental.cpp, which checks every batch against full
/// recompute.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cfpq/cnf.hpp"
#include "data/labeled_graph.hpp"
#include "ops/spgemm.hpp"
#include "rpq/dfa.hpp"
#include "storage/matrix.hpp"

namespace spbla::incr {

/// Cumulative per-driver statistics.
struct IncrStats {
    std::uint64_t batches{0};           ///< apply() calls (including no-ops)
    std::uint64_t rounds{0};            ///< incremental fixpoint rounds run
    std::uint64_t baseline_rounds{0};   ///< rounds of the last scratch build
    std::uint64_t iterations_saved{0};  ///< cumulative rounds avoided vs scratch
    std::uint64_t rebuilds{0};          ///< batches answered by full recompute
};

/// Result of one closure update.
struct ClosureUpdate {
    std::size_t rounds{0};
};

/// Update \p closure from C(A) to C(A') in place, where A' = \p adj_after
/// and the effective deltas are normalized: add_eff ∩ A = ∅, del_eff ⊆ A,
/// add_eff ∩ del_eff = ∅, A = (A' ⊖ add_eff) ⊕ del_eff. Deletions are
/// processed first, then insertions through algorithms::extend_closure
/// (one-new-edge seed + delta-sized step loop, compacted to the rows the
/// inserts reach).
///
/// Deletions over-delete DRed-style, suspect = left ∪ left·C with
/// left = Δ⁻ ∪ C·Δ⁻, and re-derive over the suspect pairs only. With
/// A_mid = A' ⊖ add_eff and K_S the kept cells of the rows that hold a
/// suspect pair, the seed is R₀ = suspect ∩ (A_mid ∪ K_S·A_mid), the rounds
/// are R_{k+1} = rest ∩ R_k·A_mid with rest the suspect pairs not re-derived
/// yet, and one C ⊖ rest commits. The repair reads the closure through C·Δ⁻,
/// left·C, the suspect rows and the commit only; the seed and the rounds run
/// on matrices compacted to the suspect rows (algorithms::RowCompaction), so
/// their work follows the suspect set, not the closure.
///
/// Strong guarantee: if an op throws, \p closure is left unchanged.
[[nodiscard]] ClosureUpdate update_closure(backend::Context& ctx, Matrix& closure,
                                           const Matrix& adj_after,
                                           const Matrix& add_eff,
                                           const Matrix& del_eff,
                                           const ops::SpGemmOptions& opts = {});

/// Transitive-closure maintenance over an edge stream.
class IncrementalClosure {
public:
    /// Builds the initial closure from scratch (the baseline the saved-
    /// iterations accounting is measured against).
    explicit IncrementalClosure(backend::Context& ctx, Matrix adjacency,
                                const ops::SpGemmOptions& opts = {});

    /// Fold one insert/delete batch (shape-matched cell matrices; cells
    /// named by both end up present) into the adjacency and its closure.
    /// Strong guarantee: if an op throws, both are left unchanged.
    void apply(const Matrix& adds, const Matrix& removes);

    [[nodiscard]] const Matrix& closure() const noexcept { return closure_; }
    [[nodiscard]] const Matrix& adjacency() const noexcept { return adj_; }
    [[nodiscard]] const IncrStats& stats() const noexcept { return stats_; }

private:
    backend::Context* ctx_;
    ops::SpGemmOptions opts_;
    Matrix adj_;
    Matrix closure_;
    IncrStats stats_;
};

/// RPQ (regular-path query) maintenance: keeps the Kronecker product, its
/// closure and the answer matrix of rpq::build_index current under labeled
/// edge streams.
class IncrementalRpq {
public:
    IncrementalRpq(backend::Context& ctx, const data::LabeledGraph& graph,
                   rpq::Dfa query, const ops::SpGemmOptions& opts = {});

    void apply(const std::vector<data::LabeledEdge>& adds,
               const std::vector<data::LabeledEdge>& removes);

    /// Same cells as rpq::build_index(...).reachable on the current graph.
    [[nodiscard]] const Matrix& reachable() const noexcept { return reachable_; }
    [[nodiscard]] const Matrix& product() const noexcept { return product_; }
    [[nodiscard]] const IncrStats& stats() const noexcept { return stats_; }

    /// Rebuild a LabeledGraph equal to the maintained state (oracle hook).
    [[nodiscard]] data::LabeledGraph current_graph() const;

private:
    void refresh_reachable();

    backend::Context* ctx_;
    rpq::Dfa query_;
    ops::SpGemmOptions opts_;
    Index n_{0};
    std::map<std::string, Matrix> qmats_;   ///< cached automaton matrices
    std::map<std::string, Matrix> labels_;  ///< maintained graph matrices
    Matrix product_;
    Matrix closure_;
    Matrix reachable_;
    IncrStats stats_;
};

/// CFPQ (Azimov) maintenance: insert batches propagate per-nonterminal
/// frontiers through the CNF rules; delete batches trigger a counted full
/// rebuild.
class IncrementalCfpq {
public:
    IncrementalCfpq(backend::Context& ctx, const data::LabeledGraph& graph,
                    const cfpq::Grammar& grammar,
                    const ops::SpGemmOptions& opts = {});

    void apply(const std::vector<data::LabeledEdge>& adds,
               const std::vector<data::LabeledEdge>& removes);

    /// Same cells as azimov_cfpq(...).reachable() on the current graph.
    [[nodiscard]] const Matrix& reachable() const noexcept {
        return nt_[static_cast<std::size_t>(cnf_.start)];
    }
    [[nodiscard]] const IncrStats& stats() const noexcept { return stats_; }

    /// Rebuild a LabeledGraph equal to the maintained state (oracle hook).
    [[nodiscard]] data::LabeledGraph current_graph() const;

private:
    void rebuild();  ///< scratch fixpoint over labels_ (mirrors azimov_cfpq)

    backend::Context* ctx_;
    cfpq::CnfGrammar cnf_;
    ops::SpGemmOptions opts_;
    Index n_{0};
    std::map<std::string, Matrix> labels_;
    std::vector<Matrix> nt_;  ///< indexed by CNF nonterminal id
    IncrStats stats_;
};

}  // namespace spbla::incr
