#include "rpq/engine.hpp"

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "util/contracts.hpp"

namespace spbla::rpq {

RpqIndex build_index(backend::Context& ctx, const data::LabeledGraph& graph,
                     const Dfa& query, algorithms::ClosureStrategy strategy) {
    SPBLA_CHECKED(for (const auto& label : graph.labels())
                      core::validate(graph.matrix(label).csr()));
    SPBLA_PROF_SPAN("rpq.build_index");
    const Index n = graph.num_vertices();
    const Index k = query.num_states;

    // M = sum over symbols of Q_s (x) G_s, written in one pass.
    const auto symbols = query.symbols();
    std::vector<Matrix> automaton;
    automaton.reserve(symbols.size());  // the terms point into it
    std::vector<storage::KroneckerTerm> terms;
    for (const auto& symbol : symbols) {
        if (!graph.has_label(symbol)) continue;
        automaton.push_back(query.matrix(symbol));
        terms.push_back({&automaton.back(), &graph.matrix(symbol)});
    }
    Matrix product = storage::kronecker_sum(ctx, k * n, k * n, terms);

    RpqIndex index;
    index.product_nnz = product.nnz();

    algorithms::ClosureStats stats;
    index.closure = algorithms::transitive_closure(ctx, product, strategy, &stats);
    index.closure_rounds = stats.rounds;

    // Answer pairs: the (start, accepting-state) blocks of the closure,
    // folded in one op; a nullable query also matches every empty path
    // (u, u).
    std::vector<Index> finals;
    for (const auto f : query.accepting_states()) finals.push_back(f * n);
    index.reachable = storage::fold_blocks(ctx, index.closure, query.start * n, finals, n,
                                           query.accepting[query.start]);
    index.product = std::move(product);
    SPBLA_CHECKED({
        core::validate(index.product.csr());
        core::validate(index.closure.csr());
        core::validate(index.reachable.csr());
    });
    return index;
}

Matrix evaluate(backend::Context& ctx, const data::LabeledGraph& graph,
                const Dfa& query) {
    return build_index(ctx, graph, query).reachable;
}

Matrix evaluate_reference(const data::LabeledGraph& graph, const Dfa& query) {
    const Index n = graph.num_vertices();
    std::vector<Coord> answers;

    // Pre-split graph edges by label for the walk. Materialise each label's
    // row structure up front so the inner BFS never converts mid-walk.
    std::map<std::string, const CsrMatrix*> by_label;
    for (const auto& symbol : query.symbols()) {
        if (graph.has_label(symbol)) by_label.emplace(symbol, &graph.matrix(symbol).csr());
    }

    for (Index u = 0; u < n; ++u) {
        // BFS over (state, vertex) pairs from (start, u).
        std::set<std::pair<Index, Index>> seen{{query.start, u}};
        std::deque<std::pair<Index, Index>> queue{{query.start, u}};
        while (!queue.empty()) {
            const auto [q, v] = queue.front();
            queue.pop_front();
            for (const auto& [symbol, m] : by_label) {
                const Index q2 = query.step(q, symbol);
                if (q2 == query.num_states) continue;
                for (const auto w : m->row(v)) {
                    if (seen.insert({q2, w}).second) queue.push_back({q2, w});
                }
            }
        }
        // Every (q, v) in `seen` is reachable by some word; if q accepts,
        // that word is in the language. The initial (start, u) pair stands
        // for the empty word, which accepting[start] (nullability) covers.
        std::set<Index> answered;
        for (const auto& [q, v] : seen) {
            if (query.accepting[q]) answered.insert(v);
        }
        for (const auto v : answered) answers.push_back({u, v});
    }
    return Matrix::from_coords(n, n, std::move(answers));
}

SpVector evaluate_from(backend::Context& ctx, const data::LabeledGraph& graph,
                       const Dfa& query, Index source) {
    const Index n = graph.num_vertices();
    check(source < n, Status::OutOfRange, "evaluate_from: source out of range");
    SPBLA_PROF_SPAN("rpq.evaluate_from");

    // visited[q] = set of graph vertices reached in automaton state q.
    std::vector<SpVector> visited(query.num_states, SpVector{n});
    visited[query.start] = SpVector::from_indices(n, {source});
    std::vector<SpVector> frontier = visited;

    bool any_frontier = true;
    std::uint64_t bfs_round = 0;
    while (any_frontier) {
        SPBLA_PROF_SPAN_ITER("rpq.evaluate_from.round", ++bfs_round);
        std::vector<SpVector> next(query.num_states, SpVector{n});
        for (Index q = 0; q < query.num_states; ++q) {
            if (frontier[q].empty()) continue;
            for (const auto& symbol : query.symbols()) {
                const Index q2 = query.step(q, symbol);
                if (q2 == query.num_states || !graph.has_label(symbol)) continue;
                const SpVector pushed =
                    storage::vxm(ctx, frontier[q], graph.matrix(symbol));
                next[q2] = next[q2].ewise_or(pushed);
            }
        }
        any_frontier = false;
        for (Index q = 0; q < query.num_states; ++q) {
            // Keep only genuinely new (state, vertex) configurations.
            std::vector<Index> fresh;
            for (const auto v : next[q].indices()) {
                if (!visited[q].get(v)) fresh.push_back(v);
            }
            frontier[q] = SpVector::from_indices(n, std::move(fresh));
            if (!frontier[q].empty()) {
                visited[q] = visited[q].ewise_or(frontier[q]);
                any_frontier = true;
            }
        }
    }

    // A configuration (q, v) with accepting q witnesses the answer (source,
    // v); the initial (start, source) configuration stands for the empty
    // word and is included exactly when the start state accepts (nullable
    // query), which visited[start] already covers.
    SpVector answers{n};
    for (const auto f : query.accepting_states()) {
        answers = answers.ewise_or(visited[f]);
    }
    return answers;
}

bool extract_path(const data::LabeledGraph& graph, const Dfa& query, Index u, Index v,
                  std::vector<std::string>& labels_out) {
    labels_out.clear();
    if (query.accepting[query.start] && u == v) return true;  // empty witness

    struct Step {
        Index prev_state, prev_vertex;
        std::string label;
    };
    std::map<std::pair<Index, Index>, Step> parent;
    std::deque<std::pair<Index, Index>> queue{{query.start, u}};
    std::set<std::pair<Index, Index>> seen{{query.start, u}};

    while (!queue.empty()) {
        const auto [q, w] = queue.front();
        queue.pop_front();
        if (query.accepting[q] && w == v && !(q == query.start && w == u)) {
            // Reconstruct the label word backwards.
            std::vector<std::string> rev;
            auto cur = std::make_pair(q, w);
            for (auto it = parent.find(cur); it != parent.end(); it = parent.find(cur)) {
                rev.push_back(it->second.label);
                cur = {it->second.prev_state, it->second.prev_vertex};
            }
            labels_out.assign(rev.rbegin(), rev.rend());
            return true;
        }
        for (const auto& symbol : query.symbols()) {
            const Index q2 = query.step(q, symbol);
            if (q2 == query.num_states || !graph.has_label(symbol)) continue;
            for (const auto w2 : graph.matrix(symbol).row(w)) {
                if (seen.insert({q2, w2}).second) {
                    parent[{q2, w2}] = {q, w, symbol};
                    queue.push_back({q2, w2});
                }
            }
        }
    }
    return false;
}

}  // namespace spbla::rpq
