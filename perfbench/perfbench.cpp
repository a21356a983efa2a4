/// \file perfbench.cpp
/// \brief End-to-end benchmark: three single-threaded paper workloads
/// (rpq-lubm, cfpq, closure-stream), each a closed loop with one client.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--passes <p>] [--spans <path>]
///
/// A workload is a fixed list of ops; one pass runs every op once in an
/// order drawn from --seed, and the same seed drives every input generator.
/// With --trace 0 the benchmark sets up several times (setup_s is their
/// median), checks the answers against reference oracles, then times whole
/// passes for --seconds and prints the end-to-end metrics. With --trace 1 it
/// sets up once, times a fixed number of passes untraced and then traced,
/// and prints the per-layer split: spans wrap each public library call from
/// this file (nothing is traced inside the library) and the deltas of
/// telemetry::snapshot() taken at span edges are attributed to the span.
/// The last stdout line is one JSON object; see perfbench/NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/context.hpp"
#include "cfpq/azimov.hpp"
#include "cfpq/queries.hpp"
#include "cfpq/tensor.hpp"
#include "cfpq/worklist.hpp"
#include "data/kernel_alias.hpp"
#include "data/lubm.hpp"
#include "data/rdflike.hpp"
#include "rpq/dfa.hpp"
#include "rpq/engine.hpp"
#include "rpq/nfa.hpp"
#include "rpq/query_templates.hpp"
#include "spbla/spbla.h"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace spbla;
using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// Independent generator seed per input, all derived from --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
    return util::splitmix64_mix(seed * 0x100000001b3ULL + salt);
}

/// Dispatcher busy time: the per-route op-latency histogram sums.
constexpr Histogram kRouteHists[] = {Histogram::OpLatencyCsrNs, Histogram::OpLatencyCooNs,
                                     Histogram::OpLatencyDenseNs,
                                     Histogram::OpLatencyBitBlocksNs};
constexpr const char* kRouteNames[] = {"csr", "coo", "dense", "bitblock"};
constexpr Counter kRouteCounters[] = {Counter::DispatchCsr, Counter::DispatchCoo,
                                      Counter::DispatchDense, Counter::DispatchBitBlocks};

std::uint64_t busy_ns(const telemetry::Snapshot& s) {
    std::uint64_t total = s.histogram(Histogram::OpLatencyShardedNs).sum;
    for (Histogram h : kRouteHists) total += s.histogram(h).sum;
    return total;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around public library calls.

class Tracer {
public:
    struct Span {
        std::string name;
        std::uint64_t start_ns{0};
        std::uint64_t end_ns{0};
        int parent{-1};
        std::uint64_t busy_ns{0};       ///< dispatcher busy time under the span
        std::uint64_t dispatch_ops{0};  ///< dispatched ops under the span
        std::uint64_t conversions{0};   ///< format conversions under the span
        std::uint64_t mem_allocs{0};    ///< tracked allocations under the span
    };

    explicit Tracer(bool on) : on_{on} {}

    /// Open a span; returns its id (-1 when tracing is off). The telemetry
    /// snapshot is taken before the start stamp, so its cost is not billed
    /// to the span.
    int open(std::string name) {
        if (!on_) return -1;
        const auto snap = telemetry::snapshot();
        Span s;
        s.name = std::move(name);
        s.parent = current_;
        s.busy_ns = busy_ns(snap);
        s.dispatch_ops = snap.counter(Counter::DispatchOps);
        s.conversions = snap.counter(Counter::StorageConversions);
        s.mem_allocs = snap.counter(Counter::MemAllocs);
        spans_.push_back(std::move(s));
        current_ = static_cast<int>(spans_.size()) - 1;
        spans_.back().start_ns = now_ns();
        return current_;
    }

    void close(int id) {
        if (id < 0) return;
        const auto end = now_ns();
        const auto snap = telemetry::snapshot();
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end_ns = end;
        s.busy_ns = busy_ns(snap) - s.busy_ns;
        s.dispatch_ops = snap.counter(Counter::DispatchOps) - s.dispatch_ops;
        s.conversions = snap.counter(Counter::StorageConversions) - s.conversions;
        s.mem_allocs = snap.counter(Counter::MemAllocs) - s.mem_allocs;
        current_ = s.parent;
    }

    /// Accumulate a workload-reported count (e.g. closure rounds).
    void add(const std::string& name, double v) {
        if (on_) counts_[name] += v;
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] std::map<std::string, double>& counts() noexcept { return counts_; }

    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
                << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
                << ",\"busy_ns\":" << s.busy_ns << ",\"dispatch_ops\":" << s.dispatch_ops
                << ",\"conversions\":" << s.conversions
                << ",\"mem_allocs\":" << s.mem_allocs << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        return static_cast<bool>(out);
    }

private:
    bool on_;
    int current_{-1};
    std::vector<Span> spans_;
    std::map<std::string, double> counts_;
};

/// RAII span guard.
class Scope {
public:
    Scope(Tracer& t, std::string name) : t_{t}, id_{t.open(std::move(name))} {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& t_;
    int id_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// One workload: inputs built by prepare(), a fixed op list, an answer per
/// op that the cold pass records and every later pass must reproduce, and a
/// reference check run outside any timed window.
class Workload {
public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /// Generate inputs, build handles, compile queries.
    virtual void prepare(Tracer& t) = 0;
    [[nodiscard]] virtual std::size_t pass_size() const = 0;
    /// Run op \p i; false on a non-success status or an exception. The
    /// op's answer (a count) goes to \p answer.
    virtual bool run(std::size_t i, Tracer& t, std::uint64_t& answer) = 0;
    /// Compare the answers recorded by the cold pass (\p answers, indexed
    /// by op) and the final state against the oracles. Returns how many ops
    /// of a pass gave wrong answers (0 when all match); \p why describes
    /// the first mismatch.
    virtual std::size_t check_reference(const std::vector<std::uint64_t>& answers,
                                        std::string& why) = 0;
    /// Deterministic fingerprint of the generated inputs.
    [[nodiscard]] virtual std::uint64_t input_fingerprint() const = 0;
    /// Op i of a pass maps to workload op order()[i].
    [[nodiscard]] const std::vector<std::size_t>& order() const noexcept { return order_; }

protected:
    /// Pass order: a permutation drawn from \p shuffle_seed, or the op list
    /// order without one.
    void set_order(std::optional<std::uint64_t> shuffle_seed) {
        order_.resize(pass_size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        if (!shuffle_seed) return;
        util::Rng rng{*shuffle_seed};
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.below(i)]);
    }

private:
    std::vector<std::size_t> order_;
};

std::size_t pool_size_for(backend::Policy p) {
    if (p == backend::Policy::Sequential) return 1;
    // The launcher claims tickets too, so nproc - 1 workers fill nproc cores.
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

std::uint64_t fingerprint(const data::LabeledGraph& g) {
    std::uint64_t h = g.num_vertices();
    for (const auto& label : g.labels()) {
        for (const auto& c : g.matrix(label).to_coords())
            h = util::splitmix64_mix(h ^ (std::uint64_t{c.row} << 32 | c.col));
        h = util::splitmix64_mix(h ^ label.size());
    }
    return h;
}

/// rpq-lubm: one op is rpq::build_index for one Table II template,
/// instantiated with the most frequent labels of a LUBM graph (paper Fig. 2).
class RpqLubm final : public Workload {
public:
    static constexpr Index kUniversities = 120;

    RpqLubm(std::uint64_t seed, backend::Policy policy)
        : seed_{seed}, ctx_{policy, pool_size_for(policy)} {}

    void prepare(Tracer& t) override {
        {
            Scope s{t, "data.generate"};
            graph_ = data::make_lubm(kUniversities, derive(seed_, 1));
        }
        Scope s{t, "rpq.compile"};
        const auto labels = graph_.labels_by_frequency();
        for (const auto& tpl : rpq::table2_templates()) {
            if (labels.size() < tpl.arity) continue;
            names_.push_back(tpl.name);
            queries_.push_back(
                rpq::minimize(rpq::determinize(rpq::glushkov(*tpl.instantiate(labels)))));
        }
        set_order(derive(seed_, 2));
    }

    std::size_t pass_size() const override { return queries_.size(); }

    bool run(std::size_t i, Tracer& t, std::uint64_t& answer) override {
        Scope s{t, "rpq.build_index"};
        const auto index = rpq::build_index(ctx_, graph_, queries_[i]);
        answer = index.reachable.nnz();
        t.add("rpq.closure_rounds", static_cast<double>(index.closure_rounds));
        return true;
    }

    std::size_t check_reference(const std::vector<std::uint64_t>& answers,
                                std::string& why) override {
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < queries_.size(); ++i) {
            const auto ref = rpq::evaluate_reference(graph_, queries_[i]).nnz();
            if (ref == answers[i]) continue;
            if (wrong++ == 0)
                why = names_[i] + ": " + std::to_string(answers[i]) + " answers, reference " +
                      std::to_string(ref);
        }
        return wrong;
    }

    std::uint64_t input_fingerprint() const override { return fingerprint(graph_); }

private:
    std::uint64_t seed_;
    backend::Context ctx_;
    data::LabeledGraph graph_;
    std::vector<std::string> names_;
    std::vector<rpq::Dfa> queries_;
};

/// cfpq: one op is azimov_cfpq (Mtx) or tensor_cfpq (Tns) for one
/// (graph, grammar) case of Table IV: G1/G2 on GO-like ontology and taxonomy
/// analogs, MA on kernel alias graphs. Single ops take 3-60 ms. Each family
/// has kInstances graphs from independent seeds: CFPQ cost swings by 20% or
/// more between two graphs of one generator, and the average over several
/// keeps a run's figures close to those of another seed.
class Cfpq final : public Workload {
public:
    static constexpr std::size_t kInstances = 4;

    Cfpq(std::uint64_t seed, backend::Policy policy)
        : seed_{seed}, ctx_{policy, pool_size_for(policy)} {}

    void prepare(Tracer& t) override {
        {
            Scope s{t, "data.generate"};
            for (std::size_t k = 0; k < kInstances; ++k) {
                const std::size_t onto = graphs_.size();
                const std::size_t tax = onto + 1;
                const std::size_t alias = onto + 2;
                graphs_.push_back(data::make_ontology(600, 0.65, derive(seed_, 10 + k), 0.3));
                graphs_.back().add_inverse_labels();
                graphs_.push_back(data::make_taxonomy(1500, 2, derive(seed_, 20 + k)));
                graphs_.back().add_inverse_labels();
                graphs_.push_back(data::make_alias_graph(200, derive(seed_, 30 + k)));
                // (graph, grammar index): G1 and G2 on the RDF graphs, MA on aliases.
                cases_.insert(cases_.end(),
                              {{onto, 0}, {onto, 1}, {tax, 0}, {tax, 1}, {alias, 2}});
            }
        }
        Scope s{t, "cfpq.compile"};
        grammars_ = {cfpq::query_g1(), cfpq::query_g2(), cfpq::query_ma()};
        results_.assign(pass_size(), {});
        set_order(derive(seed_, 4));
    }

    std::size_t pass_size() const override { return 2 * cases_.size(); }

    bool run(std::size_t i, Tracer& t, std::uint64_t& answer) override {
        const auto [gi, qi] = cases_[i / 2];
        const auto& graph = graphs_[gi];
        const auto& grammar = grammars_[qi];
        const bool tensor = (i % 2) == 1;
        Scope s{t, tensor ? "cfpq.tensor" : "cfpq.azimov"};
        if (tensor) {
            const auto index = cfpq::tensor_cfpq(ctx_, graph, grammar);
            record(i, index.reachable(grammar), answer);
        } else {
            const auto index = cfpq::azimov_cfpq(ctx_, graph, grammar);
            record(i, index.reachable(), answer);
        }
        return true;
    }

    std::size_t check_reference(const std::vector<std::uint64_t>& /*answers*/,
                                std::string& why) override {
        std::size_t wrong = 0;
        for (std::size_t c = 0; c < cases_.size(); ++c) {
            const auto [gi, qi] = cases_[c];
            auto ref = cfpq::worklist_cfpq(graphs_[gi], grammars_[qi]).to_coords();
            std::sort(ref.begin(), ref.end());
            const auto& mtx = results_[2 * c];
            const auto& tns = results_[2 * c + 1];
            const std::size_t bad = (mtx != ref ? 1 : 0) + (tns != ref ? 1 : 0);
            if (bad > 0 && wrong == 0)
                why = "case " + std::to_string(c) + ": Mtx " + std::to_string(mtx.size()) +
                      ", Tns " + std::to_string(tns.size()) + ", worklist " +
                      std::to_string(ref.size()) + " cells";
            wrong += bad;
        }
        return wrong;
    }

    std::uint64_t input_fingerprint() const override {
        std::uint64_t h = 0;
        for (const auto& g : graphs_) h = util::splitmix64_mix(h ^ fingerprint(g));
        return h;
    }

private:
    void record(std::size_t i, const Matrix& reachable, std::uint64_t& answer) {
        answer = reachable.nnz();
        if (results_[i].empty()) {  // the cold pass keeps the cells for the oracle
            results_[i] = reachable.to_coords();
            std::sort(results_[i].begin(), results_[i].end());
        }
    }

    std::uint64_t seed_;
    backend::Context ctx_;
    std::vector<data::LabeledGraph> graphs_;
    std::vector<cfpq::Grammar> grammars_;
    std::vector<std::pair<std::size_t, std::size_t>> cases_;  ///< (graph, grammar)
    std::vector<std::vector<Coord>> results_;
};

/// closure-stream: one op is one sliding-window step through the C API —
/// insert a batch of edges, delete the batch inserted kWindow steps earlier
/// (both through spbla_ClosureIncremental), then read the closure (Nvals
/// plus a row-block ExtractSubMatrix). The batches are a fixed cycle of
/// kBatches drawn from the LUBM graph's own edges, which the base adjacency
/// leaves out, so the state at every pass boundary is the same: base plus
/// the last kWindow batches. That keeps the workload stationary and each
/// pass identical. Uniformly random (u, v) edges were tried first: a few of
/// them join a large ancestor set to a large descendant set, so closure size
/// and step latency swung by 25% from one seed to the next.
class ClosureStream final : public Workload {
public:
    static constexpr Index kUniversities = 60;
    static constexpr std::size_t kBatch = 16;
    static constexpr std::size_t kWindow = 32;
    static constexpr std::size_t kBatches = 256;
    static constexpr Index kBlockRows = 64;

    ClosureStream(std::uint64_t seed, backend::Policy policy) : seed_{seed} {
        const auto hint = policy == backend::Policy::Sequential ? SPBLA_INIT_SEQUENTIAL
                                                                : SPBLA_INIT_DEFAULT;
        expect(spbla_Initialize(hint), "spbla_Initialize");
    }

    ~ClosureStream() override {
        for (spbla_Matrix* m : {&adj_, &closure_, &block_})
            if (*m != nullptr) (void)spbla_Matrix_Free(m);
        (void)spbla_Finalize();
    }

    void prepare(Tracer& t) override {
        std::vector<Coord> base;
        {
            Scope s{t, "data.generate"};
            const auto graph = data::make_lubm(kUniversities, derive(seed_, 1));
            n_ = graph.num_vertices();
            const auto edges = graph.union_matrix().to_coords();
            // Hold out kBatches * kBatch distinct non-loop edges as the stream.
            std::vector<char> held(edges.size(), 0);
            util::Rng rng{derive(seed_, 2)};
            batches_.resize(kBatches);
            for (auto& batch : batches_) {
                while (batch.rows.size() < kBatch) {
                    const auto e = static_cast<std::size_t>(rng.below(edges.size()));
                    if (held[e] != 0 || edges[e].row == edges[e].col) continue;
                    held[e] = 1;
                    batch.rows.push_back(edges[e].row);
                    batch.cols.push_back(edges[e].col);
                }
                batch.block_row = static_cast<Index>(rng.below(n_ - kBlockRows));
            }
            fingerprint_ = n_;
            for (std::size_t e = 0; e < edges.size(); ++e) {
                fingerprint_ = util::splitmix64_mix(
                    fingerprint_ ^ (std::uint64_t{edges[e].row} << 32 | edges[e].col) ^ held[e]);
                if (held[e] == 0) base.push_back(edges[e]);
            }
        }
        set_order(std::nullopt);  // a stream's steps run in sequence
        Scope s{t, "handle.build"};
        // Start in the steady state: base plus the batches the first kWindow
        // steps of a pass will delete.
        std::vector<spbla_Index> rows, cols;
        for (const auto& c : base) {
            rows.push_back(c.row);
            cols.push_back(c.col);
        }
        for (std::size_t b = kBatches - kWindow; b < kBatches; ++b) {
            rows.insert(rows.end(), batches_[b].rows.begin(), batches_[b].rows.end());
            cols.insert(cols.end(), batches_[b].cols.begin(), batches_[b].cols.end());
        }
        expected_adj_nvals_ = rows.size();
        expect(spbla_Matrix_New(&adj_, n_, n_), "spbla_Matrix_New");
        expect(spbla_Matrix_New(&closure_, n_, n_), "spbla_Matrix_New");
        expect(spbla_Matrix_New(&block_, kBlockRows, n_), "spbla_Matrix_New");
        expect(spbla_Matrix_Build(adj_, rows.data(), cols.data(),
                                  static_cast<spbla_Index>(rows.size()), SPBLA_HINT_NO),
               "spbla_Matrix_Build");
        // An empty closure handle asks for a scratch build.
        expect(spbla_ClosureIncremental(closure_, adj_, nullptr, nullptr, 0, nullptr,
                                        nullptr, 0),
               "spbla_ClosureIncremental");
    }

    std::size_t pass_size() const override { return kBatches; }

    bool run(std::size_t i, Tracer& t, std::uint64_t& answer) override {
        const Batch& add = batches_[i];
        const Batch& del = batches_[(i + kBatches - kWindow) % kBatches];
        bool ok = true;
        {
            Scope s{t, "capi.ClosureIncremental"};
            ok &= spbla_ClosureIncremental(closure_, adj_, add.rows.data(), add.cols.data(),
                                           kBatch, nullptr, nullptr,
                                           0) == SPBLA_STATUS_SUCCESS;
        }
        {
            Scope s{t, "capi.ClosureIncremental"};
            ok &= spbla_ClosureIncremental(closure_, adj_, nullptr, nullptr, 0,
                                           del.rows.data(), del.cols.data(),
                                           kBatch) == SPBLA_STATUS_SUCCESS;
        }
        spbla_Index nvals = 0;
        {
            Scope s{t, "capi.Matrix_Nvals"};
            ok &= spbla_Matrix_Nvals(closure_, &nvals) == SPBLA_STATUS_SUCCESS;
        }
        spbla_Index block_nvals = 0;
        {
            Scope s{t, "capi.Matrix_ExtractSubMatrix"};
            ok &= spbla_Matrix_ExtractSubMatrix(block_, closure_, add.block_row, 0,
                                                kBlockRows, n_) == SPBLA_STATUS_SUCCESS;
            ok &= spbla_Matrix_Nvals(block_, &block_nvals) == SPBLA_STATUS_SUCCESS;
        }
        answer = (std::uint64_t{nvals} << 32) | block_nvals;
        return ok;
    }

    /// The maintained closure must equal a from-scratch closure of the
    /// current adjacency, and the adjacency must hold base + kWindow batches.
    /// A wrong state cannot be pinned on one step, so it fails them all.
    std::size_t check_reference(const std::vector<std::uint64_t>& /*answers*/,
                                std::string& why) override {
        spbla_Index adj_nvals = 0;
        expect(spbla_Matrix_Nvals(adj_, &adj_nvals), "spbla_Matrix_Nvals");
        if (adj_nvals != expected_adj_nvals_) {
            why = "adjacency holds " + std::to_string(adj_nvals) + " cells, expected " +
                  std::to_string(expected_adj_nvals_);
            return pass_size();
        }
        spbla_Matrix adj_copy = nullptr;
        spbla_Matrix scratch = nullptr;
        expect(spbla_Matrix_Duplicate(adj_, &adj_copy), "spbla_Matrix_Duplicate");
        expect(spbla_Matrix_New(&scratch, n_, n_), "spbla_Matrix_New");
        const bool built = spbla_ClosureIncremental(scratch, adj_copy, nullptr, nullptr, 0,
                                                    nullptr, nullptr,
                                                    0) == SPBLA_STATUS_SUCCESS;
        const bool same = built && pairs(scratch) == pairs(closure_);
        (void)spbla_Matrix_Free(&adj_copy);
        (void)spbla_Matrix_Free(&scratch);
        if (same) return 0;
        why = "incremental closure differs from the scratch closure";
        return pass_size();
    }

    std::uint64_t input_fingerprint() const override { return fingerprint_; }

private:
    struct Batch {
        std::vector<spbla_Index> rows, cols;
        Index block_row{0};  ///< first row of the block the step reads back
    };

    static void expect(spbla_Status s, const char* what) {
        if (s != SPBLA_STATUS_SUCCESS)
            throw std::runtime_error(std::string{what} + ": " + spbla_Status_Name(s));
    }

    static std::vector<std::pair<spbla_Index, spbla_Index>> pairs(spbla_Matrix m) {
        spbla_Index n = 0;
        expect(spbla_Matrix_Nvals(m, &n), "spbla_Matrix_Nvals");
        std::vector<spbla_Index> rows(n), cols(n);
        expect(spbla_Matrix_ExtractPairs(m, rows.data(), cols.data(), &n),
               "spbla_Matrix_ExtractPairs");
        std::vector<std::pair<spbla_Index, spbla_Index>> out(n);
        for (spbla_Index k = 0; k < n; ++k) out[k] = {rows[k], cols[k]};
        std::sort(out.begin(), out.end());
        return out;
    }

    std::uint64_t seed_;
    Index n_{0};
    std::vector<Batch> batches_;
    std::size_t expected_adj_nvals_{0};
    std::uint64_t fingerprint_{0};
    spbla_Matrix adj_{nullptr};
    spbla_Matrix closure_{nullptr};
    spbla_Matrix block_{nullptr};
};

template <class W>
std::unique_ptr<Workload> make(std::uint64_t seed, backend::Policy policy) {
    return std::make_unique<W>(seed, policy);
}

struct WorkloadSpec {
    const char* name;
    std::unique_ptr<Workload> (*make)(std::uint64_t, backend::Policy);
    std::size_t traced_passes;  ///< fixed pass count of the untraced and traced windows
};

constexpr WorkloadSpec kWorkloads[] = {
    {"rpq-lubm", make<RpqLubm>, 4},
    {"cfpq", make<Cfpq>, 3},
    {"closure-stream", make<ClosureStream>, 2},
};

// ---------------------------------------------------------------------------
// Measurement.

/// Host noise over an interval: /proc/stat steal share and process CPU time.
struct HostSample {
    std::uint64_t steal{0};
    std::uint64_t total{0};
    double cpu_s{0};

    static HostSample take() {
        HostSample h;
        std::ifstream stat("/proc/stat");
        std::string cpu;
        if (stat >> cpu && cpu == "cpu") {
            // user nice system idle iowait irq softirq steal
            for (int f = 0; f < 8; ++f) {
                std::uint64_t v = 0;
                if (!(stat >> v)) break;
                h.total += v;
                if (f == 7) h.steal = v;
            }
        }
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        h.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
        return h;
    }
};

struct HostDelta {
    double steal_pct{0};
    double cpu_s{0};
};

HostDelta host_delta(const HostSample& a, const HostSample& b) {
    HostDelta d;
    if (b.total > a.total)
        d.steal_pct = 100.0 * static_cast<double>(b.steal - a.steal) /
                      static_cast<double>(b.total - a.total);
    d.cpu_s = b.cpu_s - a.cpu_s;
    return d;
}

double mib(std::int64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

/// Result of running passes: per-op latencies and the failure tally.
struct Window {
    std::vector<double> latency_ms;
    std::size_t attempted{0};
    std::size_t failed{0};  ///< non-success statuses + wrong answers
    double seconds{0};
    std::size_t passes{0};
};

/// Run whole passes: exactly \p passes of them when > 0, otherwise until
/// \p seconds have elapsed and at least 100 samples exist (so p90 has ten
/// beyond it). \p expected holds the cold pass's answers; an empty vector
/// records them instead. Each op is wrapped in an "op" root span.
Window run_passes(Workload& w, Tracer& t, std::vector<std::uint64_t>& expected,
                  double seconds, std::size_t passes) {
    Window win;
    const bool record = expected.empty();
    if (record) expected.assign(w.pass_size(), 0);
    const auto t0 = now_ns();
    while (true) {
        for (std::size_t k = 0; k < w.pass_size(); ++k) {
            const std::size_t i = w.order()[k];
            std::uint64_t answer = 0;
            bool ok = false;
            const int root = t.open("op");
            const auto s = now_ns();
            try {
                ok = w.run(i, t, answer);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: op %zu threw: %s\n", i, e.what());
            }
            const auto e = now_ns();
            t.close(root);
            win.latency_ms.push_back(static_cast<double>(e - s) * 1e-6);
            ++win.attempted;
            if (record && ok) expected[i] = answer;
            if (!ok || answer != expected[i]) ++win.failed;
        }
        ++win.passes;
        const double elapsed = seconds_since(t0);
        if (passes > 0 ? win.passes >= passes
                       : elapsed >= seconds && win.latency_ms.size() >= 100)
            break;
    }
    win.seconds = seconds_since(t0);
    return win;
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void print_human(const char* workload, const std::vector<Metric>& metrics) {
    for (const auto& m : metrics)
        std::printf("perfbench %s: %-28s %14.6g %s\n", workload, m.name.c_str(), m.value,
                    m.unit.c_str());
}

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    std::size_t passes{0};  ///< > 0: fixed pass count instead of --seconds
    std::string spans_path;
};

/// Setup = prepare + the first (cold) pass, which records the answers.
struct Setup {
    std::unique_ptr<Workload> w;
    std::vector<std::uint64_t> expected;
    Window cold;
    double seconds{0};
};

Setup setup(const WorkloadSpec& spec, std::uint64_t seed, backend::Policy policy,
            Tracer& t) {
    Setup s;
    const auto t0 = now_ns();
    const int root = t.open("setup");
    s.w = spec.make(seed, policy);
    s.w->prepare(t);
    {
        Scope cold{t, "cold_pass"};
        s.cold = run_passes(*s.w, t, s.expected, 0, 1);
    }
    t.close(root);
    s.seconds = seconds_since(t0);
    return s;
}

/// Reference check: the number of ops of a pass whose answers are wrong
/// (every pass repeats them); prints the reason on a mismatch. An exception
/// fails every op.
std::size_t gate(const Setup& s, const char* when) {
    std::string why;
    std::size_t wrong = 0;
    try {
        wrong = s.w->check_reference(s.expected, why);
    } catch (const std::exception& e) {
        wrong = s.w->pass_size();
        why = e.what();
    }
    if (wrong > 0)
        std::fprintf(stderr, "perfbench: correctness gate failed %s (%zu wrong ops): %s\n",
                     when, wrong, why.c_str());
    return wrong;
}

/// Failed ops of a run: the per-op failures, plus every execution (one a
/// pass) of each op the gate found wrong, capped at the ops attempted.
std::size_t failures(std::size_t op_failures, std::size_t wrong_ops, std::size_t passes,
                     std::size_t attempted) {
    return std::min(attempted, op_failures + wrong_ops * passes);
}

/// The counts the self-test requires to repeat exactly for a fixed seed.
void print_checks(const char* workload, std::uint64_t input_fingerprint,
                  const std::vector<std::uint64_t>& answers,
                  const std::vector<Metric>& counts) {
    std::uint64_t digest = 0;
    for (auto a : answers) digest = util::splitmix64_mix(digest ^ a);
    std::printf("perfbench %s: checks {\"input_fingerprint\": \"%016llx\", "
                "\"answer_digest\": \"%016llx\"",
                workload, static_cast<unsigned long long>(input_fingerprint),
                static_cast<unsigned long long>(digest));
    for (const auto& m : counts) std::printf(", \"%s\": %.17g", m.name.c_str(), m.value);
    std::printf("}\n");
}

int run_end_to_end(const WorkloadSpec& spec, const Args& a) {
    Tracer off{false};
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    Setup s;
    for (int r = 0; r < kSetups; ++r) {
        s = Setup{};  // tear the previous instance down before the next one
        s = setup(spec, a.seed, backend::Policy::Sequential, off);
        setup_s.push_back(s.seconds);
    }
    std::size_t wrong = gate(s, "after setup");

    telemetry::reset();  // re-baselines the peak gauge to the live bytes
    const auto h0 = HostSample::take();
    const Window win = run_passes(*s.w, off, s.expected, a.seconds, a.passes);
    const HostDelta host = host_delta(h0, HostSample::take());
    wrong = std::max(wrong, gate(s, "after the timed window"));

    const std::size_t attempted = win.attempted + s.cold.attempted;
    const std::size_t failed =
        failures(win.failed + s.cold.failed, wrong, win.passes + s.cold.passes, attempted);
    const bool correct = failed == 0;
    const double peak_mb = mib(telemetry::snapshot().gauge(Gauge::MemPeakBytes));
    const std::vector<Metric> metrics = {
        {"latency_p50_ms", quantile(win.latency_ms, 0.5), "ms"},
        {"latency_p90_ms", quantile(win.latency_ms, 0.9), "ms"},
        {"throughput_ops_s", static_cast<double>(win.attempted) / win.seconds, "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"success_ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
    };
    std::printf("perfbench %s: seed %llu, %zu samples over %zu passes in %.3f s; "
                "fail_ratio %.6g (%zu of %zu); device_peak_mb %.6g; "
                "host.steal_pct %.3f, host.cpu_s %.3f\n",
                spec.name, static_cast<unsigned long long>(a.seed), win.latency_ms.size(),
                win.passes, win.seconds,
                static_cast<double>(failed) / static_cast<double>(attempted), failed,
                attempted, peak_mb, host.steal_pct, host.cpu_s);
    print_checks(spec.name, s.w->input_fingerprint(), s.expected,
                 {{"device_peak_mb", peak_mb, "MiB"}});
    print_human(spec.name, metrics);
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

/// Self time per span: wall minus its children's wall minus the dispatcher
/// busy time under it that no child covers.
std::vector<double> self_ms(const std::vector<Tracer::Span>& spans) {
    std::vector<double> self(spans.size());
    std::vector<std::uint64_t> child_wall(spans.size(), 0), child_busy(spans.size(), 0);
    for (const auto& s : spans) {
        if (s.parent < 0) continue;
        const auto p = static_cast<std::size_t>(s.parent);
        child_wall[p] += s.end_ns - s.start_ns;
        child_busy[p] += s.busy_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        const double wall = static_cast<double>(s.end_ns - s.start_ns);
        const double own_busy = static_cast<double>(s.busy_ns) - static_cast<double>(child_busy[i]);
        self[i] = (wall - static_cast<double>(child_wall[i]) - own_busy) * 1e-6;
    }
    return self;
}

int run_traced(const WorkloadSpec& spec, const Args& a) {
    Tracer tracer{true};
    Setup s = setup(spec, a.seed, backend::Policy::Sequential, tracer);
    std::size_t wrong = gate(s, "after setup");
    const std::size_t passes = a.passes > 0 ? a.passes : spec.traced_passes;

    Tracer off{false};
    const Window untraced = run_passes(*s.w, off, s.expected, 0, passes);

    const std::size_t first_span = tracer.spans().size();
    tracer.counts().clear();
    telemetry::reset();  // re-baselines the peak gauge to the live bytes
    const auto before = telemetry::snapshot();
    const auto h0 = HostSample::take();
    const Window traced = run_passes(*s.w, tracer, s.expected, 0, passes);
    const HostDelta host = host_delta(h0, HostSample::take());
    const auto after = telemetry::snapshot();
    wrong = std::max(wrong, gate(s, "after the traced window"));
    const double seq_cold_s = s.cold.seconds;
    const std::uint64_t fp = s.w->input_fingerprint();
    s.w.reset();  // the C API workload allows one live library instance

    // Parallel diagnostic: the cold pass once more under Policy::Parallel.
    const auto p0 = telemetry::snapshot();
    Setup par = setup(spec, a.seed, backend::Policy::Parallel, off);
    const auto p1 = telemetry::snapshot();
    std::size_t par_wrong = 0;  // replay answers that differ from the sequential ones
    for (std::size_t i = 0; i < s.expected.size(); ++i)
        par_wrong += par.expected[i] != s.expected[i] ? 1 : 0;
    par.w.reset();

    const auto d = [&](Counter c) {
        return static_cast<double>(after.counter(c) - before.counter(c));
    };
    const auto hsum = [&](Histogram h) {
        return static_cast<double>(after.histogram(h).sum - before.histogram(h).sum);
    };
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

    // Per-layer self time and unattributed share over the traced window.
    const auto& spans = tracer.spans();
    const auto self = self_ms(spans);
    std::map<std::string, double> layer_self;
    double op_wall_ms = 0;
    double op_self_ms = 0;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
        const auto& sp = spans[i];
        if (sp.name == "op") {
            op_wall_ms += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6;
            op_self_ms += self[i];
        } else if (sp.name.rfind("capi.", 0) == 0) {
            layer_self["capi.self_ms"] += self[i];
        } else if (sp.name == "rpq.build_index") {
            layer_self["rpq.self_ms"] += self[i];
        } else if (sp.name == "cfpq.azimov") {
            layer_self["cfpq.azimov_self_ms"] += self[i];
        } else if (sp.name == "cfpq.tensor") {
            layer_self["cfpq.tensor_self_ms"] += self[i];
        }
    }
    double generate_s = 0;
    double compile_ms = 0;
    for (std::size_t i = 0; i < first_span; ++i) {
        const double wall_ms = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
        if (spans[i].name == "data.generate") generate_s += wall_ms * 1e-3;
        if (spans[i].name == "rpq.compile") compile_ms += wall_ms;
    }

    std::vector<Metric> m;
    m.push_back({"storage.dispatch_ops", d(Counter::DispatchOps), "count"});
    for (int r = 0; r < 4; ++r)
        m.push_back({std::string{"storage.route_"} + kRouteNames[r], d(kRouteCounters[r]),
                     "count"});
    for (int r = 0; r < 4; ++r)
        m.push_back({std::string{"ops.busy_ms."} + kRouteNames[r], hsum(kRouteHists[r]) * 1e-6,
                     "ms"});
    const double nnz_in = hsum(Histogram::OpNnzIn);
    const double nnz_out = hsum(Histogram::OpNnzOut);
    m.push_back({"ops.nnz_in", nnz_in, "count"});
    m.push_back({"ops.nnz_out", nnz_out, "count"});
    // Computed, not measured: one (row, col) pair of 32-bit indices per cell
    // read or written.
    m.push_back({"ops.bytes_computed", (nnz_in + nnz_out) * 2 * sizeof(Index), "B"});
    m.push_back({"storage.conversions", d(Counter::StorageConversions), "count"});
    m.push_back({"storage.cache_hit_ratio",
                 ratio(d(Counter::StorageCacheHits),
                       d(Counter::StorageCacheHits) + d(Counter::StorageConversions)),
                 "ratio"});
    m.push_back({"incr.batches", d(Counter::IncrBatches), "count"});
    m.push_back({"incr.delta_nnz", d(Counter::IncrDeltaNnz), "count"});
    m.push_back({"incr.iterations_saved", d(Counter::IncrIterationsSaved), "count"});
    m.push_back({"incr.consolidations", d(Counter::IncrConsolidations), "count"});
    m.push_back({"incr.memo_hit_ratio",
                 ratio(d(Counter::IncrMemoHits), d(Counter::IncrMemoLookups)), "ratio"});
    m.push_back({"capi.self_ms", layer_self["capi.self_ms"], "ms"});
    m.push_back({"rpq.compile_ms", compile_ms, "ms"});
    m.push_back({"rpq.self_ms", layer_self["rpq.self_ms"], "ms"});
    m.push_back({"rpq.closure_rounds", tracer.counts()["rpq.closure_rounds"], "count"});
    m.push_back({"cfpq.azimov_self_ms", layer_self["cfpq.azimov_self_ms"], "ms"});
    m.push_back({"cfpq.tensor_self_ms", layer_self["cfpq.tensor_self_ms"], "ms"});
    m.push_back({"backend.mem_allocs", d(Counter::MemAllocs), "count"});
    m.push_back({"backend.arena_resets", d(Counter::ArenaResets), "count"});
    m.push_back({"backend.pool_hit_ratio",
                 ratio(d(Counter::PoolBufferHits),
                       d(Counter::PoolBufferHits) + d(Counter::PoolBufferMisses)),
                 "ratio"});
    m.push_back({"backend.device_peak_mb", mib(after.gauge(Gauge::MemPeakBytes)), "MiB"});
    m.push_back({"backend.arena_reserved_mb", mib(after.gauge(Gauge::ArenaReservedBytes)),
                 "MiB"});
    m.push_back({"data.generate_s", generate_s, "s"});
    m.push_back({"util.pool_bulk_launches",
                 static_cast<double>(p1.counter(Counter::PoolBulkLaunches) -
                                     p0.counter(Counter::PoolBulkLaunches)),
                 "count"});
    m.push_back({"util.pool_tickets",
                 static_cast<double>(p1.counter(Counter::PoolTickets) -
                                     p0.counter(Counter::PoolTickets)),
                 "count"});
    m.push_back({"util.parallel_speedup", ratio(seq_cold_s, par.cold.seconds), "ratio"});
    m.push_back({"host.steal_pct", host.steal_pct, "%"});
    m.push_back({"host.cpu_s", host.cpu_s, "s"});
    m.push_back({"trace.overhead_ratio", ratio(traced.seconds, untraced.seconds), "ratio"});
    m.push_back({"trace.unattributed_pct", 100.0 * ratio(op_self_ms, op_wall_ms), "%"});
    m.push_back({"trace.ops", static_cast<double>(traced.attempted), "count"});

    bool correct = true;
    if (!a.spans_path.empty() && !tracer.write(a.spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", a.spans_path.c_str());
        correct = false;
    }
    const std::size_t attempted =
        s.cold.attempted + untraced.attempted + traced.attempted + par.cold.attempted;
    const std::size_t failed = failures(
        s.cold.failed + untraced.failed + traced.failed + par.cold.failed + par_wrong, wrong,
        s.cold.passes + untraced.passes + traced.passes + par.cold.passes, attempted);
    correct = correct && failed == 0;

    std::printf("perfbench %s: traced %zu ops over %zu passes (seed %llu, input %016llx); "
                "parallel replay: %s\n",
                spec.name, traced.attempted, traced.passes,
                static_cast<unsigned long long>(a.seed), static_cast<unsigned long long>(fp),
                par_wrong == 0 ? "answers match" : "MISMATCH");
    std::vector<Metric> counts;
    for (const auto& x : m)
        if (x.name == "storage.dispatch_ops" || x.name == "rpq.closure_rounds" ||
            x.name == "incr.batches")
            counts.push_back(x);
    print_checks(spec.name, fp, s.expected, counts);
    print_human(spec.name, m);
    print_result(correct, attempted, failed, m);
    return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <rpq-lubm|cfpq|closure-stream> "
                 "--seed <n> --seconds <s> --trace <0|1> [--passes <p>] [--spans <path>]\n",
                 msg);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload") a.workload = v;
            else if (k == "--seed") a.seed = std::stoull(v);
            else if (k == "--seconds") a.seconds = std::stod(v);
            else if (k == "--trace") a.trace = std::stoi(v) != 0;
            else if (k == "--passes") a.passes = std::stoul(v);
            else if (k == "--spans") a.spans_path = v;
            else usage(("unknown option " + k).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.seconds <= 0) usage("--seconds must be positive");
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse(argc, argv);
    for (const auto& spec : kWorkloads) {
        if (a.workload != spec.name) continue;
        try {
            return a.trace ? run_traced(spec, a) : run_end_to_end(spec, a);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n", spec.name, e.what());
            return 1;
        }
    }
    usage(("unknown workload '" + a.workload + "'").c_str());
}
