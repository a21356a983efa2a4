/// \file bench_ops_micro.cpp
/// \brief Google-benchmark micro suite for every library primitive, plus the
/// SpGEMM performance-trajectory harness.
///
/// Not a paper artifact per se: this is the per-kernel performance
/// regression net, parameterised over the R-MAT scale, that backs the
/// ablation discussion in DESIGN.md. The custom main() first writes
/// BENCH_spgemm.json — machine-readable SpGEMM timings on skewed (R-MAT and
/// Zipf) inputs, the library against a frozen copy of its first kernel
/// (legacy_spgemm.hpp), so the perf trajectory of the multiplication kernel
/// is tracked across PRs — and then runs the google-benchmark suite as
/// usual.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "algorithms/closure.hpp"
#include "backend/context.hpp"
#include "baseline/generic_spgemm.hpp"
#include "cfpq/queries.hpp"
#include "cfpq/rsm.hpp"
#include "common.hpp"
#include "data/rmat.hpp"
#include "data/kernel_alias.hpp"
#include "data/lubm.hpp"
#include "data/rdflike.hpp"
#include "incr/incremental.hpp"
#include "legacy_spgemm.hpp"
#include "ops/ops.hpp"
#include "prof/prof.hpp"
#include "rpq/dfa.hpp"
#include "rpq/engine.hpp"
#include "rpq/nfa.hpp"
#include "rpq/query_templates.hpp"
#include "storage/dispatch.hpp"
#include "util/rng.hpp"

namespace {

using namespace spbla;

backend::Context& ctx() {
    static backend::Context instance{backend::Policy::Parallel};
    return instance;
}

/// Workers of the SpGEMM ladder's context: the count its committed baseline
/// (bench/baselines/BENCH_spgemm.json, "threads") was recorded with. The
/// frozen baseline kernel runs on the calling thread while the library gains
/// from more workers, so geomean_speedup is only comparable at the
/// baseline's count, and tools/bench_gate.py refuses a fresh file whose
/// count differs.
constexpr std::size_t kLadderThreads = 1;

backend::Context& ladder_ctx() {
    static backend::Context instance{backend::Policy::Parallel, kLadderThreads};
    return instance;
}

std::uint64_t workers(const backend::Context& cx) {
    return cx.pool() != nullptr ? cx.pool()->size() : 1;
}

const CsrMatrix& rmat(int scale) {
    static std::map<int, CsrMatrix> cache;
    auto it = cache.find(scale);
    if (it == cache.end()) {
        it = cache.emplace(scale, data::make_rmat(static_cast<Index>(scale), 8).csr()).first;
    }
    return it->second;
}

void BM_SpGemmBoolean(benchmark::State& state) {
    const auto& a = rmat(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::multiply(ctx(), a, a));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpGemmBoolean)->Arg(8)->Arg(10)->Arg(12);

void BM_SpGemmBooleanZipf(benchmark::State& state) {
    const CsrMatrix a =
        data::make_zipf(Index{1} << static_cast<Index>(state.range(0)),
                        Index{1} << static_cast<Index>(state.range(0)), 8, 1.0)
            .csr();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::multiply(ctx(), a, a));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpGemmBooleanZipf)->Arg(10)->Arg(12);

void BM_SpGemmGenericHash(benchmark::State& state) {
    const auto g = baseline::GenericCsr::from_boolean(rmat(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        benchmark::DoNotOptimize(baseline::multiply_hash(ctx(), g, g));
    }
}
BENCHMARK(BM_SpGemmGenericHash)->Arg(8)->Arg(10)->Arg(12);

void BM_SpGemmGenericEsc(benchmark::State& state) {
    const auto g = baseline::GenericCsr::from_boolean(rmat(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        benchmark::DoNotOptimize(baseline::multiply_esc(ctx(), g, g));
    }
}
BENCHMARK(BM_SpGemmGenericEsc)->Arg(8)->Arg(10)->Arg(12);

void BM_EwiseAddCsr(benchmark::State& state) {
    const auto& a = rmat(static_cast<int>(state.range(0)));
    const auto at = ops::transpose(ctx(), a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::ewise_add(ctx(), a, at));
    }
}
BENCHMARK(BM_EwiseAddCsr)->Arg(10)->Arg(12)->Arg(14);

void BM_Kronecker(benchmark::State& state) {
    const auto& a = rmat(static_cast<int>(state.range(0)));
    const CsrMatrix small = data::make_rmat(4, 2, 77).csr();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::kronecker(ctx(), small, a));
    }
}
BENCHMARK(BM_Kronecker)->Arg(8)->Arg(10);

void BM_Transpose(benchmark::State& state) {
    const auto& a = rmat(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::transpose(ctx(), a));
    }
}
BENCHMARK(BM_Transpose)->Arg(10)->Arg(12)->Arg(14);

void BM_Submatrix(benchmark::State& state) {
    const auto& a = rmat(static_cast<int>(state.range(0)));
    const Index half = a.nrows() / 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::submatrix(ctx(), a, half / 2, half / 2, half, half));
    }
}
BENCHMARK(BM_Submatrix)->Arg(10)->Arg(12)->Arg(14);

void BM_ReduceToColumn(benchmark::State& state) {
    const auto& a = rmat(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::reduce_to_column(ctx(), a));
    }
}
BENCHMARK(BM_ReduceToColumn)->Arg(10)->Arg(12)->Arg(14);

void BM_TransitiveClosureSquaring(benchmark::State& state) {
    const Matrix a{rmat(static_cast<int>(state.range(0))), ctx()};
    for (auto _ : state) {
        benchmark::DoNotOptimize(algorithms::transitive_closure(
            ctx(), a, algorithms::ClosureStrategy::Squaring));
    }
}
BENCHMARK(BM_TransitiveClosureSquaring)->Arg(8)->Arg(10);

// ---------------- SpGEMM perf trajectory (BENCH_spgemm.json) ----------------

/// Times C = A * A with the frozen first kernel (two_pass_static_multiply)
/// and with the library on the ladder's context, appends one JSON input
/// record, and returns the library's speedup over the frozen kernel. The
/// frozen kernel's timing sits under "two_pass_static"; "configs" holds the
/// library's, whose "ms" stays the minimum (the trajectory metric tracked
/// across PRs) and whose "time" object adds the dispersion. When the
/// library was built with SPBLA_PROFILE=counters|trace, the library config
/// carries a "counters" object: the telemetry counter deltas of one
/// instrumented (untimed) multiplication, row classes and pool work
/// included. The frozen kernel records no counters.
double write_spgemm_record(bench::JsonWriter& w, const char* name, const CsrMatrix& a) {
    w.begin_object();
    w.field("name", name);
    w.field("nrows", static_cast<std::uint64_t>(a.nrows()));
    w.field("nnz", static_cast<std::uint64_t>(a.nnz()));
    const auto frozen = bench::time_stats([&] { (void)bench::two_pass_static_multiply(a, a); }, 5);
    w.begin_object("two_pass_static");
    w.field("ms", frozen.min_ms());
    w.field("time", frozen);
    w.end_object();
    const auto stats = bench::time_stats([&] { (void)ops::multiply(ladder_ctx(), a, a); }, 5);
    w.begin_array("configs");
    w.begin_object();
    w.field("name", "default");
    w.field("ms", stats.min_ms());
    w.field("time", stats);
    if (prof::counting()) {
        const auto before = telemetry::snapshot();
        (void)ops::multiply(ladder_ctx(), a, a);
        bench::write_counter_deltas(w, before, telemetry::snapshot());
    }
    w.end_object();
    w.end_array();
    const double speedup = stats.min_ms() > 0 ? frozen.min_ms() / stats.min_ms() : 0.0;
    w.field("speedup_default_vs_two_pass_static", speedup);
    w.end_object();
    return speedup;
}

/// One SpGEMM in the shape the paper workloads run it: C = A * A, or the
/// squaring closure's fused step C = M | M * M.
struct PaperInput {
    const char* name;
    bool fused;  ///< the squaring step M | M * M rather than A * A
    CsrMatrix m;
};

/// The summed Kronecker product of the LUBM(120) graph with the Table II
/// template whose product is largest — the matrix the rpq-lubm workload's
/// squaring closure multiplies most.
CsrMatrix lubm_rpq_product() {
    const auto graph = data::make_lubm(120);
    const auto labels = graph.labels_by_frequency();
    CsrMatrix largest;
    for (const auto& tpl : rpq::table2_templates()) {
        if (labels.size() < tpl.arity) continue;
        const auto dfa =
            rpq::minimize(rpq::determinize(rpq::glushkov(*tpl.instantiate(labels))));
        const auto index = rpq::build_index(ctx(), graph, dfa);
        if (index.product.nnz() > largest.nnz()) largest = index.product.csr();
    }
    return largest;
}

/// The factors of one Kronecker sum M = OR over t of as[t] (x) bs[t].
struct KronFactors {
    std::vector<Matrix> as;
    std::vector<Matrix> bs;

    [[nodiscard]] std::vector<ops::KroneckerTerm> csr_terms() const {
        std::vector<ops::KroneckerTerm> out;
        for (std::size_t t = 0; t < as.size(); ++t) out.push_back({&as[t].csr(), &bs[t].csr()});
        return out;
    }
    /// The sum through the dispatcher, as the workloads build it.
    [[nodiscard]] Matrix sum() const {
        std::vector<storage::KroneckerTerm> terms;
        for (std::size_t t = 0; t < as.size(); ++t) terms.push_back({&as[t], &bs[t]});
        const Index m = as.front().nrows() * bs.front().nrows();
        const Index n = as.front().ncols() * bs.front().ncols();
        return storage::kronecker_sum(ctx(), m, n, terms);
    }
};

/// The factors rpq::build_index sums for Table II template \p name on
/// \p graph: one term Q_s (x) G_s per query symbol the graph carries.
KronFactors rpq_factors(const data::LabeledGraph& graph, const char* name) {
    const auto labels = graph.labels_by_frequency();
    const auto dfa = rpq::minimize(rpq::determinize(
        rpq::glushkov(*rpq::template_by_name(name).instantiate(labels))));
    KronFactors f;
    for (const auto& symbol : dfa.symbols()) {
        if (!graph.has_label(symbol)) continue;
        f.as.push_back(dfa.matrix(symbol));
        f.bs.push_back(graph.matrix(symbol));
    }
    return f;
}

/// The Table III taxonomy graph and query G1 that the Tns inputs run.
struct TnsCase {
    data::LabeledGraph graph;
    cfpq::Rsm rsm;
};

TnsCase tns_taxonomy_case() {
    auto graph = data::make_taxonomy(9000, 2, 207);
    graph.add_inverse_labels();
    return {std::move(graph), cfpq::build_rsm(cfpq::query_g1())};
}

bool contains(const std::vector<std::string>& v, const std::string& x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}

/// The factors of the tensor CFPQ's (Tns) round-1 product: one term
/// RSM_s (x) G_s per RSM symbol, a nonterminal seen only through its
/// nullable identity.
KronFactors tns_round1_factors(const TnsCase& tns) {
    const auto& rsm = tns.rsm;
    const Index n = tns.graph.num_vertices();
    KronFactors f;
    for (const auto& symbol : rsm.symbols()) {
        Matrix side = contains(rsm.nullable, symbol)       ? Matrix::identity(n, ctx())
                      : contains(rsm.nonterminals, symbol) ? Matrix{n, n, ctx()}
                                                           : tns.graph.matrix(symbol);
        if (side.nnz() == 0) continue;
        f.as.push_back(rsm.matrix(symbol));
        f.bs.push_back(std::move(side));
    }
    return f;
}

/// The factors of Tns round 2, a later-round sum: one term RSM_s (x) dG_s
/// per nonterminal s, dG_s the cells round 1's closure adds to s.
KronFactors tns_round2_factors(const TnsCase& tns, const Matrix& round1) {
    const auto& rsm = tns.rsm;
    const Index n = tns.graph.num_vertices();
    const Matrix closure = algorithms::transitive_closure(ctx(), round1);
    KronFactors f;
    const Matrix identity = Matrix::identity(n, ctx());
    for (const auto& nt : rsm.nonterminals) {
        std::vector<Index> finals;
        for (const auto qf : rsm.box_final.at(nt)) finals.push_back(qf * n);
        Matrix gained =
            storage::fold_blocks(ctx(), closure, rsm.box_start.at(nt) * n, finals, n, false,
                                 contains(rsm.nullable, nt) ? &identity : nullptr);
        if (gained.nnz() == 0) continue;
        f.as.push_back(rsm.matrix(nt));
        f.bs.push_back(std::move(gained));
    }
    return f;
}

/// The round-1 product of the tensor CFPQ (Tns) on a Table III taxonomy
/// graph with query G1: M = sum over RSM symbols of RSM_s (x) G_s.
CsrMatrix tensor_cfpq_product() {
    return tns_round1_factors(tns_taxonomy_case()).sum().csr();
}

/// The closure-stream workload's delta-sized op shapes on the LUBM(60)
/// closure C: the product C * D with a 16-cell insert batch D, and the
/// commit C | gained with the cells that batch adds to the closure. One
/// operand of each is hypersparse, so these rungs watch the runner's row
/// runs and the masked bounds walk; each is timed with the default options
/// on the parallel context and on a sequential one.
void write_stream_inputs(bench::JsonWriter& w) {
    const Matrix graph = data::make_lubm(60).union_matrix();
    const Index n = graph.nrows();
    // Hold out 16 edges (every 997th cell) as the batch D. Their source rows
    // are reached from 84% of C's rows, so the masked walk maps a hit in
    // most rows: its costly case, where the stream's random batches hit few.
    std::vector<Coord> base;
    std::vector<Coord> batch;
    for (const auto& cell : graph.to_coords()) {
        const bool held = batch.size() < 16 && cell.row != cell.col &&
                          (base.size() + batch.size()) % 997 == 0;
        (held ? batch : base).push_back(cell);
    }
    const Matrix closure = algorithms::transitive_closure(
        ctx(), Matrix::from_coords(n, n, std::move(base), ctx()),
        algorithms::ClosureStrategy::Delta);
    const Matrix delta = Matrix::from_coords(n, n, std::move(batch), ctx());
    Matrix extended = closure;
    const Matrix gained = algorithms::extend_closure(ctx(), extended, delta);
    const CsrMatrix& c = closure.csr();
    const CsrMatrix& d = delta.csr();
    const CsrMatrix& g = gained.csr();
    backend::Context seq{backend::Policy::Sequential};
    struct StreamOp {
        const char* name;
        const char* op;
        std::size_t delta_nnz;
        CsrMatrix (*run)(backend::Context&, const CsrMatrix&, const CsrMatrix&);
        const CsrMatrix* rhs;
    };
    const StreamOp stream_ops[] = {
        {"lubm-60-closure-times-delta", "C = M * D", d.nnz(),
         [](backend::Context& cx, const CsrMatrix& m, const CsrMatrix& x) {
             return ops::multiply(cx, m, x);
         },
         &d},
        {"lubm-60-closure-union-gained", "C = M | G", g.nnz(),
         [](backend::Context& cx, const CsrMatrix& m, const CsrMatrix& x) {
             return ops::ewise_add(cx, m, x);
         },
         &g},
    };
    for (const auto& op : stream_ops) {
        w.begin_object();
        w.field("name", op.name);
        w.field("op", op.op);
        w.field("nrows", static_cast<std::uint64_t>(n));
        w.field("nnz", static_cast<std::uint64_t>(c.nnz()));
        w.field("delta_nnz", static_cast<std::uint64_t>(op.delta_nnz));
        w.begin_array("configs");
        double ms[2] = {0, 0};
        for (int k = 0; k < 2; ++k) {
            backend::Context& cx = k == 0 ? ctx() : seq;
            const auto stats = bench::time_stats([&] { (void)op.run(cx, c, *op.rhs); }, 20);
            ms[k] = stats.min_ms();
            w.begin_object();
            w.field("name", k == 0 ? "default" : "sequential");
            w.field("ms", stats.min_ms());
            w.field("time", stats);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        std::printf("Stream op %s (%zu-cell operand on %zu cells): %.3f ms default, "
                    "%.3f ms sequential\n",
                    op.name, op.delta_nnz, c.nnz(), ms[0], ms[1]);
    }
}

/// Times the Kronecker sums the paper workloads build, as the
/// "kronecker_inputs" array: an rpq-lubm template whose blocks each read
/// one term (Q12), one whose alternation shares blocks between terms
/// (Q9^5), and the Tns round-1 product and a later-round dG sum on the
/// taxonomy graph. Each is timed on the parallel context and on a
/// sequential one, and carries its nnz beside that of the fold
/// OR_t kronecker(A_t, B_t), which must agree. Recorded, not gated.
void write_kronecker_inputs(bench::JsonWriter& w) {
    const auto lubm = data::make_lubm(120);
    const TnsCase tns = tns_taxonomy_case();
    KronFactors round1 = tns_round1_factors(tns);
    KronFactors round2 = tns_round2_factors(tns, round1.sum());
    struct KronInput {
        const char* name;
        KronFactors factors;
    };
    const KronInput inputs[] = {
        {"rpq-lubm-120-q12", rpq_factors(lubm, "Q12")},
        {"rpq-lubm-120-q9^5", rpq_factors(lubm, "Q9^5")},
        {"tns-taxonomy-9000-g1-round1", std::move(round1)},
        {"tns-taxonomy-9000-g1-round2", std::move(round2)},
    };
    backend::Context seq{backend::Policy::Sequential};
    w.begin_array("kronecker_inputs");
    for (const auto& input : inputs) {
        const auto terms = input.factors.csr_terms();
        CsrMatrix fold{terms.front().a->nrows() * terms.front().b->nrows(),
                       terms.front().a->ncols() * terms.front().b->ncols()};
        for (const auto& [a, b] : terms) {
            fold = ops::ewise_add(ctx(), fold, ops::kronecker(ctx(), *a, *b));
        }
        const CsrMatrix sum = ops::kronecker_sum(ctx(), terms);
        if (sum != fold) {
            std::fprintf(stderr,
                         "bench_ops_micro: %s: kronecker_sum (%zu cells) differs from the "
                         "fold (%zu)\n",
                         input.name, sum.nnz(), fold.nnz());
        }
        w.begin_object();
        w.field("name", input.name);
        w.field("op", "M = OR_t A_t (x) B_t");
        w.field("terms", static_cast<std::uint64_t>(terms.size()));
        w.field("nrows", static_cast<std::uint64_t>(sum.nrows()));
        w.field("nnz", static_cast<std::uint64_t>(sum.nnz()));
        w.field("fold_nnz", static_cast<std::uint64_t>(fold.nnz()));
        w.begin_array("configs");
        double ms[2] = {0, 0};
        for (int k = 0; k < 2; ++k) {
            backend::Context& cx = k == 0 ? ctx() : seq;
            const auto stats = bench::time_stats([&] { (void)ops::kronecker_sum(cx, terms); }, 20);
            ms[k] = stats.min_ms();
            w.begin_object();
            w.field("name", k == 0 ? "default" : "sequential");
            w.field("ms", stats.min_ms());
            w.field("time", stats);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        std::printf("Kronecker sum %s (%zu terms, %zu cells): %.3f ms default, "
                    "%.3f ms sequential\n",
                    input.name, terms.size(), sum.nnz(), ms[0], ms[1]);
    }
    w.end_array();
}

/// Times each paper-shaped input with the library and with the ladder's
/// frozen two-pass-static kernel (plus the library's ewise_add for a fused
/// input), as the "paper_inputs" array, followed by the stream rungs
/// (write_stream_inputs). These rungs are recorded, not gated, and stay out
/// of geomean_speedup: they watch the sparse operand shapes the paper's
/// workloads run, which the skewed ladder inputs above never exercise.
void write_paper_inputs(bench::JsonWriter& w) {
    const char* const configs[] = {"two_pass_static", "default"};
    const PaperInput inputs[] = {
        {"rpq-lubm-120-squaring", true, lubm_rpq_product()},
        {"tns-taxonomy-9000-g1", true, tensor_cfpq_product()},
        {"taxonomy-20k", false, data::make_taxonomy(20000, 2).union_matrix().csr()},
    };
    w.begin_array("paper_inputs");
    for (const auto& input : inputs) {
        const CsrMatrix& a = input.m;
        w.begin_object();
        w.field("name", input.name);
        w.field("op", input.fused ? "C = M | M * M" : "C = A * A");
        w.field("nrows", static_cast<std::uint64_t>(a.nrows()));
        w.field("nnz", static_cast<std::uint64_t>(a.nnz()));
        w.begin_array("configs");
        double baseline_ms = 0, default_ms = 0;
        for (const char* config : configs) {
            const bool frozen = config == configs[0];
            const auto stats = bench::time_stats(
                [&] {
                    if (frozen) {
                        const CsrMatrix p = bench::two_pass_static_multiply(a, a);
                        if (input.fused) (void)ops::ewise_add(ctx(), a, p);
                    } else {
                        (void)(input.fused ? ops::multiply_add(ctx(), a, a, a)
                                           : ops::multiply(ctx(), a, a));
                    }
                },
                5);
            (frozen ? baseline_ms : default_ms) = stats.min_ms();
            w.begin_object();
            w.field("name", config);
            w.field("ms", stats.min_ms());
            w.field("time", stats);
            w.end_object();
        }
        w.end_array();
        const double speedup = default_ms > 0 ? baseline_ms / default_ms : 0.0;
        w.field("speedup_default_vs_two_pass_static", speedup);
        w.end_object();
        std::printf("SpGEMM paper input %s: %.2f ms default, %.2f ms two-pass static "
                    "(%.2fx)\n",
                    input.name, default_ms, baseline_ms, speedup);
    }
    write_stream_inputs(w);
    w.end_array();
}

/// Writes BENCH_spgemm.json (path overridable via SPBLA_BENCH_JSON) with the
/// library-against-frozen-kernel ladder on the skewed SpGEMM stress inputs.
void write_spgemm_trajectory() {
    struct Input {
        const char* name;
        CsrMatrix m;
    };
    const Input inputs[] = {
        {"rmat-12-8", data::make_rmat(12, 8).csr()},
        {"rmat-13-8", data::make_rmat(13, 8).csr()},
        {"zipf-4096-16", data::make_zipf(4096, 4096, 16, 1.0).csr()},
        {"zipf-8192-8", data::make_zipf(8192, 8192, 8, 1.1).csr()},
    };
    // The ladder gates the library's speedup over the frozen kernel, so the
    // two must agree: a wrong product on either side ends the run before
    // any JSON is written.
    for (const Input& input : inputs) {
        if (bench::two_pass_static_multiply(input.m, input.m) !=
            ops::multiply(ladder_ctx(), input.m, input.m)) {
            std::fprintf(stderr, "bench_ops_micro: %s: the library's product differs from the "
                                 "frozen kernel's\n", input.name);
            std::exit(EXIT_FAILURE);
        }
    }
    const char* path = std::getenv("SPBLA_BENCH_JSON");
    if (path == nullptr) path = "BENCH_spgemm.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_ops_micro: cannot open %s for writing\n", path);
        return;
    }
    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "spgemm");
    w.field("operation", "C = A * A");
    w.field("policy", "parallel");
    // "threads" is the ladder's library config (the gated geomean_speedup);
    // the paper, stream and Kronecker rungs' "default" configs run on
    // default_threads. Every frozen-kernel timing runs on the calling thread.
    w.field("threads", workers(ladder_ctx()));
    w.field("default_threads", workers(ctx()));
    w.field("runs", 5);
    w.field("aggregate", "min");
    w.field("profile", prof::compiled_level_name());
    w.begin_array("inputs");
    constexpr std::size_t kNumInputs = std::size(inputs);
    double log_sum = 0.0;
    for (std::size_t i = 0; i < kNumInputs; ++i) {
        const double s = write_spgemm_record(w, inputs[i].name, inputs[i].m);
        log_sum += std::log(s > 0 ? s : 1.0);
    }
    w.end_array();
    const double geomean = std::exp(log_sum / kNumInputs);
    w.field("geomean_speedup", geomean);
    write_paper_inputs(w);
    write_kronecker_inputs(w);
    w.end_object();
    std::fclose(f);
    std::printf("SpGEMM trajectory written to %s (geomean speedup %.2fx)\n", path,
                geomean);
}

// ------- Incremental update-latency ladder (BENCH_incremental.json) --------

/// Update latency vs batch size: transitive-closure maintenance on LUBM and
/// pointer-analysis graphs, insert batches of 1 -> 10^4 cells and delete
/// batches of 1 -> 100 present cells, incremental update_closure against a
/// full recompute of the same post-batch graph.
/// Every timed run consumes a DISTINCT pre-generated batch and a fresh
/// pre-copied closure, so no run reuses another's work.
void write_incremental_trajectory() {
    const char* path = std::getenv("SPBLA_BENCH_INCR_JSON");
    if (path == nullptr) path = "BENCH_incremental.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_ops_micro: cannot open %s for writing\n", path);
        return;
    }
    constexpr std::size_t kBatchLadder[] = {1, 10, 100, 1000, 10000};
    constexpr std::size_t kDeleteLadder[] = {1, 10, 100};
    constexpr int kIncrRuns = 3;
    struct Input {
        const char* name;
        Matrix adj;
    };
    const auto rebind = [](const Matrix& m) {
        return Matrix::from_coords(m.nrows(), m.ncols(), m.to_coords(), ctx());
    };
    const Input inputs[] = {
        {"lubm-1", rebind(data::make_lubm(1, 7).union_matrix())},
        {"alias-768", rebind(data::make_alias_graph(768, 23).union_matrix())},
    };
    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "incremental");
    w.field("operation",
            "transitive-closure maintenance: update_closure vs full recompute, "
            "insert batches of 1..10^4 cells, delete batches of 1..100 cells");
    w.field("runs", static_cast<std::uint64_t>(kIncrRuns));
    w.begin_array("inputs");
    // Full-recompute time over incremental time, from the runs' minima (the
    // gated figure) and from their medians. A batch-1 update takes a few
    // microseconds, and a batch whose cells are already edges is a no-op
    // that sets the minimum alone: the median-based figure, recorded
    // beside it, shows how far the minimum swings.
    struct Speedups {
        double min{0.0};
        double p50{0.0};
    };
    double log_sum = 0.0;
    double log_sum_p50 = 0.0;
    std::size_t n_inputs = 0;
    for (const Input& input : inputs) {
        const Index n = input.adj.nrows();
        const Matrix closure0 =
            algorithms::transitive_closure(ctx(), input.adj,
                                           algorithms::ClosureStrategy::Delta);
        w.begin_object();
        w.field("name", input.name);
        w.field("n", static_cast<std::uint64_t>(n));
        w.field("nnz", static_cast<std::uint64_t>(input.adj.nnz()));
        w.field("closure_nnz", static_cast<std::uint64_t>(closure0.nnz()));
        util::Rng rng{1234};
        const auto present = input.adj.to_coords();
        // One rung: update_closure on kIncrRuns + 1 distinct batches (one
        // warm-up) against a full recompute of each post-batch graph. An
        // insert rung adds random cells, a delete rung removes sampled
        // present ones. Writes the rung object and returns its speedups.
        const auto rung = [&](std::size_t batch, bool deleting) {
            std::vector<Matrix> batches;
            std::vector<Matrix> afters;
            std::vector<Matrix> closures;
            for (int r = 0; r < kIncrRuns + 1; ++r) {
                std::vector<Coord> coords;
                for (std::size_t k = 0; k < batch; ++k) {
                    coords.push_back(deleting ? present[rng.below(present.size())]
                                              : Coord{static_cast<Index>(rng.below(n)),
                                                      static_cast<Index>(rng.below(n))});
                }
                batches.push_back(
                    Matrix::from_coords(n, n, std::move(coords), ctx()));
                afters.push_back(
                    deleting ? storage::ewise_diff(ctx(), input.adj, batches.back())
                             : storage::ewise_add(ctx(), input.adj, batches.back()));
                closures.push_back(closure0);
            }
            const Matrix none{n, n, ctx()};
            std::size_t idx = 0;
            const auto incr_stats = bench::time_stats(
                [&] {
                    if (deleting) {
                        (void)incr::update_closure(ctx(), closures[idx], afters[idx],
                                                   none, batches[idx]);
                    } else {
                        const auto add_eff =
                            storage::ewise_diff(ctx(), batches[idx], input.adj);
                        (void)incr::update_closure(ctx(), closures[idx], afters[idx],
                                                   add_eff, none);
                    }
                    idx = (idx + 1) % batches.size();
                },
                kIncrRuns);
            idx = 0;
            const auto full_stats = bench::time_stats(
                [&] {
                    (void)algorithms::transitive_closure(
                        ctx(), afters[idx], algorithms::ClosureStrategy::Delta);
                    idx = (idx + 1) % afters.size();
                },
                kIncrRuns);
            const Speedups speedup{
                incr_stats.min_s > 0 ? full_stats.min_s / incr_stats.min_s : 0.0,
                incr_stats.p50_s > 0 ? full_stats.p50_s / incr_stats.p50_s : 0.0};
            w.begin_object();
            w.field("batch", static_cast<std::uint64_t>(batch));
            w.field("incremental", incr_stats);
            w.field("full_recompute", full_stats);
            w.field("speedup", speedup.min);
            w.field("speedup_p50", speedup.p50);
            w.end_object();
            return speedup;
        };
        w.begin_array("rungs");
        Speedups speedup1;
        for (const std::size_t batch : kBatchLadder) {
            const Speedups speedup = rung(batch, /*deleting=*/false);
            if (batch == 1) speedup1 = speedup;
        }
        w.end_array();
        w.field("speedup_batch1", speedup1.min);
        w.field("speedup_batch1_p50", speedup1.p50);
        // Delete rungs are recorded, not gated.
        w.begin_array("delete_rungs");
        for (const std::size_t batch : kDeleteLadder) (void)rung(batch, /*deleting=*/true);
        w.end_array();
        log_sum += std::log(speedup1.min > 0 ? speedup1.min : 1.0);
        log_sum_p50 += std::log(speedup1.p50 > 0 ? speedup1.p50 : 1.0);
        ++n_inputs;
        w.end_object();
    }
    w.end_array();
    const double geomean =
        n_inputs > 0 ? std::exp(log_sum / static_cast<double>(n_inputs)) : 0.0;
    w.field("geomean_speedup_batch1", geomean);
    w.field("geomean_speedup_batch1_p50",
            n_inputs > 0 ? std::exp(log_sum_p50 / static_cast<double>(n_inputs)) : 0.0);
    // Driver smoke: one insert and one delete batch through the
    // IncrementalClosure driver, plus one empty-operand multiply. The timed
    // ladder above exercises the raw update_closure path only; this pass
    // makes the exit trace carry the rest of the spbla.incr.* story —
    // batch/saved-iterations accounting, the delta nnz, and the
    // dispatcher short-circuit — for check_trace.py --require-incr.
    {
        const Matrix& adj = inputs[0].adj;
        const Index n = adj.nrows();
        incr::IncrementalClosure driver{ctx(), adj};
        const Matrix edge = Matrix::from_coords(
            n, n, {{0, static_cast<Index>(n - 1)}}, ctx());
        const Matrix none{n, n, ctx()};
        driver.apply(edge, none);
        driver.apply(none, edge);
        (void)storage::multiply(ctx(), adj, none);
    }
    w.end_object();
    std::fclose(f);
    std::printf("Incremental update-latency ladder written to %s "
                "(batch-1 geomean speedup %.2fx)\n",
                path, geomean);
}

}  // namespace

int main(int argc, char** argv) {
    // Two trajectory ladders plus the benchmark loop overflow the default
    // per-thread trace ring (the incremental ladder's semi-naive rounds
    // would lap the earlier ladders' spans out of the exit trace), so size
    // the rings for the whole smoke run before the first span is recorded.
    prof::set_ring_capacity(1 << 16);
    write_spgemm_trajectory();
    write_incremental_trajectory();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
