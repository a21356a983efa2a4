/// \file bench_ops_micro.cpp
/// \brief Google-benchmark micro suite for every library primitive, plus the
/// SpGEMM performance-trajectory harness.
///
/// Not a paper artifact per se: this is the per-kernel performance
/// regression net, parameterised over the R-MAT scale, that backs the
/// ablation discussion in DESIGN.md. The custom main() first writes
/// BENCH_spgemm.json — machine-readable SpGEMM timings on skewed (R-MAT and
/// Zipf) inputs for the scheduler/caching configurations, so the perf
/// trajectory of the multiplication kernel is tracked across PRs — and then
/// runs the google-benchmark suite as usual.
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

void BM_TransitiveClosureLinear(benchmark::State& state) {
    const Matrix a{rmat(static_cast<int>(state.range(0))), ctx()};
    for (auto _ : state) {
        benchmark::DoNotOptimize(algorithms::transitive_closure(
            ctx(), a, algorithms::ClosureStrategy::Linear));
    }
}
BENCHMARK(BM_TransitiveClosureLinear)->Arg(8)->Arg(10);

// ---------------- SpGEMM perf trajectory (BENCH_spgemm.json) ----------------

/// The ablation ladder from the pre-bin-scheduler implementation to the full
/// pipeline; each rung enables exactly one mechanism on top of the previous,
/// so consecutive ratios attribute the gain to that mechanism.
struct SpGemmConfig {
    const char* name;
    ops::SpGemmOptions opts;
};

std::vector<SpGemmConfig> spgemm_ladder() {
    ops::SpGemmOptions baseline;  // the pre-PR two-pass static-chunk kernel
    baseline.legacy_accumulator_reset = true;
    baseline.dense_row_fraction = 0.25;  // the pre-PR dense-bin threshold
    baseline.use_ticket_scheduler = false;
    baseline.use_bin_scheduler = false;
    baseline.symbolic_cache_budget = 0;
    ops::SpGemmOptions reset_fix = baseline;  // + touched-word / re-probe resets
    reset_fix.legacy_accumulator_reset = false;
    ops::SpGemmOptions retune = reset_fix;  // + 1/64 dense-bitmap crossover
    retune.dense_row_fraction = ops::SpGemmOptions{}.dense_row_fraction;
    ops::SpGemmOptions ticket = retune;
    ticket.use_ticket_scheduler = true;
    ops::SpGemmOptions binned = ticket;
    binned.use_bin_scheduler = true;
    const ops::SpGemmOptions full;  // + symbolic-column caching (defaults)
    return {{"two_pass_static", baseline},
            {"plus_accumulator_reset_fix", reset_fix},
            {"plus_dense_bitmap_retune", retune},
            {"plus_ticket_scheduler", ticket},
            {"plus_bin_scheduler", binned},
            {"plus_symbolic_cache", full}};
}

/// Times C = A * A for every ladder rung, appends one JSON input record, and
/// returns full-pipeline speedup over the pre-PR baseline rung. The "ms"
/// field stays the minimum (the trajectory metric tracked across PRs); the
/// "time" object adds the dispersion and, when the library was built with
/// SPBLA_PROFILE=counters|trace, each rung carries a "counters" object: the
/// telemetry counter deltas of one instrumented (untimed) multiplication —
/// bin occupancy, hash probe/collision rates and pool work per rung, so the
/// ladder attributes not just time but also the mechanism-level effects.
double write_spgemm_record(bench::JsonWriter& w, const char* name,
                           const CsrMatrix& a) {
    const auto configs = spgemm_ladder();
    w.begin_object();
    w.field("name", name);
    w.field("nrows", static_cast<std::uint64_t>(a.nrows()));
    w.field("nnz", static_cast<std::uint64_t>(a.nnz()));
    w.begin_array("configs");
    double baseline_ms = 0, full_ms = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto stats = bench::time_stats(
            [&] { (void)ops::multiply(ctx(), a, a, configs[i].opts); }, 5);
        const double ms = stats.min_ms();
        if (i == 0) baseline_ms = ms;
        if (i + 1 == configs.size()) full_ms = ms;
        w.begin_object();
        w.field("name", configs[i].name);
        w.field("ms", ms);
        w.field("time", stats);
        if (prof::counting()) {
            const auto before = telemetry::snapshot();
            (void)ops::multiply(ctx(), a, a, configs[i].opts);
            bench::write_counter_deltas(w, before, telemetry::snapshot());
        }
        w.end_object();
    }
    w.end_array();
    const double speedup = full_ms > 0 ? baseline_ms / full_ms : 0.0;
    w.field("speedup_full_vs_two_pass_static", speedup);
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

/// The round-1 product of the tensor CFPQ (Tns) on a Table III taxonomy
/// graph with query G1: M = sum over RSM symbols of RSM_s (x) G_s.
CsrMatrix tensor_cfpq_product() {
    auto graph = data::make_taxonomy(9000, 2, 207);
    graph.add_inverse_labels();
    const cfpq::Rsm rsm = cfpq::build_rsm(cfpq::query_g1());
    const Index n = graph.num_vertices();
    const Index k = rsm.num_states;
    const auto symbols = rsm.symbols();
    std::vector<Matrix> boxes;
    std::vector<Matrix> sides;
    boxes.reserve(symbols.size());
    sides.reserve(symbols.size());
    std::vector<storage::KroneckerTerm> terms;
    const auto has = [](const std::vector<std::string>& v, const std::string& x) {
        return std::find(v.begin(), v.end(), x) != v.end();
    };
    for (const auto& symbol : symbols) {
        boxes.push_back(rsm.matrix(symbol));
        // Round 1 sees a nonterminal only through its nullable identity.
        if (has(rsm.nullable, symbol)) {
            sides.push_back(Matrix::identity(n, ctx()));
        } else if (has(rsm.nonterminals, symbol)) {
            sides.push_back(Matrix{n, n, ctx()});
        } else {
            sides.push_back(graph.matrix(symbol));
        }
        if (sides.back().nnz() != 0) terms.push_back({&boxes.back(), &sides.back()});
    }
    return storage::kronecker_sum(ctx(), k * n, k * n, terms).csr();
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

/// Times each paper-shaped input with the default options and with the
/// ladder's two-pass-static baseline options, as the "paper_inputs" array,
/// followed by the stream rungs (write_stream_inputs). These rungs are
/// recorded, not gated, and stay out of geomean_speedup: they watch the
/// sparse operand shapes the paper's workloads run, which the skewed ladder
/// inputs above never exercise.
void write_paper_inputs(bench::JsonWriter& w) {
    const auto ladder = spgemm_ladder();
    const SpGemmConfig configs[] = {ladder.front(), {"default", ops::SpGemmOptions{}}};
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
        for (const auto& config : configs) {
            const auto stats = bench::time_stats(
                [&] {
                    (void)(input.fused ? ops::multiply_add(ctx(), a, a, a, config.opts)
                                       : ops::multiply(ctx(), a, a, config.opts));
                },
                5);
            (&config == &configs[0] ? baseline_ms : default_ms) = stats.min_ms();
            w.begin_object();
            w.field("name", config.name);
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
/// scheduler/caching ladder on the skewed SpGEMM stress inputs.
void write_spgemm_trajectory() {
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
    w.field("threads", static_cast<std::uint64_t>(ctx().pool() ? ctx().pool()->size() : 1));
    w.field("runs", 5);
    w.field("aggregate", "min");
    w.field("profile", prof::compiled_level_name());
    w.begin_array("inputs");
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
    double log_sum = 0.0;
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
        // present ones. Writes the rung object and returns its speedup.
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
            const double speedup =
                incr_stats.min_s > 0 ? full_stats.min_s / incr_stats.min_s : 0.0;
            w.begin_object();
            w.field("batch", static_cast<std::uint64_t>(batch));
            w.field("incremental", incr_stats);
            w.field("full_recompute", full_stats);
            w.field("speedup", speedup);
            w.end_object();
            return speedup;
        };
        w.begin_array("rungs");
        double speedup1 = 0.0;
        for (const std::size_t batch : kBatchLadder) {
            const double speedup = rung(batch, /*deleting=*/false);
            if (batch == 1) speedup1 = speedup;
        }
        w.end_array();
        w.field("speedup_batch1", speedup1);
        // Delete rungs are recorded, not gated.
        w.begin_array("delete_rungs");
        for (const std::size_t batch : kDeleteLadder) (void)rung(batch, /*deleting=*/true);
        w.end_array();
        log_sum += std::log(speedup1 > 0 ? speedup1 : 1.0);
        ++n_inputs;
        w.end_object();
    }
    w.end_array();
    const double geomean =
        n_inputs > 0 ? std::exp(log_sum / static_cast<double>(n_inputs)) : 0.0;
    w.field("geomean_speedup_batch1", geomean);
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
