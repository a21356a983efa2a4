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

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "algorithms/closure.hpp"
#include "backend/arena.hpp"
#include "backend/context.hpp"
#include "baseline/generic_spgemm.hpp"
#include "common.hpp"
#include "core/convert.hpp"
#include "data/rmat.hpp"
#include "data/kernel_alias.hpp"
#include "data/lubm.hpp"
#include "incr/incremental.hpp"
#include "incr/memo.hpp"
#include "ops/ops.hpp"
#include "prof/prof.hpp"
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

    // Allocation-count ablation: the same full-pipeline multiply with the op
    // arena active vs. forced into pass-through (every scratch request an
    // individually tracked heap block — the pre-arena behaviour). Counted by
    // the device tracker, so the ratio is exactly the allocator-traffic
    // reduction the arena tier buys on this ladder's hardest input.
    {
        const ops::SpGemmOptions full;
        auto& tracker = ctx().tracker();
        (void)ops::multiply(ctx(), inputs[0].m, inputs[0].m, full);  // warm slabs
        const std::uint64_t on0 = tracker.alloc_count();
        (void)ops::multiply(ctx(), inputs[0].m, inputs[0].m, full);
        const std::uint64_t allocs_on = tracker.alloc_count() - on0;

        backend::set_arena_enabled(false);
        const std::uint64_t off0 = tracker.alloc_count();
        (void)ops::multiply(ctx(), inputs[0].m, inputs[0].m, full);
        const std::uint64_t allocs_off = tracker.alloc_count() - off0;
        backend::set_arena_enabled(true);

        const double reduction =
            static_cast<double>(allocs_off) /
            static_cast<double>(std::max<std::uint64_t>(allocs_on, 1));
        w.field("allocs_arena_on", allocs_on);
        w.field("allocs_arena_off", allocs_off);
        w.field("alloc_reduction_spgemm", reduction);
        std::printf("SpGEMM alloc ablation: %llu tracked allocs pass-through vs "
                    "%llu with the arena (%.1fx reduction)\n",
                    static_cast<unsigned long long>(allocs_off),
                    static_cast<unsigned long long>(allocs_on), reduction);
    }
    w.end_object();
    std::fclose(f);
    std::printf("SpGEMM trajectory written to %s (geomean speedup %.2fx)\n", path,
                geomean);
}

// ------------- Format-dispatch trajectory (BENCH_formats.json) -------------

/// One dispatch-visible operation timed by the format ladder.
struct FormatOp {
    const char* name;
    std::function<void(const Matrix&, const Matrix&)> run;
};

/// The cost-model acceptance ladder: every public op is timed on every input
/// under auto routing and under each forced format, and the record keeps
/// auto / best-static / worst-static ratios. The tracked claims: auto stays
/// within 10% of the best static choice (geomean) and strictly beats the
/// worst one — i.e. the cost model earns its keep over any fixed format.
/// All representations are materialised before timing, so the ladder
/// measures routing quality, not one-off conversion noise; the conversion
/// and cache-hit counters are reported separately from an instrumented pass.
void write_formats_trajectory() {
    const char* path = std::getenv("SPBLA_BENCH_FORMATS_JSON");
    if (path == nullptr) path = "BENCH_formats.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_ops_micro: cannot open %s for writing\n", path);
        return;
    }

    struct Input {
        const char* name;
        Matrix a;
        Matrix b;
    };
    const auto square = [&](CsrMatrix m) {
        Matrix a{std::move(m), ctx()};
        Matrix b = storage::transpose(ctx(), a);
        // Materialise every representation up front (charged, cached).
        for (const Matrix* p : {&a, &b}) {
            (void)p->csr(ctx());
            (void)p->bitblocks(ctx());
        }
        return Input{nullptr, std::move(a), std::move(b)};
    };
    std::vector<Input> inputs;
    inputs.push_back(square(data::make_rmat(10, 8).csr()));
    inputs.back().name = "rmat-10-8";  // skewed sparse: the CSR home turf
    inputs.push_back(square(data::make_uniform(256, 256, 0.30, 5151).csr()));
    inputs.back().name = "uniform-256-dense";  // 30% full: bit-block turf
    inputs.push_back(square(data::make_uniform(2048, 2048, 0.001, 5252).csr()));
    inputs.back().name = "uniform-2048-hyper";  // ~2/row: below the bit-block gate

    const FormatOp ops[] = {
        {"multiply",
         [](const Matrix& a, const Matrix& b) { (void)storage::multiply(ctx(), a, b); }},
        {"ewise_add",
         [](const Matrix& a, const Matrix& b) { (void)storage::ewise_add(ctx(), a, b); }},
        {"ewise_mult",
         [](const Matrix& a, const Matrix& b) { (void)storage::ewise_mult(ctx(), a, b); }},
        {"transpose",
         [](const Matrix& a, const Matrix&) { (void)storage::transpose(ctx(), a); }},
        {"submatrix",
         [](const Matrix& a, const Matrix&) {
             (void)storage::submatrix(ctx(), a, a.nrows() / 4, a.ncols() / 4,
                                      a.nrows() / 2, a.ncols() / 2);
         }},
        {"reduce_to_column",
         [](const Matrix& a, const Matrix&) { (void)storage::reduce_to_column(ctx(), a); }},
    };

    struct HintCase {
        const char* name;
        storage::FormatHint hint;
    };
    const HintCase hints[] = {
        {"auto", storage::FormatHint::Auto},
        {"csr", storage::FormatHint::ForceCsr},
        {"bitblock", storage::FormatHint::ForceBitBlocks},
    };

    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "formats");
    w.field("operation", "storage dispatch vs forced formats");
    w.field("policy", "parallel");
    w.field("runs", 17);
    w.field("aggregate", "min");
    const auto counters_before = backend::Context::metrics_snapshot();
    w.begin_array("records");
    double log_vs_best = 0.0, log_vs_worst = 0.0;
    std::size_t n_records = 0, auto_beats_worst = 0;
    for (const auto& op : ops) {
        for (const auto& input : inputs) {
            w.begin_object();
            w.field("op", op.name);
            w.field("input", input.name);
            w.field("nrows", static_cast<std::uint64_t>(input.a.nrows()));
            w.field("nnz", static_cast<std::uint64_t>(input.a.nnz()));
            double auto_ms = 0.0, best_ms = 0.0, worst_ms = 0.0;
            for (const auto& h : hints) {
                storage::ScopedHint scope{h.hint};
                const auto stats = bench::time_stats(
                    [&] { op.run(input.a, input.b); }, 17);
                const double ms = stats.min_ms();
                w.field(h.name, stats);
                if (h.hint == storage::FormatHint::Auto) {
                    auto_ms = ms;
                } else {
                    if (best_ms == 0.0 || ms < best_ms) best_ms = ms;
                    if (ms > worst_ms) worst_ms = ms;
                }
            }
            w.field("auto_vs_best_static", best_ms > 0 ? auto_ms / best_ms : 0.0);
            w.field("auto_vs_worst_static", worst_ms > 0 ? auto_ms / worst_ms : 0.0);
            if (auto_ms > 0 && best_ms > 0 && worst_ms > 0) {
                log_vs_best += std::log(auto_ms / best_ms);
                log_vs_worst += std::log(auto_ms / worst_ms);
                if (auto_ms < worst_ms) ++auto_beats_worst;
                ++n_records;
            }
            w.end_object();
        }
    }
    w.end_array();

    // Dense-bin density ladder: the broadword tier against the generic hash
    // SpGEMM on uniform inputs at and above the 1/64 dense-bin threshold —
    // the regime the 64x64 tile format was built for. The tracked claim:
    // the bit tier wins by >= 4x geomean here. ewise_mult rides along so the
    // instrumented replay exercises the AND counter
    // (spbla.bitblock.words_anded), not just the multiply's OR paths.
    struct Rung {
        const char* name;
        Index n;
        double density;
    };
    const Rung rungs[] = {
        {"uniform-1024-d1/64", 1024, 1.0 / 64},
        {"uniform-1024-d1/16", 1024, 1.0 / 16},
        {"uniform-512-d1/4", 512, 0.25},
    };
    constexpr int kBitRuns = 5;
    w.begin_array("bitblock_ladder");
    double log_bb = 0.0;
    std::size_t n_bb = 0;
    for (const Rung& r : rungs) {
        const CsrMatrix a = data::make_uniform(r.n, r.n, r.density, 6161).csr();
        const BitBlockMatrix ab = to_bitblocks(ctx(), a);
        const auto g = baseline::GenericCsr::from_boolean(a);
        const auto bit = bench::time_stats(
            [&] { (void)ops::multiply(ctx(), ab, ab); }, kBitRuns);
        const auto hash = bench::time_stats(
            [&] { (void)baseline::multiply_hash(ctx(), g, g); }, kBitRuns);
        const auto bit_and = bench::time_stats(
            [&] { (void)ops::ewise_mult(ctx(), ab, ab); }, kBitRuns);
        const double speedup =
            bit.min_ms() > 0 ? hash.min_ms() / bit.min_ms() : 0.0;
        w.begin_object();
        w.field("input", r.name);
        w.field("nrows", static_cast<std::uint64_t>(r.n));
        w.field("nnz", static_cast<std::uint64_t>(a.nnz()));
        w.field("density", r.density);
        w.field("bitblock_multiply", bit);
        w.field("hash_spgemm", hash);
        w.field("bitblock_ewise_mult", bit_and);
        w.field("bitblock_vs_hash", speedup);
        w.end_object();
        if (speedup > 0) {
            log_bb += std::log(speedup);
            ++n_bb;
        }
    }
    w.end_array();
    const double geo_bb =
        n_bb > 0 ? std::exp(log_bb / static_cast<double>(n_bb)) : 0.0;
    w.field("geomean_bitblock_vs_hash_spgemm", geo_bb);

    // Counter story of the whole sweep: conversions happen only while the
    // reps warm up (bounded by inputs x formats); routed ops hit the cache.
    // dispatch_coo and dispatch_dense read the retired routes' counters and
    // stay 0; they keep the record's field set unchanged.
    const auto counters_after = backend::Context::metrics_snapshot();
    const auto counted = [&](telemetry::Counter c) {
        return counters_after.counter(c) - counters_before.counter(c);
    };
    w.begin_object("counters");
    w.field("format_conversions", counted(telemetry::Counter::StorageConversions));
    w.field("repr_cache_hits", counted(telemetry::Counter::StorageCacheHits));
    w.field("dispatch_csr", counted(telemetry::Counter::DispatchCsr));
    w.field("dispatch_coo", counted(telemetry::Counter::DispatchCoo));
    w.field("dispatch_dense", counted(telemetry::Counter::DispatchDense));
    w.field("dispatch_bitblock", counted(telemetry::Counter::DispatchBitBlocks));
    w.end_object();
    if (prof::counting()) {
        // Replay once with cold caches so the exported trace carries the
        // whole counter story: conversions while the secondary reps rebuild,
        // cache hits when the next op reuses them, and one pick per dispatch.
        const auto before = telemetry::snapshot();
        for (auto& input : inputs) {
            input.a.drop_cached();
            input.b.drop_cached();
            for (const auto& op : ops) op.run(input.a, input.b);
        }
        bench::write_counter_deltas(w, before, telemetry::snapshot(), "replay_counters");
    }
    const double geo_best =
        n_records > 0 ? std::exp(log_vs_best / static_cast<double>(n_records)) : 0.0;
    const double geo_worst =
        n_records > 0 ? std::exp(log_vs_worst / static_cast<double>(n_records)) : 0.0;
    w.field("geomean_auto_vs_best_static", geo_best);
    w.field("geomean_auto_vs_worst_static", geo_worst);
    w.field("auto_beats_worst_static",
            static_cast<std::uint64_t>(auto_beats_worst));
    w.field("n_records", static_cast<std::uint64_t>(n_records));
    w.end_object();
    std::fclose(f);
    std::printf("Format-dispatch ladder written to %s "
                "(auto vs best static %.2fx, vs worst static %.2fx, "
                "bitblock vs hash-SpGEMM %.2fx)\n",
                path, geo_best, geo_worst, geo_bb);
}

// ------- Incremental update-latency ladder (BENCH_incremental.json) --------

/// Update latency vs batch size: transitive-closure maintenance on LUBM and
/// pointer-analysis graphs, insert batches of 1 -> 10^4 cells and delete
/// batches of 1 -> 100 present cells, incremental update_closure against a
/// full recompute of the same post-batch graph.
/// Every timed run consumes a DISTINCT pre-generated batch and a fresh
/// pre-copied closure, so no run reuses another's work; a separate
/// memo_replay section replays one delta product through the op memo on
/// purpose so the exit trace carries real spbla.incr.memo_hits for
/// check_trace.py --require-incr.
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
    // batch/saved-iterations accounting, the delta-overlay nnz, and the
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
    // Deliberate replay: identical operand epochs hit the op memo, so the
    // exit trace (and this file) record non-zero memo hit counters.
    {
        const auto before = incr::memo().stats();
        const Matrix& adj = inputs[0].adj;
        const Matrix seed = Matrix::from_coords(adj.nrows(), adj.ncols(),
                                                {{0, adj.ncols() - 1}}, ctx());
        for (int r = 0; r < 4; ++r) (void)incr::memo_multiply(ctx(), adj, seed);
        const auto after = incr::memo().stats();
        w.begin_object("memo_replay");
        w.field("lookups", after.lookups - before.lookups);
        w.field("hits", after.hits - before.hits);
        w.field("stores", after.stores - before.stores);
        w.end_object();
    }
    w.end_object();
    std::fclose(f);
    incr::memo().clear();
    std::printf("Incremental update-latency ladder written to %s "
                "(batch-1 geomean speedup %.2fx)\n",
                path, geomean);
}

}  // namespace

int main(int argc, char** argv) {
    // Three trajectory ladders plus the benchmark loop overflow the default
    // per-thread trace ring (the incremental ladder's semi-naive rounds
    // would lap the earlier ladders' spans out of the exit trace), so size
    // the rings for the whole smoke run before the first span is recorded.
    prof::set_ring_capacity(1 << 16);
    write_spgemm_trajectory();
    write_formats_trajectory();
    write_incremental_trajectory();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
