/// \file bench_boolean_vs_generic.cpp
/// \brief Experiment E1 — the abstract's headline claim.
///
/// "Operations specialized for Boolean matrices can be up to 5 times faster
/// and consume up to 4 times less memory than generic, not the Boolean
/// optimized, operations from modern libraries."
///
/// Workload: matrix squaring C = A * A (the standard SpGEMM stress test the
/// SPbLA evaluation uses) and element-wise addition A + A^T, over R-MAT
/// power-law matrices and generated RDF adjacency matrices. Comparators:
///   boolean      — SPbLA's hash-set kernel, no value array
///   generic-hash — same Nsparse structure with float hash-map accumulation
///                  (the cuSPARSE-style comparator)
///   generic-esc  — expand-sort-compress with float values (the CUSP-style
///                  comparator; its expansion buffer is the memory hog)
/// Reported memory = matrix footprints + peak tracked temporaries. Kernel
/// scratch is exact Context::alloc buffers, so the peak is the bytes the
/// kernel asked for.
///
/// Besides the printed tables, the run writes BENCH_e1.json (path
/// overridable via SPBLA_BENCH_E1_JSON) through the shared bench::JsonWriter
/// so the comparison is machine-readable with dispersion (min/mean/stddev
/// per measurement), not just a point estimate. Each SpGEMM input records
/// the claim as two ratios against the slower generic comparator — time
/// (min over runs) and memory — and the file carries their minima over the
/// inputs, min_time_ratio and min_mem_ratio, which tools/bench_gate.py gates.
/// Each EWiseAdd input records the same two ratios against the
/// value-carrying twin (recorded, not gated).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "baseline/generic_csr.hpp"
#include "baseline/generic_ewise_add.hpp"
#include "baseline/generic_spgemm.hpp"
#include "common.hpp"
#include "data/lubm.hpp"
#include "data/rdflike.hpp"
#include "data/rmat.hpp"
#include "ops/ewise_add.hpp"
#include "ops/spgemm.hpp"
#include "ops/transpose.hpp"

namespace {

using namespace spbla;
using bench::ctx;

struct Workload {
    std::string name;
    CsrMatrix matrix;
};

struct Measurement {
    bench::Stats time;
    std::size_t bytes;  // result + temporaries
};

/// Result bytes plus the tracked peak over three runs. A parallel run holds
/// the scratch of every chunk in flight at once, and how many overlap varies
/// run to run; the peak over three runs is the footprint with (nearly
/// always) every worker in.
template <class Run>
std::size_t footprint(Run run) {
    ctx().tracker().reset_peak();
    std::size_t result_bytes = 0;
    for (int r = 0; r < 3; ++r) result_bytes = run().device_bytes();
    return result_bytes + ctx().tracker().peak_bytes();
}

/// Time \p runs in interleaved rounds (one run each per round, after a
/// warm-up), so a burst of host noise hits every kernel alike; rounds fill
/// about two seconds, 5 to 60 of them.
template <std::size_t N>
std::array<bench::Stats, N> interleaved_stats(const std::function<void()> (&runs)[N]) {
    double round_s = 0.0;
    for (const auto& run : runs) {
        util::Timer timer;
        run();
        round_s += timer.seconds();
    }
    const int rounds = static_cast<int>(std::clamp(2.0 / std::max(round_s, 1e-6), 5.0, 60.0));
    std::vector<double> samples[N];
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < N; ++k) {
            util::Timer timer;
            runs[k]();
            samples[k].push_back(timer.seconds());
        }
    }
    std::array<bench::Stats, N> out;
    for (std::size_t k = 0; k < N; ++k) out[k] = bench::stats_of(samples[k]);
    return out;
}

struct SquareRow {
    const Workload* w;
    Measurement boolean, generic_hash, generic_esc;

    /// The slower generic comparator's min time over the Boolean kernel's.
    [[nodiscard]] double time_ratio() const {
        return std::max(generic_hash.time.min_s, generic_esc.time.min_s) /
               boolean.time.min_s;
    }
    /// The larger generic footprint over the Boolean kernel's.
    [[nodiscard]] double mem_ratio() const {
        return static_cast<double>(std::max(generic_hash.bytes, generic_esc.bytes)) /
               static_cast<double>(boolean.bytes);
    }
};

/// C = A * A with the three kernels, timed in interleaved rounds. Each
/// kernel's memory is measured apart.
SquareRow measure_square(const Workload& w) {
    const CsrMatrix& a = w.matrix;
    const auto g = baseline::GenericCsr::from_boolean(a);
    const std::function<void()> runs[] = {
        [&] { (void)ops::multiply(ctx(), a, a); },
        [&] { (void)baseline::multiply_hash(ctx(), g, g); },
        [&] { (void)baseline::multiply_esc(ctx(), g, g); },
    };
    const auto time = interleaved_stats(runs);
    return {&w,
            {time[0], footprint([&] { return ops::multiply(ctx(), a, a); })},
            {time[1], footprint([&] { return baseline::multiply_hash(ctx(), g, g); })},
            {time[2], footprint([&] { return baseline::multiply_esc(ctx(), g, g); })}};
}

struct AddRow {
    const Workload* w;
    Measurement boolean, generic;

    /// The value-carrying twin's min time over the Boolean kernel's.
    [[nodiscard]] double time_ratio() const { return generic.time.min_s / boolean.time.min_s; }
    /// The twin's footprint over the Boolean kernel's.
    [[nodiscard]] double mem_ratio() const {
        return static_cast<double>(generic.bytes) / static_cast<double>(boolean.bytes);
    }
};

/// C = A + A^T with the Boolean kernel and its value-carrying twin, timed in
/// interleaved rounds, memory measured apart.
AddRow measure_add(const Workload& w) {
    const CsrMatrix& a = w.matrix;
    const CsrMatrix at = ops::transpose(ctx(), a);
    const auto ga = baseline::GenericCsr::from_boolean(a);
    const auto gat = baseline::GenericCsr::from_boolean(at);
    const std::function<void()> runs[] = {
        [&] { (void)ops::ewise_add(ctx(), a, at); },
        [&] { (void)baseline::ewise_add(ctx(), ga, gat); },
    };
    const auto time = interleaved_stats(runs);
    return {&w,
            {time[0], footprint([&] { return ops::ewise_add(ctx(), a, at); })},
            {time[1], footprint([&] { return baseline::ewise_add(ctx(), ga, gat); })}};
}

void write_measurement(bench::JsonWriter& w, const char* key, const Measurement& m) {
    w.begin_object(key);
    w.field("time", m.time);
    w.field("bytes", static_cast<std::uint64_t>(m.bytes));
    w.end_object();
}

void write_json(const std::vector<SquareRow>& squares, const std::vector<AddRow>& adds) {
    const char* path = std::getenv("SPBLA_BENCH_E1_JSON");
    if (path == nullptr) path = "BENCH_e1.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_boolean_vs_generic: cannot open %s for writing\n",
                     path);
        return;
    }
    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "boolean_vs_generic");
    w.field("policy", "parallel");
    w.field("threads",
            static_cast<std::uint64_t>(ctx().pool() ? ctx().pool()->size() : 1));
    w.field("runs", bench::kRuns);
    w.field("profile", prof::compiled_level_name());
    w.begin_array("spgemm");
    double min_time = 0.0, min_mem = 0.0;
    for (const auto& row : squares) {
        w.begin_object();
        w.field("name", row.w->name);
        w.field("nrows", static_cast<std::uint64_t>(row.w->matrix.nrows()));
        w.field("nnz", static_cast<std::uint64_t>(row.w->matrix.nnz()));
        write_measurement(w, "boolean", row.boolean);
        write_measurement(w, "generic_hash", row.generic_hash);
        write_measurement(w, "generic_esc", row.generic_esc);
        w.field("time_ratio", row.time_ratio());
        w.field("mem_ratio", row.mem_ratio());
        // Against the value-carrying twin alone: the Boolean specialisation's
        // own share of the edge (recorded, not gated).
        w.field("time_ratio_vs_hash",
                row.generic_hash.time.min_s / row.boolean.time.min_s);
        w.end_object();
        const bool first = &row == &squares.front();
        min_time = first ? row.time_ratio() : std::min(min_time, row.time_ratio());
        min_mem = first ? row.mem_ratio() : std::min(min_mem, row.mem_ratio());
    }
    w.end_array();
    w.field("min_time_ratio", min_time);
    w.field("min_mem_ratio", min_mem);
    w.begin_array("ewise_add");
    for (const auto& row : adds) {
        w.begin_object();
        w.field("name", row.w->name);
        w.field("nnz", static_cast<std::uint64_t>(row.w->matrix.nnz()));
        write_measurement(w, "boolean", row.boolean);
        write_measurement(w, "generic", row.generic);
        w.field("time_ratio", row.time_ratio());
        w.field("mem_ratio", row.mem_ratio());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    std::fclose(f);
    std::printf("\nE1 measurements written to %s\n", path);
}

}  // namespace

int main() {
    std::vector<Workload> workloads;
    workloads.push_back({"rmat-11-8", data::make_rmat(11, 8).csr()});
    workloads.push_back({"rmat-13-8", data::make_rmat(13, 8).csr()});
    workloads.push_back({"rmat-14-4", data::make_rmat(14, 4).csr()});
    workloads.push_back({"lubm-100", data::make_lubm(100).union_matrix().csr()});
    workloads.push_back(
        {"taxonomy-20k", data::make_taxonomy(20000, 2).union_matrix().csr()});
    workloads.push_back(
        {"geospecies-30k", data::make_geospecies(30000, 24).union_matrix().csr()});

    std::vector<SquareRow> squares;
    std::vector<AddRow> adds;

    std::printf("E1: Boolean-specialised vs generic kernels (paper: boolean up to "
                "5x faster, up to 4x less memory)\n\n");
    std::printf("-- SpGEMM: C = A * A (min ms over runs; ratios against the slower "
                "generic) -----------------\n");
    std::printf("%-16s %10s %10s | %9s %9s %9s %7s | %9s %9s %9s %7s\n", "matrix",
                "|V|", "nnz", "bool ms", "gnrc ms", "esc ms", "speedup", "bool MB",
                "gnrc MB", "esc MB", "mem x");
    for (const auto& w : workloads) {
        squares.push_back(measure_square(w));
        const auto& row = squares.back();
        std::printf(
            "%-16s %10u %10zu | %9.2f %9.2f %9.2f %6.2fx | %9.2f %9.2f %9.2f %6.2fx\n",
            w.name.c_str(), w.matrix.nrows(), w.matrix.nnz(), row.boolean.time.min_ms(),
            row.generic_hash.time.min_ms(), row.generic_esc.time.min_ms(), row.time_ratio(),
            row.boolean.bytes / 1e6, row.generic_hash.bytes / 1e6,
            row.generic_esc.bytes / 1e6, row.mem_ratio());
    }

    std::printf("\n-- EWiseAdd: C = A + A^T (min ms over runs) -------------------"
                "-------------\n");
    std::printf("%-16s %10s | %9s %9s %7s | %9s %9s %7s\n", "matrix", "nnz",
                "bool ms", "gnrc ms", "speedup", "bool MB", "gnrc MB", "mem x");
    for (const auto& w : workloads) {
        adds.push_back(measure_add(w));
        const auto& row = adds.back();
        std::printf("%-16s %10zu | %9.2f %9.2f %6.2fx | %9.2f %9.2f %6.2fx\n",
                    w.name.c_str(), w.matrix.nnz(), row.boolean.time.min_ms(),
                    row.generic.time.min_ms(), row.time_ratio(), row.boolean.bytes / 1e6,
                    row.generic.bytes / 1e6, row.mem_ratio());
    }
    std::printf("\nExpected shape (the paper claims *up to* 5x/4x, not uniform "
                "wins): the boolean kernel's advantage is largest on the "
                "product-heavy power-law matrices (many duplicate partial "
                "products collapse into the hash set) and smallest on very "
                "sparse inputs where every kernel is bandwidth-bound; the ESC "
                "comparator's memory blow-up grows with the raw product count "
                "(its expansion buffer).\n");

    write_json(squares, adds);
    return 0;
}
