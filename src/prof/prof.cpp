#include "prof/prof.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "util/thread_annotations.hpp"

namespace spbla::prof {
namespace {

// Dense site-id bound. Registrations past it fold into the final
// "(overflow)" slot so instrumentation can never fail; at ~40 spans in the
// whole library the headroom is generous.
constexpr std::size_t kMaxSpanSites = 128;

constexpr std::size_t kDefaultRingCapacity = 8192;

/// Span site 0 is the implicit "(root)" the summary tree hangs off.
constexpr SiteId kRootSpan = 0;

struct Event {
    std::uint64_t start_ns{0};
    std::uint64_t dur_ns{0};
    std::uint64_t iter{kNoIter};
    SiteId site{kNoSite};
};

struct Frame {
    SiteId site{kNoSite};
    std::uint64_t start_ns{0};
    std::uint64_t iter{kNoIter};
    bool borrowed{false};  ///< a WorkerScope frame: traced, not counted
};

/// Everything one thread writes: its frame stack (strictly thread-local),
/// its span statistics (atomics the exporter reads with relaxed loads), and
/// its trace-event ring (entries published via a release store on `head`).
struct ThreadLog {
    explicit ThreadLog(std::uint32_t id) : tid{id} {}

    std::uint32_t tid;
    std::vector<Frame> frames;
    std::array<std::atomic<std::uint64_t>, kMaxSpanSites> span_calls{};
    std::array<std::atomic<std::uint64_t>, kMaxSpanSites> span_ns{};

    std::vector<Event> ring;  // lazily sized on first traced span
    std::atomic<std::uint64_t> head{0};
};

class Registry {
public:
    Registry() {
        span_names_.reserve(kMaxSpanSites);
        span_names_.emplace_back("(root)");  // kRootSpan
        for (auto& p : span_parents_) p.store(kNoSite, std::memory_order_relaxed);
        runtime_level_.store(kCompiledLevel, std::memory_order_relaxed);
    }

    std::atomic<int> runtime_level_{0};
    std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};

    SiteId register_span(const char* name) SPBLA_EXCLUDES(mutex_) {
        util::LockGuard lock{mutex_};
        for (std::size_t i = 0; i < span_names_.size(); ++i) {
            if (span_names_[i] == name) return static_cast<SiteId>(i);
        }
        if (span_names_.size() + 1 >= kMaxSpanSites) {  // final slot: overflow
            if (span_names_.size() + 1 == kMaxSpanSites) {
                span_names_.emplace_back("(overflow)");
            }
            return static_cast<SiteId>(kMaxSpanSites - 1);
        }
        span_names_.emplace_back(name);
        return static_cast<SiteId>(span_names_.size() - 1);
    }

    /// Record the enclosing span the first time \p site is pushed; the tree
    /// in text_summary() hangs off these first-seen parents.
    void note_parent(SiteId site, SiteId parent) noexcept {
        if (site >= kMaxSpanSites) return;
        SiteId expected = kNoSite;
        span_parents_[site].compare_exchange_strong(
            expected, parent >= kMaxSpanSites ? kRootSpan : parent,
            std::memory_order_relaxed);
    }

    ThreadLog& local() {
        thread_local std::shared_ptr<ThreadLog> log = [this] {
            auto created = std::make_shared<ThreadLog>(telemetry::thread_id());
            util::LockGuard lock{mutex_};
            logs_.push_back(created);
            return created;
        }();
        return *log;
    }

    // --- export (locks out registration, not recording) --------------------

    std::vector<std::shared_ptr<ThreadLog>> logs_snapshot() SPBLA_EXCLUDES(mutex_) {
        util::LockGuard lock{mutex_};
        return logs_;
    }

    std::vector<std::string> span_names() SPBLA_EXCLUDES(mutex_) {
        util::LockGuard lock{mutex_};
        return span_names_;
    }

    SiteId find_span(std::string_view name) SPBLA_EXCLUDES(mutex_) {
        util::LockGuard lock{mutex_};
        for (std::size_t i = 0; i < span_names_.size(); ++i) {
            if (span_names_[i] == name) return static_cast<SiteId>(i);
        }
        return kNoSite;
    }

    SiteId span_parent(SiteId id) const noexcept {
        if (id >= kMaxSpanSites) return kRootSpan;
        return span_parents_[id].load(std::memory_order_relaxed);
    }

private:
    util::Mutex mutex_;
    std::vector<std::string> span_names_ SPBLA_GUARDED_BY(mutex_);
    std::array<std::atomic<SiteId>, kMaxSpanSites> span_parents_{};
    std::vector<std::shared_ptr<ThreadLog>> logs_ SPBLA_GUARDED_BY(mutex_);
};

std::string g_env_trace_path;  // set once before threads exist

void env_dump_at_exit() {
    if (!g_env_trace_path.empty()) {
        if (write_chrome_trace(g_env_trace_path)) {
            std::fprintf(stderr, "spbla: profile trace written to %s\n",
                         g_env_trace_path.c_str());
        } else {
            std::fprintf(stderr, "spbla: cannot write profile trace to %s\n",
                         g_env_trace_path.c_str());
        }
    }
}

/// SPBLA_TRACE=<path> raises the runtime level to trace and dumps the Chrome
/// trace at process exit (only effective when instrumentation is compiled
/// in, i.e. SPBLA_PROFILE != off — at off the macro sites are gone and the
/// trace would be empty, so the hook stays unarmed).
void arm_env_hook(Registry& reg) {
    if (kCompiledLevel < SPBLA_PROFILE_COUNTERS) return;
    const char* path = std::getenv("SPBLA_TRACE");
    if (path == nullptr || path[0] == '\0') return;
    g_env_trace_path = path;
    reg.runtime_level_.store(SPBLA_PROFILE_TRACE, std::memory_order_relaxed);
    std::atexit(env_dump_at_exit);
}

Registry& registry() {
    // Leaked intentionally: the dump-at-exit hook and late-exiting pool
    // threads may touch the registry after static destruction begins.
    static Registry* instance = new Registry;  // lint:allow(raw-new-delete)
    static const bool armed = (arm_env_hook(*instance), true);
    static_cast<void>(armed);
    return *instance;
}

void push_frame(SiteId site, std::uint64_t iter, bool borrowed) {
    Registry& reg = registry();
    ThreadLog& log = reg.local();
    if (!borrowed) {
        reg.note_parent(site,
                        log.frames.empty() ? kRootSpan : log.frames.back().site);
    }
    log.frames.push_back({site, telemetry::now_ns(), iter, borrowed});
}

void append_event(ThreadLog& log, const Frame& frame, std::uint64_t end_ns) {
    // Capacity is applied when a thread's ring is first created; changing it
    // later leaves existing rings alone (resizing would tear head arithmetic).
    if (log.ring.empty()) {
        log.ring.resize(registry().ring_capacity_.load(std::memory_order_relaxed));
    }
    const std::uint64_t h = log.head.load(std::memory_order_relaxed);
    log.ring[h % log.ring.size()] = {frame.start_ns, end_ns - frame.start_ns,
                                     frame.iter, frame.site};
    log.head.store(h + 1, std::memory_order_release);
}

void pop_frame() {
    ThreadLog& log = registry().local();
    const Frame frame = log.frames.back();
    log.frames.pop_back();
    const std::uint64_t end = telemetry::now_ns();
    if (!frame.borrowed) {
        if (frame.site < kMaxSpanSites) {
            log.span_calls[frame.site].fetch_add(1, std::memory_order_relaxed);
            log.span_ns[frame.site].fetch_add(end - frame.start_ns,
                                              std::memory_order_relaxed);
        }
        // Closed spans also feed the always-on telemetry registry, so a
        // metrics scrape of an instrumented build shows profiling pressure
        // (zero when profiling is off or compiled out).
        telemetry::count(telemetry::Counter::ProfSpans);
        telemetry::observe(telemetry::Histogram::ProfSpanNs, end - frame.start_ns);
    }
    if (tracing()) append_event(log, frame, end);
}

void append_ts(std::string& out, std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    out += buf;
}

}  // namespace

int runtime_level() noexcept {
    return registry().runtime_level_.load(std::memory_order_relaxed);
}

void set_runtime_level(int level) noexcept {
    if (level < SPBLA_PROFILE_OFF) level = SPBLA_PROFILE_OFF;
    if (level > SPBLA_PROFILE_TRACE) level = SPBLA_PROFILE_TRACE;
    registry().runtime_level_.store(level, std::memory_order_relaxed);
}

bool counting() noexcept { return runtime_level() >= SPBLA_PROFILE_COUNTERS; }
bool tracing() noexcept { return runtime_level() >= SPBLA_PROFILE_TRACE; }

SiteId register_span(const char* name) { return registry().register_span(name); }

SiteId current_span_site() noexcept {
    const ThreadLog& log = registry().local();
    return log.frames.empty() ? kNoSite : log.frames.back().site;
}

SpanScope::SpanScope(SiteId site, std::uint64_t iter) noexcept
    : active_{counting() && site != kNoSite} {
    if (active_) push_frame(site, iter, /*borrowed=*/false);
}

SpanScope::~SpanScope() {
    if (active_) pop_frame();
}

WorkerScope::WorkerScope(SiteId site, std::uint32_t launcher_tid) noexcept
    : active_{counting() && site != kNoSite && telemetry::thread_id() != launcher_tid} {
    if (active_) push_frame(site, kNoIter, /*borrowed=*/true);
}

WorkerScope::~WorkerScope() {
    if (active_) pop_frame();
}

std::vector<SnapshotEvent> snapshot_events() {
    Registry& reg = registry();
    const auto logs = reg.logs_snapshot();
    const auto span_names = reg.span_names();
    std::vector<SnapshotEvent> out;
    for (const auto& log : logs) {
        const std::uint64_t head = log->head.load(std::memory_order_acquire);
        if (log->ring.empty()) continue;
        const std::uint64_t cap = log->ring.size();
        for (std::uint64_t i = head > cap ? head - cap : 0; i < head; ++i) {
            const Event& e = log->ring[i % cap];
            out.push_back({e.site < span_names.size() ? span_names[e.site] : "(unknown)",
                           log->tid, e.start_ns, e.dur_ns, e.iter});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SnapshotEvent& a, const SnapshotEvent& b) {
                  return a.start_ns < b.start_ns;
              });
    return out;
}

std::uint64_t span_calls(std::string_view span) {
    Registry& reg = registry();
    const SiteId s = reg.find_span(span);
    if (s == kNoSite || s >= kMaxSpanSites) return 0;
    std::uint64_t total = 0;
    for (const auto& log : reg.logs_snapshot()) {
        total += log->span_calls[s].load(std::memory_order_relaxed);
    }
    return total;
}

std::string chrome_trace_json() {
    const auto events = snapshot_events();
    const auto logs = registry().logs_snapshot();
    std::string metrics = telemetry::to_json(telemetry::snapshot());
    while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();

    std::string out;
    out.reserve(events.size() * 120 + metrics.size() + 512);
    out += "{\n  \"displayTimeUnit\": \"ms\",\n";
    out += "  \"otherData\": {\"spbla_profile_compiled\": \"";
    out += compiled_level_name();
    out += "\", \"spbla_runtime_level\": ";
    out += std::to_string(runtime_level());
    out += ", \"threads\": ";
    out += std::to_string(logs.size());
    out += "},\n  \"spbla_metrics\": ";
    out += metrics;
    out += ",\n  \"traceEvents\": [\n";
    bool first = true;
    for (const auto& log : logs) {
        if (!first) out += ",\n";
        first = false;
        out += "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": ";
        out += std::to_string(log->tid);
        out += ", \"args\": {\"name\": \"spbla-thread-";
        out += std::to_string(log->tid);
        out += "\"}}";
    }
    for (const auto& e : events) {
        if (!first) out += ",\n";
        first = false;
        out += "    {\"name\": \"";
        out += telemetry::json_escape(e.name);
        out += "\", \"ph\": \"X\", \"ts\": ";
        append_ts(out, e.start_ns);
        out += ", \"dur\": ";
        append_ts(out, e.dur_ns);
        out += ", \"pid\": 1, \"tid\": ";
        out += std::to_string(e.tid);
        if (e.iter != kNoIter) {
            out += ", \"args\": {\"iter\": ";
            out += std::to_string(e.iter);
            out += "}";
        }
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

bool write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_trace_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

std::string text_summary() {
    Registry& reg = registry();
    const auto logs = reg.logs_snapshot();
    const auto span_names = reg.span_names();

    struct Agg {
        std::uint64_t calls{0};
        std::uint64_t ns{0};
    };
    std::vector<Agg> agg(span_names.size());
    for (const auto& log : logs) {
        for (std::size_t s = 0; s < span_names.size() && s < kMaxSpanSites; ++s) {
            agg[s].calls += log->span_calls[s].load(std::memory_order_relaxed);
            agg[s].ns += log->span_ns[s].load(std::memory_order_relaxed);
        }
    }

    std::vector<std::vector<SiteId>> children(span_names.size());
    for (std::size_t s = 1; s < span_names.size() && s < kMaxSpanSites; ++s) {
        if (agg[s].calls == 0) continue;
        SiteId parent = reg.span_parent(static_cast<SiteId>(s));
        if (parent == kNoSite || parent >= span_names.size()) parent = kRootSpan;
        children[parent].push_back(static_cast<SiteId>(s));
    }

    std::string out = "spbla prof summary (compiled=";
    out += compiled_level_name();
    out += ", runtime=";
    out += std::to_string(runtime_level());
    out += ")\n";
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-44s %10s %12s %8s\n", "span", "calls",
                  "total ms", "% parent");
    out += buf;

    // Depth-first over the first-seen parent tree.
    struct Item {
        SiteId site;
        int depth;
    };
    std::vector<Item> stack;
    for (auto it = children[kRootSpan].rbegin(); it != children[kRootSpan].rend();
         ++it) {
        stack.push_back({*it, 0});
    }
    std::uint64_t root_total = 0;
    for (const auto s : children[kRootSpan]) root_total += agg[s].ns;
    while (!stack.empty()) {
        const auto [site, depth] = stack.back();
        stack.pop_back();
        const SiteId parent = reg.span_parent(site);
        const std::uint64_t parent_ns =
            (parent == kRootSpan || parent >= span_names.size())
                ? root_total
                : agg[parent].ns;
        const double pct =
            parent_ns > 0
                ? 100.0 * static_cast<double>(agg[site].ns) /
                      static_cast<double>(parent_ns)
                : 100.0;
        std::string label(static_cast<std::size_t>(depth) * 2, ' ');
        label += span_names[site];
        std::snprintf(buf, sizeof buf, "%-44s %10llu %12.3f %7.1f%%\n",
                      label.c_str(),
                      static_cast<unsigned long long>(agg[site].calls),
                      static_cast<double>(agg[site].ns) / 1e6, pct);
        out += buf;
        for (auto it = children[site].rbegin(); it != children[site].rend();
             ++it) {
            stack.push_back({*it, depth + 1});
        }
    }
    return out;
}

void set_ring_capacity(std::size_t events) noexcept {
    if (events == 0) events = 1;
    registry().ring_capacity_.store(events, std::memory_order_relaxed);
}

}  // namespace spbla::prof
