// Fixture: instrument names spelled as string literals outside
// telemetry/metric_names.hpp — the registry schema is the enums there.
#include <string>
bool is_dispatch_counter(const std::string& name) {
    return name == "spbla.dispatch.ops";
}
const char* kLatencyKey = "spbla.op.latency_ns.csr";
const char* kMemoKey = "spbla.incr.memo_hits";
const char* kProbeKey = "spbla.spgemm.hash_probes";
