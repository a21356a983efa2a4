#include "backend/context.hpp"

#include <cstdio>

#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::backend {

Context::Context(Policy policy, std::size_t num_threads)
    : policy_{policy} {
    if (policy_ == Policy::Parallel) {
        pool_ = std::make_unique<util::ThreadPool>(num_threads);
    }
}

Context::~Context() {
#if SPBLA_CHECKS_LEVEL >= SPBLA_CHECKS_CHEAP
    if (!tracker_.balanced()) {
        std::fprintf(stderr, "spbla: context destroyed with leaked device memory: %s\n",
                     tracker_.leak_report().c_str());
    }
#endif
}

std::string Context::profile_summary() { return prof::text_summary(); }

telemetry::Snapshot Context::metrics_snapshot() { return telemetry::snapshot(); }

Context& default_context() {
    static Context ctx{Policy::Parallel};
    return ctx;
}

}  // namespace spbla::backend
