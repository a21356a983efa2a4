/// \file flight_recorder.hpp
/// \brief Always-on crash flight recorder: the last N dispatched ops.
///
/// A production abort — an SPBLA_ASSERT invariant failure, a segfault in a
/// kernel, an unhandled exception reaching std::terminate — today leaves
/// nothing but the signal name. This ring keeps the most recent dispatcher
/// op records (op, dims, nnz in/out, routed format, epoch, thread, duration)
/// in fixed preallocated storage, and the installed signal/terminate
/// handlers dump it as JSON lines using only async-signal-safe calls
/// (write(2)/open(2), hand-rolled integer formatting): stderr always, plus
/// the file armed by set_crash_dump_path (the SPBLA_METRICS env hook arms
/// <path>.flight).
///
/// Recording is lock-free: a global head ticket is claimed with fetch_add,
/// the slot's fields are written, then the slot's sequence number is
/// release-stored as the publication marker. A crash mid-write leaves that
/// slot's marker stale and the dumper skips it — the post-mortem trail is
/// best-effort by design, never a hang or a second fault.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spbla::telemetry::flight {

/// Ring capacity (records). Fixed so the crash path never allocates.
inline constexpr std::size_t kCapacity = 256;

/// One dispatched-op record. Plain data only: the crash dumper reads these
/// from a signal handler.
struct Record {
    std::uint64_t seq{0};         ///< 1-based publication id; 0 = empty slot
    char op[16]{};                ///< dispatcher op name, truncated
    char format[12]{};            ///< routed format (always "csr")
    std::uint32_t nrows{0};       ///< result rows
    std::uint32_t ncols{0};       ///< result cols
    std::uint64_t nnz_in{0};      ///< combined operand nnz
    std::uint64_t nnz_out{0};     ///< result nnz
    std::uint64_t epoch_ns{0};    ///< telemetry::now_ns() at completion
    std::uint32_t thread{0};      ///< telemetry::thread_id() of the recorder
    std::uint64_t duration_ns{0}; ///< op wall time
};

/// Append a record (lock-free, wait-free modulo the CAS-free ring claim).
void record(const char* op, const char* format, std::uint32_t nrows,
            std::uint32_t ncols, std::uint64_t nnz_in, std::uint64_t nnz_out,
            std::uint64_t duration_ns) noexcept;

/// Records currently in the ring, oldest first (normal-context readers:
/// tests, exporters — not the crash path).
[[nodiscard]] std::vector<Record> snapshot_records();

/// Total records ever published (ring head).
[[nodiscard]] std::uint64_t total_recorded() noexcept;

/// Write the ring to \p fd as JSON lines, oldest first. Async-signal-safe.
void dump(int fd) noexcept;

/// Also dump to this file on crash (captured into fixed storage now, so the
/// handler needs no allocation). Empty path disarms the file dump.
void set_crash_dump_path(const std::string& path);

/// Install the SIGABRT/SIGSEGV/SIGBUS/SIGFPE/SIGILL and std::terminate
/// handlers (idempotent). Handlers dump to stderr and the armed file, then
/// restore the default action and re-raise, so exit semantics are unchanged.
void install_crash_handlers() noexcept;

/// The handlers' dump body: marker line + ring to stderr and the armed file.
/// First call wins (later callers — e.g. the SIGABRT raised by the abort
/// that follows a contract_violation dump — are no-ops). Safe from signal
/// context. Exposed so util::contract_violation can dump before aborting
/// even if no handler install ever ran.
void dump_on_crash(const char* reason) noexcept;

}  // namespace spbla::telemetry::flight
