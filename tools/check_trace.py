#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by spbla::prof.

Every counter check reads the telemetry snapshot the trace embeds under
"spbla_metrics" (schema spbla.metrics.v1), by the dotted names of
src/telemetry/metric_names.hpp — the names spbla_MetricsDump writes. The
counters are whole-run totals; span events carry only timing.

Checks, in order:

  structure   The file parses as JSON and has the sections the exporter
              promises: "traceEvents" (list) plus the spbla-specific
              "spbla_metrics" snapshot and "otherData" metadata (which
              chrome://tracing / Perfetto simply ignore).
  events      Every trace event is well-formed: metadata ("M") events name a
              thread, duration ("X") events carry numeric ts/dur/pid/tid and
              a non-empty name. The exporter only emits self-contained "X"
              events, so no begin/end ("B"/"E") pairing can dangle.
  balance     Per thread, span windows [ts, ts+dur] properly nest: any two
              either contain one another or are disjoint. A partial overlap
              means a corrupted ring entry or a broken scope stack.
  counters    The embedded snapshot carries the schema tag and a "counters"
              object of non-negative integers.
  spgemm      (--require-spgemm) The trace demonstrably covers the SpGEMM
              pipeline: "spgemm.multiply" spans exist; rows were binned
              (spbla.spgemm.rows_total) and the bin classes partition them
              (empty + tiny + hash_small + hash_large + dense == total);
              hash probes were counted and probes >= collisions; and, when
              the trace involves more than one thread (on a single-core host
              the kernels legitimately fall back to serial execution), the
              pool recorded work (spbla.pool.tasks or bulk_launches).
  dispatch    (--require-dispatch) The trace demonstrably covers the
              storage-dispatch layer (src/storage): at least one
              spbla.dispatch.csr pick was recorded — none means dispatch
              ran untraced or its counters are unwired.
  incr        (--require-incr) The trace demonstrably covers the incremental
              evaluation layer (src/incr): incr.* spans were recorded
              including at least one semi-naive round span, rounds carried
              frontier work
              (spbla.incr.frontier_nnz), batches flowed through
              (spbla.incr.batches, with iterations_saved <= baseline_rounds
              and round spans left behind when a batch used rounds), the
              batches carried cells (spbla.incr.delta_nnz), and the
              dispatcher's empty-operand short-circuit fired
              (spbla.incr.shortcircuit_ops).

  metrics     (--require-metrics, with --metrics PATH) A telemetry snapshot
              dumped by SPBLA_METRICS / spbla_MetricsDump validates: the
              schema tag is spbla.metrics.v1, counters are non-negative
              integers, each histogram's bucket counts sum to its count and
              its p50/p95/p99 are monotone, the per-route op-latency
              histogram counts sum exactly to spbla.dispatch.ops, each
              per-format dispatch counter covers its route's histogram
              count, and the memory peak gauge dominates the live gauge.
              The Prometheus sibling at PATH.prom (when present) must parse
              line-by-line with cumulative buckets and _count == +Inf.
  flight      (--flight PATH) A crash flight-recorder dump parses as JSON
              lines with strictly increasing seq, named ops and sane fields.

Usage: tools/check_trace.py TRACE.json [--require-spgemm]
           [--require-dispatch]
           [--require-incr] [--require-metrics --metrics METRICS.json]
           [--flight FLIGHT.jsonl]
Exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

# ts/dur are microseconds with three decimals (nanosecond resolution), so
# anything below half a nanosecond is formatting noise, not overlap.
EPS_US = 0.0005


class Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def error(self, msg: str) -> None:
        self.errors.append(msg)

    # --- checks ---------------------------------------------------------

    def check_structure(self, doc: object) -> dict | None:
        if not isinstance(doc, dict):
            self.error("top level is not a JSON object")
            return None
        for key, kind in (("traceEvents", list), ("spbla_metrics", dict),
                          ("otherData", dict)):
            if key not in doc:
                self.error(f"missing top-level key {key!r}")
            elif not isinstance(doc[key], kind):
                self.error(f"top-level {key!r} is not a {kind.__name__}")
        return doc if not self.errors else None

    def check_events(self, events: list) -> list[dict]:
        spans = []
        for i, e in enumerate(events):
            where = f"traceEvents[{i}]"
            if not isinstance(e, dict):
                self.error(f"{where}: not an object")
                continue
            ph = e.get("ph")
            if ph == "M":
                if e.get("name") != "thread_name":
                    self.error(f"{where}: metadata event is not a thread_name")
                if not isinstance(e.get("args", {}).get("name"), str):
                    self.error(f"{where}: thread_name without args.name")
                continue
            if ph != "X":
                self.error(f"{where}: unexpected phase {ph!r} "
                           "(exporter emits only X and M)")
                continue
            if not isinstance(e.get("name"), str) or not e["name"]:
                self.error(f"{where}: X event without a name")
            for field in ("ts", "dur", "pid", "tid"):
                if not isinstance(e.get(field), (int, float)):
                    self.error(f"{where}: X event missing numeric {field!r}")
            if isinstance(e.get("dur"), (int, float)) and e["dur"] < 0:
                self.error(f"{where}: negative duration")
            if isinstance(e.get("ts"), (int, float)) and e["ts"] < -EPS_US:
                self.error(f"{where}: negative timestamp")
            spans.append(e)
        return spans

    def check_balance(self, spans: list[dict]) -> None:
        by_tid: dict[object, list[dict]] = defaultdict(list)
        for e in spans:
            if isinstance(e.get("ts"), (int, float)) and isinstance(
                    e.get("dur"), (int, float)):
                by_tid[e.get("tid")].append(e)
        for tid, tid_spans in by_tid.items():
            # Sweep in start order, outermost (longest) first on ties, with a
            # stack of open end times: an event beginning inside an open span
            # must also end inside it.
            tid_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack: list[float] = []
            for e in tid_spans:
                start, end = e["ts"], e["ts"] + e["dur"]
                while stack and stack[-1] <= start + EPS_US:
                    stack.pop()
                if stack and end > stack[-1] + EPS_US:
                    self.error(
                        f"tid {tid}: span {e['name']!r} [{start:.3f}, "
                        f"{end:.3f}] partially overlaps an enclosing span "
                        f"ending at {stack[-1]:.3f} — spans must nest")
                stack.append(end)

    def check_counters(self, doc: dict, where: str) -> dict[str, int]:
        """Schema tag and counters of a telemetry snapshot document."""
        if doc.get("schema") != "spbla.metrics.v1":
            self.error(f"{where}: schema is {doc.get('schema')!r}, "
                       "expected 'spbla.metrics.v1'")
        counters = doc.get("counters")
        if not isinstance(counters, dict):
            self.error(f"{where}: missing 'counters' object")
            return {}
        table: dict[str, int] = {}
        for name, value in counters.items():
            if not isinstance(value, int) or value < 0:
                self.error(f"{where}: counter {name} is not a "
                           f"non-negative integer: {value!r}")
                continue
            table[name] = value
        return table

    def check_spgemm(self, spans: list[dict], counters: dict[str, int]) -> None:
        if not any(e.get("name") == "spgemm.multiply" for e in spans):
            self.error("no 'spgemm.multiply' span recorded")
        total = counters.get("spbla.spgemm.rows_total", 0)
        if total == 0:
            self.error("spbla.spgemm.rows_total is zero — no SpGEMM row was "
                       "binned (or the bin tally is unwired)")
        bins = ["empty", "tiny", "hash_small", "hash_large", "dense"]
        got = sum(counters.get(f"spbla.spgemm.rows_{b}", 0) for b in bins)
        if got != total:
            self.error(f"bin classes sum to {got}, expected "
                       f"spbla.spgemm.rows_total = {total} (bins must "
                       "partition the rows)")

        probes = counters.get("spbla.spgemm.hash_probes", 0)
        collisions = counters.get("spbla.spgemm.hash_collisions", 0)
        if probes == 0:
            self.error("spbla.spgemm.hash_probes is zero — the hash kernel "
                       "never ran or its counters are unwired")
        if collisions > probes:
            self.error(f"spbla.spgemm.hash_collisions ({collisions}) exceeds "
                       f"spbla.spgemm.hash_probes ({probes}) — every "
                       "collision is a probe")

        # On a single-core host every launch takes the serial fallback, so
        # only a genuinely multi-threaded trace must show pool bookkeeping.
        tids = {e.get("tid") for e in spans}
        if len(tids) > 1:
            pool_work = (counters.get("spbla.pool.tasks", 0)
                         + counters.get("spbla.pool.bulk_launches", 0))
            if pool_work == 0:
                self.error("multi-threaded trace but spbla.pool.tasks and "
                           "spbla.pool.bulk_launches are zero — the "
                           "thread-pool counters are unwired")

    def check_dispatch(self, counters: dict[str, int]) -> None:
        if counters.get("spbla.dispatch.csr", 0) == 0:
            self.error("no spbla.dispatch.csr picks recorded — the storage "
                       "dispatch layer never ran or its counters are unwired")

    def check_incr(self, spans: list[dict], counters: dict[str, int]) -> None:
        def total(name: str) -> int:
            return counters.get(f"spbla.incr.{name}", 0)

        names = [str(e.get("name", "")) for e in spans]
        if not any(n.startswith("incr.") for n in names):
            self.error("no incr.* operation span recorded — the incremental "
                       "layer never ran under tracing")
        rounds = sum(1 for n in names
                     if n in ("incr.closure.round", "incr.cfpq.round"))
        if rounds == 0:
            self.error("no incr.closure.round / incr.cfpq.round span "
                       "recorded — no semi-naive round ever executed")

        if total("frontier_nnz") == 0:
            self.error("spbla.incr.frontier_nnz is zero — semi-naive rounds "
                       "ran without frontier work (or the counter is unwired)")

        batches = total("batches")
        baseline = total("baseline_rounds")
        saved = total("iterations_saved")
        if batches == 0:
            self.error("spbla.incr.batches is zero — no delta batch was "
                       "applied (or the counter is unwired)")
        if saved > baseline:
            self.error(f"spbla.incr.iterations_saved ({saved}) exceeds "
                       f"baseline_rounds ({baseline}) — a batch cannot save "
                       "more rounds than the from-scratch baseline")
        if batches > 0 and saved < baseline and rounds == 0:
            self.error(f"spbla.incr.baseline_rounds ({baseline}) exceeds "
                       f"iterations_saved ({saved}) yet no round span was "
                       "recorded — the rounds that were used left no trace")

        if total("delta_nnz") == 0:
            self.error("spbla.incr.delta_nnz is zero — no batch ever carried "
                       "a cell (or the counter is unwired)")
        if total("shortcircuit_ops") == 0:
            self.error("spbla.incr.shortcircuit_ops is zero — the "
                       "dispatcher's empty-operand short-circuit never fired "
                       "(or the counter is unwired)")

    # --- telemetry metrics snapshot --------------------------------------

    LATENCY_HISTOGRAMS = {
        "spbla.op.latency_ns.csr": "spbla.dispatch.csr",
        "spbla.op.latency_ns.coo": "spbla.dispatch.coo",
        "spbla.op.latency_ns.dense": "spbla.dispatch.dense",
        "spbla.op.latency_ns.bitblock": "spbla.dispatch.bitblock",
    }

    def check_metrics(self, path: Path) -> None:
        where = path.name
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            self.error(f"{where}: cannot load metrics JSON: {exc}")
            return
        counters = self.check_counters(doc, where)
        gauges = doc.get("gauges")
        histograms = doc.get("histograms")
        for key, section in (("gauges", gauges), ("histograms", histograms)):
            if not isinstance(section, dict):
                self.error(f"{where}: missing '{key}' object")
                return

        for name, value in gauges.items():
            if not isinstance(value, int):
                self.error(f"{where}: gauge {name} is not an integer: {value!r}")

        for name, hist in histograms.items():
            if not isinstance(hist, dict):
                self.error(f"{where}: histogram {name} is not an object")
                continue
            count = hist.get("count", 0)
            buckets = hist.get("buckets", [])
            if sum(buckets) != count:
                self.error(f"{where}: histogram {name} buckets sum to "
                           f"{sum(buckets)}, count says {count}")
            p50, p95, p99 = (hist.get(k, 0) for k in ("p50", "p95", "p99"))
            if not p50 <= p95 <= p99:
                self.error(f"{where}: histogram {name} quantiles not "
                           f"monotone: p50={p50} p95={p95} p99={p99}")
            if count > 0 and hist.get("sum", 0) < hist.get("max", 0):
                self.error(f"{where}: histogram {name} sum < max")

        # Every completed dispatcher op lands in exactly one route histogram.
        ops = counters.get("spbla.dispatch.ops", 0)
        routed = sum(histograms.get(h, {}).get("count", 0)
                     for h in self.LATENCY_HISTOGRAMS)
        if routed != ops:
            self.error(f"{where}: op-latency histogram counts sum to {routed} "
                       f"but spbla.dispatch.ops = {ops} — every dispatched op "
                       "must land in exactly one route histogram")
        # The pick counter increments before the kernel, the histogram after
        # it, so the counter dominates (ops that threw are picked, not timed).
        for hist_name, counter_name in self.LATENCY_HISTOGRAMS.items():
            picked = counters.get(counter_name, 0)
            timed = histograms.get(hist_name, {}).get("count", 0)
            if picked < timed:
                self.error(f"{where}: {counter_name} = {picked} < {hist_name} "
                           f"count = {timed} — picks happen before timings")
        nnz_in = histograms.get("spbla.op.nnz_in", {}).get("count", 0)
        if nnz_in != ops:
            self.error(f"{where}: spbla.op.nnz_in count = {nnz_in} != "
                       f"spbla.dispatch.ops = {ops}")

        live = gauges.get("spbla.mem.live_bytes", 0)
        peak = gauges.get("spbla.mem.peak_bytes", 0)
        if live < 0:
            self.error(f"{where}: spbla.mem.live_bytes is negative ({live})")
        if peak < live:
            self.error(f"{where}: spbla.mem.peak_bytes ({peak}) < "
                       f"live_bytes ({live})")
        allocs = counters.get("spbla.mem.allocs", 0)
        frees = counters.get("spbla.mem.frees", 0)
        if frees > allocs:
            self.error(f"{where}: spbla.mem.frees ({frees}) > allocs "
                       f"({allocs})")

        prom = path.with_name(path.name + ".prom")
        if prom.is_file():
            self.check_prometheus(prom)
        else:
            print(f"check_trace: note: no Prometheus sibling at {prom}")

    def check_prometheus(self, path: Path) -> None:
        where = path.name
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            self.error(f"{where}: cannot read: {exc}")
            return
        typed: dict[str, str] = {}
        buckets: dict[str, list[tuple[str, int]]] = defaultdict(list)
        samples: dict[str, int] = {}
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "TYPE" or parts[3] not in (
                        "counter", "gauge", "histogram"):
                    self.error(f"{where}:{i + 1}: malformed TYPE line: {line!r}")
                else:
                    typed[parts[2]] = parts[3]
                continue
            parts = line.rsplit(" ", 1)
            if len(parts) != 2:
                self.error(f"{where}:{i + 1}: malformed sample line: {line!r}")
                continue
            name, value = parts
            try:
                num = int(value)
            except ValueError:
                self.error(f"{where}:{i + 1}: non-integer value: {line!r}")
                continue
            if "_bucket{le=" in name:
                base = name.split("_bucket{le=", 1)[0]
                le = name.split('le="', 1)[1].rstrip('"}')
                buckets[base].append((le, num))
            else:
                samples[name] = num
        if not typed:
            self.error(f"{where}: no # TYPE lines — not Prometheus exposition")
        for base, series in buckets.items():
            values = [v for (_le, v) in series]
            if values != sorted(values):
                self.error(f"{where}: histogram {base} buckets are not "
                           "cumulative")
            if series and series[-1][0] != "+Inf":
                self.error(f"{where}: histogram {base} is missing the "
                           "+Inf bucket")
            count = samples.get(base + "_count")
            if series and count is not None and series[-1][1] != count:
                self.error(f"{where}: histogram {base} +Inf bucket "
                           f"({series[-1][1]}) != _count ({count})")
        for name, kind in typed.items():
            if kind in ("counter", "gauge") and name not in samples:
                self.error(f"{where}: TYPE {name} declared but no sample")

    def check_flight(self, path: Path) -> None:
        where = path.name
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            self.error(f"{where}: cannot read: {exc}")
            return
        records = []
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                self.error(f"{where}:{i + 1}: not a JSON record: {exc}")
                continue
            records.append((i + 1, rec))
        if not records:
            self.error(f"{where}: flight dump holds no records")
            return
        prev_seq = 0
        for lineno, rec in records:
            seq = rec.get("seq")
            if not isinstance(seq, int) or seq <= prev_seq:
                self.error(f"{where}:{lineno}: seq {seq!r} does not increase "
                           f"(previous {prev_seq})")
            else:
                prev_seq = seq
            if not rec.get("op"):
                self.error(f"{where}:{lineno}: record without an op name")
            for field in ("rows", "cols", "nnz_in", "nnz_out", "epoch_ns",
                          "thread", "duration_ns"):
                if not isinstance(rec.get(field), int) or rec[field] < 0:
                    self.error(f"{where}:{lineno}: field {field!r} is not a "
                               "non-negative integer")
        print(f"check_trace: {path}: {len(records)} flight record(s)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", type=Path, help="Chrome trace-event JSON to check")
    ap.add_argument("--require-spgemm", action="store_true",
                    help="additionally require the SpGEMM pipeline counters "
                         "(bin classes, hash probes, pool work)")
    ap.add_argument("--require-dispatch", action="store_true",
                    help="additionally require the storage-dispatch pick "
                         "counter")
    ap.add_argument("--require-incr", action="store_true",
                    help="additionally require the incremental-evaluation "
                         "counters (round spans, frontier and delta nnz, "
                         "batch accounting, short-circuits)")
    ap.add_argument("--require-metrics", action="store_true",
                    help="additionally validate a telemetry snapshot "
                         "(needs --metrics)")
    ap.add_argument("--metrics", type=Path, default=None,
                    help="telemetry JSON dumped by SPBLA_METRICS or "
                         "spbla_MetricsDump; the Prometheus sibling at "
                         "PATH.prom is checked too when present")
    ap.add_argument("--flight", type=Path, default=None,
                    help="flight-recorder crash dump (JSON lines) to validate")
    args = ap.parse_args()

    if args.require_metrics and args.metrics is None:
        ap.error("--require-metrics needs --metrics PATH")

    try:
        doc = json.loads(args.trace.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_trace: {args.trace}: {exc}", file=sys.stderr)
        return 1

    checker = Checker()
    top = checker.check_structure(doc)
    if top is not None:
        spans = checker.check_events(top["traceEvents"])
        checker.check_balance(spans)
        counters = checker.check_counters(top["spbla_metrics"], "spbla_metrics")
        if args.require_spgemm:
            checker.check_spgemm(spans, counters)
        if args.require_dispatch:
            checker.check_dispatch(counters)
        if args.require_incr:
            checker.check_incr(spans, counters)
        n_spans, n_counters = len(spans), len(counters)
    else:
        n_spans = n_counters = 0

    if args.require_metrics:
        checker.check_metrics(args.metrics)
    if args.flight is not None:
        checker.check_flight(args.flight)

    for err in checker.errors:
        print(f"check_trace: {args.trace}: {err}", file=sys.stderr)
    status = "FAILED" if checker.errors else "ok"
    print(f"check_trace: {args.trace}: {n_spans} span event(s), "
          f"{n_counters} counter(s), {len(checker.errors)} error(s) — "
          f"{status}")
    return 1 if checker.errors else 0


if __name__ == "__main__":
    sys.exit(main())
