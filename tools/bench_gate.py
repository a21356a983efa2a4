#!/usr/bin/env python3
"""Perf-regression gate: compare fresh BENCH_*.json headline geomeans
against the committed baselines in bench/baselines/.

The gate deliberately compares only machine-independent ratio keys (parallel
speedups, tier-vs-tier geomeans), never absolute milliseconds: a CI runner
and a developer laptop disagree hugely on wall time but agree, to within the
tolerance, on how many times faster the parallel SpGEMM is than the
sequential one. Each gated key carries a direction — `higher` keys (speedups)
must not drop below baseline * (1 - tolerance); `lower` keys (time ratios)
must not rise above baseline * (1 + tolerance).

Usage:
    python3 tools/bench_gate.py --fresh build-profile [--baseline bench/baselines]
                                [--tolerance 0.10] [--list]

Exit status 0 when every gated key of every baseline file that has a fresh
counterpart is within tolerance; 1 otherwise. A baseline file with no fresh
counterpart is skipped with a note (the smoke CI run does not refresh every
ladder); a *gated key* missing from a fresh counterpart is a failure, since
that means the bench silently stopped reporting it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# file name -> {key: direction}. Directions: "higher" = bigger is better
# (speedup-style), "lower" = smaller is better (time-ratio-style).
GATED_KEYS = {
    "BENCH_spgemm.json": {
        "geomean_speedup": "higher",
    },
    "BENCH_e1.json": {
        # The abstract's claim (E1): the Boolean SpGEMM against the slower
        # generic comparator, minimum over the six inputs, in time and in
        # memory. A drop means some input lost the Boolean specialisation's
        # edge — the shape of the regression that went unseen while only
        # skewed inputs were gated.
        "min_time_ratio": "higher",
        "min_mem_ratio": "higher",
    },
    "BENCH_incremental.json": {
        # Single-edge update latency of the semi-naive closure maintenance
        # vs a full recompute of the same post-batch graph (geomean over the
        # LUBM and pointer-analysis inputs). The acceptance floor is 10x;
        # a drop means the delta-sized step loop degraded toward rebuild.
        "geomean_speedup_batch1": "higher",
    },
}

# The CI smoke run writes lowercase names (bench_spgemm.json); map both
# spellings onto the same gate entry.
ALIASES = {name.lower(): name for name in GATED_KEYS}


def gate_name(path: Path) -> str | None:
    """Canonical GATED_KEYS entry for a file name, or None if ungated."""
    if path.name in GATED_KEYS:
        return path.name
    return ALIASES.get(path.name.lower())


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_file(baseline_path: Path, fresh_path: Path, tolerance: float) -> list[str]:
    """Return a list of failure messages for one baseline/fresh pair."""
    name = gate_name(baseline_path)
    failures: list[str] = []
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    for key, direction in GATED_KEYS[name].items():
        if key not in baseline:
            # Baseline predates the key; nothing to hold the fresh run to.
            print(f"  note: {baseline_path.name} has no '{key}' — skipped")
            continue
        if key not in fresh:
            failures.append(f"{fresh_path.name}: gated key '{key}' missing")
            continue
        base, cur = float(baseline[key]), float(fresh[key])
        if direction == "higher":
            bound = base * (1.0 - tolerance)
            ok = cur >= bound
            verdict = f">= {bound:.3f}"
        else:
            bound = base * (1.0 + tolerance)
            ok = cur <= bound
            verdict = f"<= {bound:.3f}"
        status = "ok" if ok else "FAIL"
        print(f"  {status}: {key} = {cur:.3f} (baseline {base:.3f}, need {verdict})")
        if not ok:
            failures.append(
                f"{fresh_path.name}: {key} = {cur:.3f} vs baseline {base:.3f} "
                f"(tolerance {tolerance:.0%}, direction {direction})"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, type=Path,
                        help="directory holding freshly produced BENCH JSONs")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "bench" / "baselines",
                        help="directory of committed baselines "
                             "(default: bench/baselines)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative drift per key (default 0.10)")
    parser.add_argument("--list", action="store_true",
                        help="print the gated keys and exit")
    args = parser.parse_args()

    if args.list:
        for fname, keys in GATED_KEYS.items():
            for key, direction in keys.items():
                print(f"{fname}: {key} ({direction} is better)")
        return 0

    if not args.baseline.is_dir():
        print(f"bench_gate: baseline directory {args.baseline} missing",
              file=sys.stderr)
        return 1

    baselines = sorted(p for p in args.baseline.iterdir()
                       if gate_name(p) is not None)
    if not baselines:
        print(f"bench_gate: no gated baselines in {args.baseline}",
              file=sys.stderr)
        return 1

    failures: list[str] = []
    compared = 0
    for baseline_path in baselines:
        canonical = gate_name(baseline_path)
        # Accept either spelling of the fresh counterpart.
        candidates = [args.fresh / canonical, args.fresh / canonical.lower()]
        fresh_path = next((c for c in candidates if c.is_file()), None)
        if fresh_path is None:
            print(f"skipped: {canonical} (no fresh counterpart in {args.fresh})")
            continue
        print(f"comparing {fresh_path.name} against {baseline_path}:")
        failures += check_file(baseline_path, fresh_path, args.tolerance)
        compared += 1

    if compared == 0:
        print("bench_gate: no fresh BENCH JSONs found to compare", file=sys.stderr)
        return 1
    if failures:
        print(f"\nbench_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_gate: all gated keys within {args.tolerance:.0%} "
          f"({compared} file(s) compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
