#!/usr/bin/env python3
"""Self-test for tools/lint.py: every rule runs against its seeded fixtures.

For each rule under tools/lint_fixtures/<rule>/ the positive tree must
produce exactly the expected number of findings (and exit 1) and the
negative tree must be clean (exit 0). The audit fixtures check that
--audit-allows flags a stale `lint:allow` and accepts a live one. Runs as
the `lint_rules` ctest target, so a rule regression — a pattern loosened
until it matches nothing, a tokenizer change that breaks extent tracking —
fails CI instead of silently gutting the gate.

Exit status: 0 iff every expectation holds.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
LINT = TOOLS / "lint.py"
FIXTURES = TOOLS / "lint_fixtures"

#: rule -> expected finding count in its positive fixture tree. The counts
#: are deliberately exact: "at least one" would let a rule regress from
#: flagging every site to flagging the first.
EXPECTED_POSITIVE = {
    "raw-new-delete": 2,     # one `new`, one `delete[]`
    "std-thread": 1,
    "nondeterminism": 3,     # srand, rand, random_device
    "raw-chrono": 2,         # <chrono> include + std::chrono use
    "bare-assert": 2,        # <cassert> include + assert() call
    "contracts-include": 1,
    "ops-validation": 1,
    "format-leak": 2,        # two concrete core headers
    "metric-name-literal": 4,  # comparison literal + three named constants
    "ops-file-state": 1,
    "hot-alloc": 4,          # per-row ctor, per-row resize, per-chunk temp,
                             # per-round ctor in src/incr/
    "guarded-mutable": 2,    # single-line and line-spanning declaration
    "atomic-rmw": 1,
    "lock-order": 1,         # one ABBA cycle
}


def run_lint(root: Path, rule: str, audit: bool = False
             ) -> tuple[int, int, int]:
    """Returns (exit code, findings for `rule`, stale-allow count)."""
    cmd = [sys.executable, str(LINT), "--root", str(root), "--rules", rule]
    if audit:
        cmd.append("--audit-allows")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    findings = len(re.findall(rf"^\S+:\d+: \[{re.escape(rule)}\]",
                              proc.stdout, re.MULTILINE))
    stale = len(re.findall(r"\[audit-allows\]", proc.stdout))
    return proc.returncode, findings, stale


def main() -> int:
    failures: list[str] = []

    def expect(label: str, cond: bool, detail: str) -> None:
        if cond:
            print(f"  ok: {label}")
        else:
            failures.append(f"{label}: {detail}")
            print(f"FAIL: {label}: {detail}")

    for rule, want in sorted(EXPECTED_POSITIVE.items()):
        pos = FIXTURES / rule / "positive"
        neg = FIXTURES / rule / "negative"
        if not pos.is_dir() or not neg.is_dir():
            failures.append(f"{rule}: fixture tree missing under {FIXTURES}")
            print(f"FAIL: {rule}: fixture tree missing")
            continue
        rc, n, _ = run_lint(pos, rule)
        expect(f"{rule}/positive", rc == 1 and n == want,
               f"expected exit 1 with {want} finding(s), got exit {rc} "
               f"with {n}")
        rc, n, _ = run_lint(neg, rule)
        expect(f"{rule}/negative", rc == 0 and n == 0,
               f"expected a clean exit 0, got exit {rc} with {n} finding(s)")

    # A suppression on a line that no longer triggers its rule is stale...
    rc, n, stale = run_lint(FIXTURES / "audit" / "positive", "std-thread",
                            audit=True)
    expect("audit-allows/stale", rc == 1 and stale == 1 and n == 0,
           f"expected exit 1 with 1 stale allow, got exit {rc} with "
           f"{stale} stale / {n} finding(s)")
    # ...while one sitting on a live finding both suppresses and survives.
    rc, n, stale = run_lint(FIXTURES / "audit" / "negative", "std-thread",
                            audit=True)
    expect("audit-allows/live", rc == 0 and stale == 0 and n == 0,
           f"expected exit 0 with no stale allows, got exit {rc} with "
           f"{stale} stale / {n} finding(s)")

    total = len(EXPECTED_POSITIVE) * 2 + 2
    print(f"test_lint: {total - len(failures)}/{total} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
