#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload <rpq-lubm|cfpq|closure-stream> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

The first call configures and builds the library and the benchmark binary from source
into .bench_build/ (later calls only re-run the incremental build). Build
output goes to stderr; the binary's last stdout line is the JSON result.
With --trace 1 the recorded spans are written to .bench_build/spans/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("rpq-lubm", "cfpq", "closure-stream")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a repository checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, capture):
    """Run the benchmark binary; returns (exit code, stdout text or None)."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return proc.returncode, proc.stdout


def checks(stdout):
    """The 'checks' object and the final JSON result of one benchmark run."""
    lines = stdout.strip().splitlines()
    found = [l.split("checks ", 1)[1] for l in lines if ": checks {" in l]
    return json.loads(found[-1]), json.loads(lines[-1])


def self_test(seed):
    """Counts must repeat exactly for a fixed seed; a second seed must change
    the inputs and still pass the correctness gate."""
    all_ok = True
    for w in WORKLOADS:
        ok = True
        base = ["--workload", w, "--seconds", "1", "--passes", "2"]
        runs = {}
        for trace in ("0", "1"):
            for rep in (0, 1):
                code, out = run_binary(base + ["--seed", str(seed), "--trace", trace], True)
                if code != 0:
                    fail(f"self-test {w}: trace {trace} run {rep} exited with {code}")
                c, result = checks(out)
                if not result["correct"]:
                    print(f"self-test {w}: trace {trace} run {rep} failed", file=sys.stderr)
                    ok = False
                runs[(trace, rep)] = c
        for trace in ("0", "1"):
            if runs[(trace, 0)] != runs[(trace, 1)]:
                print(f"self-test {w}: trace {trace} counts differ between two runs: "
                      f"{runs[(trace, 0)]} vs {runs[(trace, 1)]}", file=sys.stderr)
                ok = False
        code, out = run_binary(base + ["--seed", str(seed + 1), "--trace", "0"], True)
        if code != 0:
            fail(f"self-test {w}: seed {seed + 1} exited with {code}")
        other, result = checks(out)
        if not result["correct"]:
            print(f"self-test {w}: seed {seed + 1} failed the correctness gate", file=sys.stderr)
            ok = False
        if other["input_fingerprint"] == runs[("0", 0)]["input_fingerprint"]:
            print(f"self-test {w}: seed {seed + 1} did not change the inputs", file=sys.stderr)
            ok = False
        print(f"self-test {w}: {'ok' if ok else 'FAILED'} {json.dumps(runs[('1', 0)])}")
        all_ok = all_ok and ok
    print("self-test: " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    build()
    if a.self_test:
        return self_test(a.seed)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    return run_binary(args, False)[0]


if __name__ == "__main__":
    sys.exit(main())
