#!/usr/bin/env python3
"""Project lint gate for the spbla reproduction.

Enforces the correctness conventions that keep the specialised kernels
auditable (run as the `lint` ctest target; CI runs it on every push):

  raw-new-delete    No raw `new` / `delete` expressions. All device memory
                    goes through DeviceBuffer / containers so the
                    MemoryTracker accounting (the paper's footprint numbers)
                    cannot be bypassed. The C API's opaque FFI handles are
                    the one sanctioned exception (suppressed inline).
  std-thread        No `std::thread` outside util/thread_pool: every worker
                    must come from the pool the TSan preset race-checks.
  ops-file-state    No mutable file-scope state in src/ops/ — kernels are
                    re-entrant and run concurrently on the pool; hidden
                    globals are exactly how racy buffer reuse starts.
  nondeterminism    No rand()/srand()/argless time calls anywhere: every
                    experiment must be reproducible bit-for-bit from a seed
                    (util::Rng) and timed via util::Timer.
  bare-assert       No <cassert>/assert() in src/ — invariants use
                    SPBLA_ASSERT / SPBLA_CHECKED so they obey the
                    SPBLA_CHECKS level instead of vanishing under NDEBUG.
  raw-chrono        No direct `std::chrono` (or <chrono> include) in src/
                    outside util/timer.hpp — timing goes through util::Timer
                    (and telemetry::now_ns, the one clock spans and flight
                    records share) so kernels never grow ad-hoc clocks the
                    SPBLA_PROFILE=off build would still pay for.
  contracts-include Files using SPBLA_* contract macros must include
                    util/contracts.hpp (or core/validate.hpp, which
                    re-exports it).
  ops-validation    Every kernel translation unit in src/ops/ must wire
                    SPBLA_VALIDATE / SPBLA_CHECKED at its boundaries.
  format-leak       No concrete-format header (core/csr.hpp, core/coo.hpp,
                    core/dense.hpp) outside src/core, src/storage, src/ops
                    and src/baseline. Everything above the storage engine
                    operates on spbla::Matrix through storage/dispatch.hpp,
                    so every op is routed, counted and timed in one place
                    and the kernels stay swappable behind it. Test oracles
                    and kernel benchmarks that deliberately exercise one
                    concrete format suppress inline.

Concurrency rules (token-based; the shapes Clang's -Wthread-safety pass
cannot see because they cross a lambda/scheduling boundary):

  lock-order        Mutexes must be acquired in one consistent global order.
                    Edges come from observed LockGuard/UniqueLock nesting
                    plus declared SPBLA_ACQUIRED_BEFORE/AFTER annotations;
                    any cycle in the combined graph is reported (on the
                    first edge involved).
  guarded-mutable   Every `mutable` member in src/ must be std::atomic, a
                    synchronisation primitive, SPBLA_GUARDED_BY-annotated,
                    or explicitly allowlisted — `mutable` is exactly where
                    const-correctness stops implying thread-safety.
  atomic-rmw        No load-then-store read-modify-write on an atomic
                    (`x.store(x.load() + 1)`): the two halves are not one
                    atomic step; use fetch_add/fetch_or/exchange.
  hot-alloc         No raw std::vector construction (or resize/assign/
                    reserve on a TU-declared std::vector) inside a parallel
                    extent in src/ops/ or src/incr/ — per-row/per-tile
                    heap churn bypasses the MemoryTracker and serialises
                    workers on the allocator. Kernel scratch is an exact
                    tracked Context::alloc buffer; deliberate cold-path
                    allocations suppress inline.

A finding can be suppressed for one line with a trailing
`// lint:allow(<rule>)` comment; use sparingly and say why nearby.
`--audit-allows` fails the run if a suppression sits on a line that no
longer triggers its rule, so stale allows cannot outlive their reason.

Usage: tools/lint.py [--root DIR] [--rules r1,r2] [--audit-allows]
       exits 0 iff no violations (and, with --audit-allows, no stale
       suppressions).

If DIR contains none of the usual top-level trees (src/, tests/, ...) it is
scanned recursively as-is — that is how the rule fixtures under
tools/lint_fixtures/ are driven by tools/test_lint.py.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "include", "tests", "bench", "examples")
EXTENSIONS = {".hpp", ".cpp", ".h"}

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def strip_code(text: str) -> str:
    """Replace comments and string/char literals with spaces, preserving
    line structure so reported line numbers match the source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def string_literals(text: str):
    """Yield (line_no, contents) for every double-quoted string literal,
    comments excluded — the inverse selection of strip_code, for rules that
    inspect what the strings *say* (e.g. metric-name-literal)."""
    out: list[tuple[int, str]] = []
    i, n = 0, len(text)
    line = 1
    state = "code"
    start_line = 0
    buf: list[str] = []
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            line += 1
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                start_line = line
                buf = []
            elif c == "'":
                state = "char"
        elif state == "line_comment":
            if c == "\n":
                state = "code"
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
        elif state == "string":
            if c == "\\":
                buf.append(text[i:i + 2])
                i += 2
                continue
            if c == '"':
                out.append((start_line, "".join(buf)))
                state = "code"
            else:
                buf.append(c)
        elif state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
        i += 1
    return out


# --- tokenizer -----------------------------------------------------------

class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # id | num | op
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # debugging aid
        return f"{self.kind}:{self.text}@{self.line}"


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"          # identifier / keyword
    r"|\d[\w.']*"            # numeric literal (incl. 0x..., digit separators)
    r"|->|::|\.\.\."         # multi-char operators the rules care about
    r"|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||\+\+|--|[-+*/%&|^!=]=?"
    r"|[{}()\[\];,.:?~<>#]"
)


def tokenize(code: str) -> list[Token]:
    """Token stream over comment/string-stripped code. Line numbers are
    1-based and match the original source (strip_code preserves lines)."""
    tokens: list[Token] = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        text = m.group(0)
        if text[0].isalpha() or text[0] == "_":
            kind = "id"
        elif text[0].isdigit():
            kind = "num"
        else:
            kind = "op"
        tokens.append(Token(kind, text, line))
    return tokens


def match_paren(tokens: list[Token], open_idx: int) -> int:
    """Index of the `)` matching tokens[open_idx] == `(` (len(tokens) if
    unbalanced)."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def object_chain(tokens: list[Token], dot_idx: int) -> str:
    """Reconstruct the object expression ending at the `.`/`->` token at
    dot_idx: walks back over identifier chains, `::` qualifiers and balanced
    call/index suffixes (`c_in->tile(i, j)` before `.load()` → "c_in->tile(i,j)").
    Returns the whitespace-free spelling, or "" if no chain is found."""
    parts: list[str] = []
    i = dot_idx - 1
    expect_primary = True  # next thing walking back must be id or `)`/`]`
    while i >= 0:
        t = tokens[i]
        if expect_primary:
            if t.text in (")", "]"):
                closer, opener = t.text, "(" if t.text == ")" else "["
                depth = 0
                j = i
                while j >= 0:
                    if tokens[j].text == closer:
                        depth += 1
                    elif tokens[j].text == opener:
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                # A call/index suffix must follow a callee name; a bare
                # closing paren (cast, lambda call, ...) ends the chain.
                if j < 1 or tokens[j - 1].kind != "id":
                    break
                parts.append("".join(tok.text for tok in tokens[j:i + 1]))
                parts.append(tokens[j - 1].text)
                i = j - 2
                expect_primary = False
            elif t.kind == "id":
                parts.append(t.text)
                i -= 1
                expect_primary = False
            else:
                break
        else:
            if t.text in (".", "->", "::"):
                parts.append(t.text)
                i -= 1
                expect_primary = True
            else:
                break
    if expect_primary:  # dangling separator — drop it
        if parts:
            parts.pop()
    return "".join(reversed(parts))


class File:
    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel
        self.raw = path.read_text(encoding="utf-8")
        self.raw_lines = self.raw.splitlines()
        code = strip_code(self.raw)
        self.code_lines = code.splitlines()
        self.tokens = tokenize(code)
        # Suppressions live in comments, so collect them from the raw text.
        self.allows: dict[int, set[str]] = {}
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if m:
                self.allows[idx] = {r.strip() for r in m.group(1).split(",")}


class Linter:
    def __init__(self, root: Path):
        self.root = root
        # Every finding, pre-suppression: (rel, line, rule, msg).
        self.raw_findings: list[tuple[str, int, str, str]] = []

    def report(self, f: File, line_no: int, rule: str, msg: str) -> None:
        self.raw_findings.append((f.rel, line_no, rule, msg))

    # --- per-file rules ------------------------------------------------

    def rule_raw_new_delete(self, f: File) -> None:
        delete_re = re.compile(r"\bdelete\b")
        for no, line in enumerate(f.code_lines, start=1):
            if re.search(r"\bnew\b", line):
                self.report(f, no, "raw-new-delete",
                            "raw `new` — use DeviceBuffer / standard containers")
            if delete_re.search(line):
                if not re.fullmatch(r".*=\s*delete\s*;?.*", line):
                    self.report(f, no, "raw-new-delete",
                                "raw `delete` — use RAII ownership")

    def rule_std_thread(self, f: File) -> None:
        if f.rel.startswith("src/util/thread_pool"):
            return
        for no, line in enumerate(f.code_lines, start=1):
            if "std::thread" in line:
                self.report(f, no, "std-thread",
                            "std::thread outside util/thread_pool — use the "
                            "Context's pool (parallel_for_chunks / submit_many)")

    def rule_nondeterminism(self, f: File) -> None:
        patterns = [
            (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() — use util::Rng"),
            (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
             "wall-clock seeding — use util::Timer / explicit seeds"),
            (re.compile(r"\brandom_device\b"), "std::random_device — use util::Rng"),
        ]
        for no, line in enumerate(f.code_lines, start=1):
            for pat, msg in patterns:
                if pat.search(line):
                    self.report(f, no, "nondeterminism", msg)

    def rule_bare_assert(self, f: File) -> None:
        if not f.rel.startswith("src/"):
            return
        for no, line in enumerate(f.code_lines, start=1):
            if re.search(r"(?<!\w)assert\s*\(", line) and "static_assert" not in line:
                self.report(f, no, "bare-assert",
                            "bare assert() — use SPBLA_ASSERT (obeys SPBLA_CHECKS)")
        for no, line in enumerate(f.raw_lines, start=1):
            if re.search(r'#\s*include\s*<cassert>', line):
                self.report(f, no, "bare-assert",
                            "<cassert> include — use util/contracts.hpp")

    def rule_raw_chrono(self, f: File) -> None:
        if not f.rel.startswith("src/"):
            return
        if f.rel == "src/util/timer.hpp":
            return
        for no, line in enumerate(f.code_lines, start=1):
            if "std::chrono" in line:
                self.report(f, no, "raw-chrono",
                            "direct std::chrono — use util::Timer, "
                            "telemetry::now_ns or a spbla::prof span")
        for no, line in enumerate(f.raw_lines, start=1):
            if re.search(r"#\s*include\s*<chrono>", line):
                self.report(f, no, "raw-chrono",
                            "<chrono> include — use util/timer.hpp or "
                            "prof/prof.hpp")

    def rule_contracts_include(self, f: File) -> None:
        if f.rel.endswith("util/contracts.hpp"):
            return
        uses = any(re.search(r"\bSPBLA_(ASSERT|REQUIRE|CHECKED|VALIDATE)\b", l)
                   for l in f.code_lines)
        if not uses:
            return
        includes = "\n".join(f.raw_lines)
        if not re.search(r'#\s*include\s*"(util/contracts|core/validate)\.hpp"',
                         includes):
            self.report(f, 1, "contracts-include",
                        "uses SPBLA_* contract macros without including "
                        "util/contracts.hpp or core/validate.hpp")

    def rule_ops_validation(self, f: File) -> None:
        if not (f.rel.startswith("src/ops/") and f.rel.endswith(".cpp")):
            return
        text = "\n".join(f.code_lines)
        if not re.search(r"\bSPBLA_(VALIDATE|CHECKED)\b", text):
            self.report(f, 1, "ops-validation",
                        "kernel translation unit has no SPBLA_VALIDATE / "
                        "SPBLA_CHECKED wiring at its op boundaries")

    def rule_format_leak(self, f: File) -> None:
        allowed = ("src/core/", "src/storage/", "src/ops/", "src/baseline/")
        core_pat = re.compile(
            r'#\s*include\s*"core/(csr|coo|dense)\.hpp"')
        if f.rel.startswith(allowed):
            return
        for no, line in enumerate(f.raw_lines, start=1):
            m = core_pat.search(line)
            if m:
                self.report(f, no, "format-leak",
                            f"concrete-format header core/{m.group(1)}.hpp "
                            "included outside the storage/kernel layers — "
                            "use storage/matrix.hpp + storage/dispatch.hpp")

    # Dotted instrument-name prefixes owned by telemetry/metric_names.hpp.
    # The schema tag "spbla.metrics.v1" deliberately does not match: it names
    # the export format, not an instrument.
    METRIC_LITERAL_RE = re.compile(
        r"spbla\.(dispatch|op|mem|storage|pool|prof|arena|incr|closure|"
        r"spgemm)\.[a-z0-9_.]+")

    def rule_metric_name_literal(self, f: File) -> None:
        if not f.rel.startswith("src/"):
            return
        if f.rel == "src/telemetry/metric_names.hpp":
            return
        # strip_code() blanks string literals, so walk the raw text with the
        # same scanner states and collect literal contents per line.
        for no, literal in string_literals(f.raw):
            m = self.METRIC_LITERAL_RE.search(literal)
            if m:
                self.report(f, no, "metric-name-literal",
                            f'metric name "{m.group(0)}" spelled as a string '
                            "literal — instrument names live only in "
                            "telemetry/metric_names.hpp (add an enum there "
                            "and call telemetry::name())")

    def rule_ops_file_state(self, f: File) -> None:
        if not f.rel.startswith("src/ops/"):
            return
        # Track whether we are at namespace (file) scope: every brace opened
        # by a namespace is transparent, any other brace (function, class,
        # struct, enum, lambda, initialiser) is opaque.
        scope: list[str] = []
        pending: str | None = None
        decl_re = re.compile(
            r"^\s*(?:static\s+|thread_local\s+)?"
            r"(?!using\b|typedef\b|struct\b|class\b|enum\b|template\b|friend\b|"
            r"namespace\b|extern\b|return\b|if\b|for\b|while\b|switch\b|case\b)"
            r"[A-Za-z_][\w:<>,\s\*&]*?\s+[A-Za-z_]\w*\s*(?:=[^=]|\{)")
        continuation = False  # inside a statement spanning multiple lines
        for no, line in enumerate(f.code_lines, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            if re.search(r"\bnamespace\b[^;{]*$", stripped) or re.search(
                    r"\bnamespace\b[^;{]*\{", stripped):
                pending = "namespace"
            at_file_scope = all(s == "namespace" for s in scope)
            if (at_file_scope and not continuation and decl_re.match(line)
                    and not re.search(r"\b(const|constexpr|constinit)\b", line)
                    and not re.search(r"\([^)]*\)\s*(\{|;)\s*$", stripped)):
                self.report(f, no, "ops-file-state",
                            "mutable file-scope state in a kernel TU — kernels "
                            "must be re-entrant; move it into the function or "
                            "the Context")
            for ch in line:
                if ch == "{":
                    scope.append(pending if pending else "block")
                    pending = None
                elif ch == "}":
                    if scope:
                        scope.pop()
            if stripped.endswith(";"):
                pending = None
            if stripped:
                continuation = not stripped.endswith((";", "{", "}", ":"))

    # --- concurrency rules (token-based) -------------------------------

    #: Call spellings whose argument list is a parallel extent: the lambdas
    #: inside run concurrently on pool workers.
    PARALLEL_INTRODUCERS = frozenset(
        {"parallel_for_chunks", "run_dynamic", "submit", "submit_many"})

    def _parallel_extents(self, f: File) -> list[tuple[int, int]]:
        """Token index ranges [open_paren, close_paren] of every parallel
        launch's argument list."""
        toks = f.tokens
        extents: list[tuple[int, int]] = []
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            open_idx = None
            if (t.text in self.PARALLEL_INTRODUCERS
                    and i + 1 < len(toks) and toks[i + 1].text == "("):
                open_idx = i + 1
            if open_idx is not None:
                extents.append((open_idx, match_paren(toks, open_idx)))
        return extents

    def rule_hot_alloc(self, f: File) -> None:
        if not (f.rel.startswith("src/ops/") or f.rel.startswith("src/incr/")):
            return
        toks = f.tokens
        extents = self._parallel_extents(f)
        if not extents:
            return

        def in_extent(idx: int) -> bool:
            return any(lo < idx < hi for lo, hi in extents)

        def skip_template_args(j: int) -> int:
            """Token index just past a `<...>` list starting at j (or j)."""
            if j >= len(toks) or toks[j].text != "<":
                return j
            depth = 0
            while j < len(toks):
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                j += 1
            return j

        # Pass 1: every `std::vector` spelling. Construction inside a
        # parallel extent is per-row/per-tile heap churn; declarations
        # anywhere in the TU seed the name set for pass 2 (a vector built
        # serially but regrown inside the launch allocates just the same).
        vector_names: set[str] = set()
        construction_sites: list[tuple[int, int]] = []  # (tok idx, line)
        n = len(toks)
        for i, t in enumerate(toks):
            if not (t.kind == "id" and t.text == "vector" and i >= 2
                    and toks[i - 1].text == "::" and toks[i - 2].text == "std"):
                continue
            j = skip_template_args(i + 1)
            if j < n and toks[j].kind == "id":
                vector_names.add(toks[j].text)
            if in_extent(i):
                # A reference/pointer binding does not allocate; an actual
                # declaration or temporary construction does.
                if j < n and toks[j].text not in ("&", "*", "&&"):
                    construction_sites.append((i, t.line))
        for _, line in construction_sites:
            self.report(
                f, line, "hot-alloc",
                "raw std::vector constructed inside a parallel extent — "
                "per-row heap churn invisible to MemoryTracker; size the "
                "scratch once per chunk with Context::alloc")

        # Pass 2: growth calls on a TU-declared std::vector inside an
        # extent. Direct `name.resize(...)` shapes only — an element access
        # like `cache[i].assign(...)` writes an op output, not scratch.
        for i, t in enumerate(toks):
            if (t.kind == "id" and t.text in ("resize", "assign", "reserve")
                    and i + 1 < n and toks[i + 1].text == "("
                    and i >= 2 and toks[i - 1].text in (".", "->")
                    and toks[i - 2].kind == "id"
                    and toks[i - 2].text in vector_names
                    and in_extent(i)):
                self.report(
                    f, t.line, "hot-alloc",
                    f"`{toks[i - 2].text}.{t.text}()` grows a raw "
                    "std::vector inside a parallel extent — size the "
                    "scratch once per chunk with Context::alloc")

    def rule_guarded_mutable(self, f: File) -> None:
        if not f.rel.startswith("src/"):
            return
        safe_re = re.compile(
            r"std\s*::\s*atomic|\batomic\s*<|SPBLA_GUARDED_BY|\bMutex\b|"
            r"std\s*::\s*mutex|\bonce_flag\b|\bcondition_variable\b|\bCondVar\b")
        no = 0
        lines = f.code_lines
        n = len(lines)
        idx = 0
        while idx < n:
            line = lines[idx]
            no = idx + 1
            m = re.match(r"\s*mutable\b", line)
            if not m:
                idx += 1
                continue
            # Merge the declaration until its terminating `;`.
            decl = line
            j = idx
            while ";" not in lines[j] and j + 1 < n:
                j += 1
                decl += " " + lines[j]
            if not safe_re.search(decl):
                self.report(
                    f, no, "guarded-mutable",
                    "mutable member is neither std::atomic nor "
                    "SPBLA_GUARDED_BY-annotated — `mutable` breaks the "
                    "const-means-shareable contract; guard it or allowlist "
                    "with a rationale")
            idx = j + 1

    def rule_atomic_rmw(self, f: File) -> None:
        toks = f.tokens
        for i, t in enumerate(toks):
            if not (t.kind == "id" and t.text == "store"
                    and i + 1 < len(toks) and toks[i + 1].text == "("
                    and i >= 1 and toks[i - 1].text in (".", "->")):
                continue
            obj = object_chain(toks, i - 1)
            if not obj:
                continue
            close = match_paren(toks, i + 1)
            # Look for `<same object> . load (` inside the store's arguments.
            k = i + 2
            while k < close:
                if (toks[k].kind == "id" and toks[k].text == "load"
                        and k + 1 < len(toks) and toks[k + 1].text == "("
                        and toks[k - 1].text in (".", "->")
                        and object_chain(toks, k - 1) == obj):
                    self.report(
                        f, toks[k].line, "atomic-rmw",
                        f"`{obj}.store({obj}.load() ...)` is not one atomic "
                        "step — concurrent writers lose updates; use "
                        "fetch_add/fetch_sub/fetch_or/exchange")
                    break
                k += 1

    # --- lock-order (cross-file) ----------------------------------------

    GUARD_TYPES = frozenset({"LockGuard", "UniqueLock", "lock_guard",
                             "unique_lock", "scoped_lock"})

    def _collect_lock_edges(
            self, f: File,
            edges: dict[tuple[str, str], tuple[str, int]]) -> None:
        toks = f.tokens
        # Declared edges: `SPBLA_ACQUIRED_BEFORE(a, b)` / `_AFTER(...)`
        # attached to a member named by the preceding identifier.
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in ("SPBLA_ACQUIRED_BEFORE",
                                                "SPBLA_ACQUIRED_AFTER"):
                continue
            if i < 1 or toks[i - 1].kind != "id":
                continue
            member = toks[i - 1].text
            if member == "define":  # the macro's own #define line
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            close = match_paren(toks, i + 1)
            args, cur = [], []
            for k in range(i + 2, close):
                if toks[k].text == ",":
                    args.append("".join(cur))
                    cur = []
                else:
                    cur.append(toks[k].text)
            if cur:
                args.append("".join(cur))
            for arg in args:
                edge = ((member, arg) if t.text == "SPBLA_ACQUIRED_BEFORE"
                        else (arg, member))
                edges.setdefault(edge, (f.rel, t.line))

        # Observed nesting: a guard constructed while another is live in an
        # enclosing (or the same) scope orders its mutex after the live one.
        depth = 0
        live: list[tuple[str, int]] = []  # (mutex expr, depth at declaration)
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth <= 0:
                    depth = 0
                    live.clear()
                else:
                    live = [g for g in live if g[1] <= depth]
            elif (t.kind == "id" and t.text in self.GUARD_TYPES
                    and i + 1 < n):
                # Skip a template argument list: lock_guard<std::mutex> lk(m);
                j = i + 1
                if toks[j].text == "<":
                    tdepth = 0
                    while j < n:
                        if toks[j].text == "<":
                            tdepth += 1
                        elif toks[j].text == ">":
                            tdepth -= 1
                            if tdepth == 0:
                                j += 1
                                break
                        j += 1
                # Expect: <name> ( args ) | <name> { args }  (or no name for
                # temporaries, which we ignore — they release immediately).
                if j < n and toks[j].kind == "id":
                    j += 1
                    if j < n and toks[j].text in ("(", "{"):
                        opener = toks[j].text
                        closer = ")" if opener == "(" else "}"
                        d2, k = 0, j
                        args_toks: list[Token] = []
                        while k < n:
                            if toks[k].text == opener:
                                d2 += 1
                            elif toks[k].text == closer:
                                d2 -= 1
                                if d2 == 0:
                                    break
                            if k > j:
                                args_toks.append(toks[k])
                            k += 1
                        mutexes = []
                        cur = []
                        for at in args_toks:
                            if at.text == ",":
                                mutexes.append("".join(x.text for x in cur))
                                cur = []
                            else:
                                cur.append(at)
                        if cur:
                            mutexes.append("".join(x.text for x in cur))
                        for mx in mutexes:
                            if not mx:
                                continue
                            for held, _ in live:
                                if held != mx:
                                    edges.setdefault((held, mx),
                                                     (f.rel, t.line))
                        for mx in mutexes:
                            if mx:
                                live.append((mx, depth))
                        i = k
            i += 1

    def rule_lock_order(self, files: list[File]) -> None:
        edges: dict[tuple[str, str], tuple[str, int]] = {}
        for f in files:
            self._collect_lock_edges(f, edges)
        graph: dict[str, set[str]] = {}
        for (a, b) in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        # Cycle detection via iterative DFS colouring.
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {v: WHITE for v in graph}
        for start in sorted(graph):
            if colour[start] != WHITE:
                continue
            stack: list[tuple[str, list[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                if node == "__pop__":
                    continue
                if colour[node] == BLACK:
                    continue
                colour[node] = GREY
                advanced = False
                for nxt in sorted(graph[node]):
                    if colour.get(nxt) == GREY and nxt in path:
                        cycle = path[path.index(nxt):] + [nxt]
                        cedges = list(zip(cycle, cycle[1:]))
                        rel, line = min(edges[e] for e in cedges if e in edges)
                        order = " -> ".join(cycle)
                        # Anchor the finding on the first edge of the cycle
                        # so a suppression sits next to the deviant lock.
                        self.raw_findings.append(
                            (rel, line, "lock-order",
                             f"inconsistent mutex acquisition order: {order} "
                             "— pick one global order (declare it with "
                             "SPBLA_ACQUIRED_BEFORE/AFTER)"))
                        for v in cycle:
                            colour[v] = BLACK
                    elif colour.get(nxt) == WHITE:
                        stack.append((node, path))  # revisit to blacken
                        stack.append((nxt, path + [nxt]))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK

    # --- driver --------------------------------------------------------

    PER_FILE_RULES = {
        "raw-new-delete": "rule_raw_new_delete",
        "std-thread": "rule_std_thread",
        "nondeterminism": "rule_nondeterminism",
        "raw-chrono": "rule_raw_chrono",
        "bare-assert": "rule_bare_assert",
        "contracts-include": "rule_contracts_include",
        "ops-validation": "rule_ops_validation",
        "format-leak": "rule_format_leak",
        "metric-name-literal": "rule_metric_name_literal",
        "ops-file-state": "rule_ops_file_state",
        "hot-alloc": "rule_hot_alloc",
        "guarded-mutable": "rule_guarded_mutable",
        "atomic-rmw": "rule_atomic_rmw",
    }
    CROSS_FILE_RULES = {"lock-order": "rule_lock_order"}
    ALL_RULES = tuple(PER_FILE_RULES) + tuple(CROSS_FILE_RULES)

    def collect_files(self) -> list[File]:
        files = []
        bases = [self.root / d for d in SCAN_DIRS if (self.root / d).is_dir()]
        if not bases:
            bases = [self.root]  # fixture mode: scan the directory as given
        for base in bases:
            for p in sorted(base.rglob("*")):
                if p.suffix in EXTENSIONS and p.is_file():
                    files.append(File(p, p.relative_to(self.root).as_posix()))
        return files

    def run(self, rules: list[str], audit_allows: bool) -> int:
        files = self.collect_files()
        for f in files:
            for rule in rules:
                method = self.PER_FILE_RULES.get(rule)
                if method:
                    getattr(self, method)(f)
        for rule in rules:
            method = self.CROSS_FILE_RULES.get(rule)
            if method:
                getattr(self, method)(files)

        allows = {(f.rel, no, rule)
                  for f in files
                  for no, names in f.allows.items()
                  for rule in names}
        raw_keys = {(rel, no, rule) for rel, no, rule, _ in self.raw_findings}
        violations = [(rel, no, rule, msg)
                      for rel, no, rule, msg in self.raw_findings
                      if (rel, no, rule) not in allows]
        for rel, no, rule, msg in sorted(violations):
            print(f"{rel}:{no}: [{rule}] {msg}")

        stale: list[tuple[str, int, str, str]] = []
        if audit_allows:
            for rel, no, rule in sorted(allows):
                if rule not in self.ALL_RULES:
                    stale.append((rel, no, rule,
                                  f"unknown rule `{rule}` in lint:allow"))
                elif rule in rules and (rel, no, rule) not in raw_keys:
                    stale.append((rel, no, rule,
                                  "stale suppression: line no longer "
                                  f"triggers `{rule}` — delete the allow"))
            for rel, no, rule, msg in stale:
                print(f"{rel}:{no}: [audit-allows] {msg}")

        print(f"lint: scanned {len(files)} files, "
              f"{len(violations)} violation(s)"
              + (f", {len(stale)} stale allow(s)" if audit_allows else ""))
        return 1 if violations or stale else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root to scan (default: repo containing "
                         "this script)")
    ap.add_argument("--rules", type=str, default=",".join(Linter.ALL_RULES),
                    help="comma-separated rule subset to run (default: all)")
    ap.add_argument("--audit-allows", action="store_true",
                    help="additionally fail on lint:allow comments whose "
                         "line no longer triggers the named rule")
    args = ap.parse_args()
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in Linter.ALL_RULES]
    if unknown:
        print(f"lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    return Linter(args.root).run(rules, args.audit_allows)


if __name__ == "__main__":
    sys.exit(main())
