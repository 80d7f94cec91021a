#!/usr/bin/env python3
"""Project lint enforcing the determinism contract (docs/THEORY.md).

The simulator's replay, golden-output, and schedule-perturbation tests
all assume that no simulation-visible state leaks in from sources the
seeds don't control.  clang-tidy has no checks for these project rules,
so this is a purpose-built lexical lint over ``src/``:

  DET-A  iteration over ``std::unordered_map``/``unordered_set``
         variables.  Hash-table iteration order is
         implementation-defined; anything it feeds (serde, digests,
         fan-out, metrics, logs) silently depends on it.  Walk a sorted
         snapshot instead (``common::sortedKeys``).
  DET-B  wall-clock / ambient randomness primitives
         (``std::chrono::*_clock``, ``time()``, ``rand()``,
         ``std::random_device``, ``std::mt19937``, ...).  Simulated time
         comes from ``dht::SimClock``; randomness from seeded
         ``common::Rng``.  Sanctioned exceptions live in
         ``bench/bench_util.h`` (the wall-clock perf harness) and
         ``src/common/rng.h`` (the seeded generator itself).
  DET-C  ordering or hashing keyed on pointer values
         (``std::map<T*,...>``, ``std::hash<T*>``,
         ``reinterpret_cast<uintptr_t>``).  Allocator addresses differ
         across runs/ASLR, so pointer order is a hidden RNG.
  DET-D  float accumulation inside an unordered-container loop.  Even
         with DET-A waived, ``sum += x`` over hash order changes the
         rounding sequence, so metered totals drift between runs.
  DET-E  mutable static-storage data (function-local ``static``,
         ``static``/``inline`` namespace-scope variables, static data
         members — anything neither const nor constexpr).  Such state is
         shared by every thread in the process — the TCP transport's
         ``TcpPeerServer`` poll loops and the ``extra_wire`` client
         threads run handler code concurrently — yet never appears in a
         lambda's capture list, so a handler can reach it invisibly: a
         data race on the socket path, and a cross-run ordering leak in
         the serial simulator.  Per-run state belongs on the owning
         object (Network/SimScheduler/index); ``thread_local`` is
         flagged too, since thread identity is not simulation state.

Suppression: a ``// DET-ALLOW(reason)`` comment on the flagged line or
the line directly above waives every rule for that line.  The reason is
mandatory — an empty one is itself a violation.

Baseline: ``scripts/determinism_baseline.json`` holds grandfathered
violations as stable keys (file + rule + normalized source text, no line
numbers, so unrelated edits don't churn it).  Anything not in the
baseline fails the lint; ``--update-baseline`` rewrites the file.  The
checked-in baseline is EMPTY and the goal is to keep it that way.

Usage:
  scripts/lint_determinism.py [paths...]          # default: src/
  scripts/lint_determinism.py --no-baseline       # report everything
  scripts/lint_determinism.py --update-baseline   # grandfather current
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "scripts",
                                "determinism_baseline.json")

SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")

# Files allowed to touch wall clocks / ambient randomness (DET-B).
CLOCK_ALLOWLIST = (
    os.path.join("bench", "bench_util.h"),  # wall-clock perf harness
    os.path.join("src", "common", "rng.h"),  # the seeded generator
)

DET_ALLOW_RE = re.compile(r"//\s*DET-ALLOW\((?P<reason>[^)]*)\)")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
# Identifier that terminates a (possibly multi-line) declaration whose
# type mentioned an unordered container: "> name;", "> name = ...",
# "> name{...};".
DECL_NAME_RE = re.compile(r">\s*(?:&\s*)?(\w+)\s*(?:;|=|\{)")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*&?(?:\w+(?:\.|->))*(\w+)\s*\)")
# Only begin() exposes hash order; bare end() comparisons (the find
# idiom `it == m.end()`) are harmless and deliberately not matched.
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")

CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"),
     "std::chrono clock (simulated time comes from dht::SimClock)"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"),
     "time() wall clock"),
    (re.compile(r"(?<![\w:.>])(?:s?rand)\s*\("),
     "C rand()/srand() (use seeded common::Rng)"),
    (re.compile(r"std::random_device"),
     "std::random_device (nondeterministic entropy source)"),
    (re.compile(r"std::mt19937(?:_64)?"),
     "std::mt19937 (use the project-seeded common::Rng)"),
    (re.compile(r"(?<![\w:.>])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:.>])clock_gettime\s*\("), "clock_gettime()"),
]

POINTER_KEY_PATTERNS = [
    (re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<\s*[\w:]+(?:\s*<[^<>]*>)?"
                r"\s*\*"),
     "ordered container keyed on a pointer (address order is a hidden RNG)"),
    (re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<\s*[\w:]+"
                r"(?:\s*<[^<>]*>)?\s*\*"),
     "hash container keyed on a pointer"),
    (re.compile(r"\bstd::hash\s*<\s*[\w:]+(?:\s*<[^<>]*>)?\s*\*\s*>"),
     "std::hash over a pointer value"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer-to-integer cast (address-derived value)"),
]

# Mutable static-storage declaration: `static` (plus optional
# thread_local/inline in either order), NOT followed by const/constexpr,
# then a type (template args allowed) and a variable name terminated by
# ;, = or {.  Function declarations never match: their name is followed
# by '(' which no branch of the pattern can cross.
STATIC_MUTABLE_RE = re.compile(
    r"\bstatic\s+(?:(?:thread_local|inline)\s+)*"
    r"(?!const\b|constexpr\b)"
    r"[\w:]+(?:\s*<[^()]*>)?(?:[\s&*]|\bstruct\b)+\w+(?:\[\w*\])?"
    r"\s*(?:;|=|\{)")

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:;|=|\{)")
COMPOUND_ADD_RE = re.compile(r"(?:^|[^\w.])([\w.\->]*\b\w+)\s*[+\-*]=")


def strip_code_line(line: str) -> str:
    """Removes string/char literals and // comments so patterns never
    match inside text.  Block comments are handled by the caller."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote + quote)  # keep an empty literal placeholder
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class FileScan:
    """One file, split into DET-ALLOW markers and comment-free code."""

    def __init__(self, path: str, text: str):
        self.path = path
        raw_lines = text.splitlines()
        self.allow_reasons: dict[int, str] = {}  # 1-based line -> reason
        for idx, line in enumerate(raw_lines, start=1):
            m = DET_ALLOW_RE.search(line)
            if m:
                self.allow_reasons[idx] = m.group("reason").strip()
        # Blank out block comments (and capture DET-ALLOW inside them to
        # the line where the marker sits), then strip line comments and
        # strings.
        no_blocks = self._blank_block_comments(raw_lines)
        self.code = [strip_code_line(l) for l in no_blocks]

    @staticmethod
    def _blank_block_comments(lines: list[str]) -> list[str]:
        out = []
        in_block = False
        for line in lines:
            result = []
            i, n = 0, len(line)
            while i < n:
                if in_block:
                    end = line.find("*/", i)
                    if end < 0:
                        i = n
                    else:
                        in_block = False
                        i = end + 2
                    continue
                start = line.find("/*", i)
                slash = line.find("//", i)
                if start >= 0 and (slash < 0 or start < slash):
                    result.append(line[i:start])
                    in_block = True
                    i = start + 2
                else:
                    result.append(line[i:])
                    i = n
            out.append("".join(result))
        return out

    def allowed(self, lineno: int) -> bool:
        """A DET-ALLOW on the line itself or the line directly above
        (where the annotation comment conventionally sits) waives it."""
        return lineno in self.allow_reasons or (lineno - 1) in self.allow_reasons


class Violation:
    def __init__(self, path: str, lineno: int, rule: str, message: str,
                 source: str):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message
        self.source = source.strip()

    def key(self) -> str:
        """Stable identity for baselining: file + rule + normalized
        source text (whitespace-squashed), hashed.  Deliberately no line
        number, so edits elsewhere in the file don't churn the baseline."""
        normalized = " ".join(self.source.split())
        blob = f"{self.path}|{self.rule}|{normalized}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def render(self) -> str:
        return (f"{self.path}:{self.lineno}: [{self.rule}] {self.message}\n"
                f"    {self.source}")


def collect_files(paths: list[str]) -> list[str]:
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
            continue
        for dirpath, _dirnames, filenames in os.walk(p):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def build_unordered_symbol_table(scans: list[FileScan]) -> set[str]:
    """Names of variables/members declared with an unordered container
    type, across the whole scanned set (headers declare, .cpps use)."""
    names: set[str] = set()
    for scan in scans:
        joined = "\n".join(scan.code)
        for m in UNORDERED_DECL_RE.finditer(joined):
            # Find the identifier after the declaration's closing '>':
            # scan forward from the template-open, tracking depth.
            depth = 0
            i = m.end() - 1  # at '<'
            n = len(joined)
            while i < n:
                if joined[i] == "<":
                    depth += 1
                elif joined[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            tail = joined[i:i + 160]
            dm = DECL_NAME_RE.match(tail)
            if dm:
                names.add(dm.group(1))
    return names


def scan_file(scan: FileScan, unordered_names: set[str],
              rel: str) -> list[Violation]:
    violations: list[Violation] = []
    in_clock_allowlist = any(rel.endswith(a) for a in CLOCK_ALLOWLIST)

    # Float-typed locals/members of this file, for DET-D.
    float_names: set[str] = set()
    for line in scan.code:
        for m in FLOAT_DECL_RE.finditer(line):
            float_names.add(m.group(1))

    # Tracks unordered-container loops for DET-D: once a range-for over
    # an unordered name opens, remember its brace depth until it closes.
    depth = 0
    loop_stack: list[int] = []  # brace depths of open unordered loops

    for lineno, line in enumerate(scan.code, start=1):
        flag = lambda rule, msg: violations.append(
            Violation(rel, lineno, rule, msg, line)) if not scan.allowed(
                lineno) else None

        # --- DET-A: iteration over unordered containers ---------------
        unordered_loop_here = False
        for m in RANGE_FOR_RE.finditer(line):
            if m.group(1) in unordered_names:
                unordered_loop_here = True
                flag("DET-A",
                     f"iteration over unordered container '{m.group(1)}' "
                     "(hash order is implementation-defined; walk "
                     "common::sortedKeys instead)")
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group(1) in unordered_names:
                flag("DET-A",
                     f"'{m.group(1)}.begin()' exposes hash iteration order")

        # --- DET-B: wall clocks / ambient randomness ------------------
        if not in_clock_allowlist:
            for pattern, msg in CLOCK_PATTERNS:
                if pattern.search(line):
                    flag("DET-B", msg)

        # --- DET-C: pointer-keyed order / hashing ---------------------
        for pattern, msg in POINTER_KEY_PATTERNS:
            if pattern.search(line):
                flag("DET-C", msg)

        # --- DET-E: mutable static-storage data -----------------------
        if STATIC_MUTABLE_RE.search(line):
            flag("DET-E",
                 "mutable static-storage variable (shared across "
                 "transport threads and invisible to lambda capture "
                 "lists; hang per-run state off the owning object "
                 "instead)")

        # --- DET-D: float accumulation under hash order ---------------
        if loop_stack:
            for m in COMPOUND_ADD_RE.finditer(line):
                target = m.group(1).split("->")[-1].split(".")[-1]
                if target in float_names:
                    flag("DET-D",
                         f"float accumulation '{target} +=' inside an "
                         "unordered-container loop (rounding depends on "
                         "hash order)")

        # Brace tracking AFTER matching, so a loop's own line counts as
        # outside its body.
        opens = line.count("{")
        closes = line.count("}")
        if unordered_loop_here:
            loop_stack.append(depth)
        depth += opens - closes
        while loop_stack and depth <= loop_stack[-1]:
            loop_stack.pop()

        # Empty DET-ALLOW reasons are themselves violations (no waiver).
        if lineno in scan.allow_reasons and not scan.allow_reasons[lineno]:
            violations.append(
                Violation(rel, lineno, "DET-ALLOW",
                          "DET-ALLOW() requires a non-empty reason", line))
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        default=[os.path.join(REPO_ROOT, "src")],
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON of grandfathered violations")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report everything")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with current violations")
    args = parser.parse_args()

    files = collect_files(args.paths)
    if not files:
        print("lint_determinism: no source files found", file=sys.stderr)
        return 2

    scans = []
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as fh:
            scans.append(FileScan(path, fh.read()))

    unordered_names = build_unordered_symbol_table(scans)

    violations: list[Violation] = []
    for scan in scans:
        rel = os.path.relpath(scan.path, REPO_ROOT)
        violations.extend(scan_file(scan, unordered_names, rel))

    baseline_keys: set[str] = set()
    if not args.no_baseline and os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as fh:
            baseline_keys = set(json.load(fh).get("violations", []))

    if args.update_baseline:
        payload = {
            "comment": "Grandfathered determinism-lint violations. "
                       "Keep this empty: fix the code or DET-ALLOW it.",
            "violations": sorted(v.key() for v in violations),
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"lint_determinism: baseline updated with "
              f"{len(violations)} violation(s)")
        return 0

    fresh = [v for v in violations if v.key() not in baseline_keys]
    stale = baseline_keys - {v.key() for v in violations}

    for v in fresh:
        print(v.render())
    if stale:
        print(f"lint_determinism: {len(stale)} baseline entr"
              f"{'y is' if len(stale) == 1 else 'ies are'} fixed — run "
              "--update-baseline to ratchet down")
    if fresh:
        print(f"\nlint_determinism: {len(fresh)} new violation(s) in "
              f"{len(files)} file(s). Fix them or annotate with "
              "// DET-ALLOW(reason).")
        return 1
    print(f"lint_determinism: clean ({len(files)} files, "
          f"{len(violations)} baselined)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
