#!/usr/bin/env python3
"""Repo-invariant lint for the ZKA codebase.

Enforces the cross-cutting rules that keep runs reproducible and the
numeric policy coherent -- the invariants that a compiler cannot check
and that code review keeps re-litigating:

  R1 rng-source            All randomness flows through util/rng
                           (std::rand, std::random_device, raw std
                           engines like std::mt19937, and wall-clock
                           seeding make runs irreproducible or
                           unsplittable).
  R2 threading-primitives  All parallelism flows through util/thread_pool
                           (raw std::thread / OpenMP would break the
                           fixed-block determinism guarantees and the
                           nesting-safety protocol).
  R3 float32-kernel-precision
                           The GEMM/conv hot-path kernels accumulate in
                           float32 by policy; double accumulation belongs
                           in the reduce toolkit, which owns the
                           fixed-association double path.
  R4 sort-network-strict-fp
                           The column-sort network pads tiles with +inf
                           and relies on IEEE min/max ordering, so no
                           build file may enable -ffast-math family
                           flags, and the sort/reduce kernels must not
                           use std::fmin/fmax (different NaN semantics
                           than the comparator the network needs).
  R5 defense-raw-reduce    Defense aggregators must not hand-roll
                           multiply-accumulate reductions over updates;
                           tensor::dot / squared_norm / squared_distance
                           / axpy / weighted_sum own the accumulation
                           order (and hence bitwise determinism).
  R6 prof-timing           Library code must not read clocks directly
                           (std::chrono, clock_gettime, ...); timing goes
                           through util/prof (scoped timers + now_ns),
                           which is the single switchable, mergeable
                           source of timing truth.
  R7 header-reachability   Every src/**/*.h must be #included by some file
                           under src/, bench/, examples/ or roundbench/
                           other than itself and its same-stem .cpp. A
                           module that only its own tests reach is dead
                           weight: delete it together with its test.

A line can opt out with a trailing or preceding comment:

    // zka-lint: allow(rule-name) -- justification

Escape hygiene is enforced too: an allow() naming an unknown rule is an
error, and an allow() for an R-rule that no longer suppresses anything
is an error (dead escapes must be deleted, not accumulate). Escapes for
the AST rules A1-A10 are name-validated only here; their usage is
checked by tools/zka_analyze, which owns those rules.

Runs from the repo root (CMake registers it as the `check_invariants`
test); exits non-zero and prints `path:line: [rule] message` per hit.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CXX_EXTS = {".cpp", ".h", ".inl"}
SCAN_ROOTS = ["src", "tests", "bench", "examples", "tools"]
# Never scanned: the zka_analyze fixtures are deliberate violations with
# their own expectations and driver.
DENY_ROOTS = ("tools/zka_analyze/tests",)

ALLOW_RE = re.compile(r"zka-lint:\s*allow\(([A-Za-z0-9-]+)\)")

# Rules owned by tools/zka_analyze (AST-level); escapes naming them are
# validated here but their usage is checked by the analyzer itself.
FOREIGN_RULES = {
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10",
    "A11", "A12", "A13", "A14", "A15",
}

TRUST_JSON = REPO / "tools" / "zka_analyze" / "trust.json"


def cxx_files(root: Path):
    if not root.exists():
        return
    for path in sorted(root.rglob("*")):
        if path.suffix in CXX_EXTS and path.is_file():
            rel = path.relative_to(REPO).as_posix()
            if rel.startswith(DENY_ROOTS):
                continue
            yield path


def strip_comments(text: str) -> list[str]:
    """Return the file's lines with // and /* */ comments blanked out.

    Keeps line numbering intact so findings map back to the real file.
    String literals are not parsed; the rule patterns below do not
    plausibly occur inside strings in this codebase.
    """
    out = []
    in_block = False
    for line in text.splitlines():
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            else:
                slash = line.find("//", i)
                block = line.find("/*", i)
                if slash != -1 and (block == -1 or slash < block):
                    result.append(line[i:slash])
                    i = len(line)
                elif block != -1:
                    result.append(line[i:block])
                    in_block = True
                    i = block + 2
                else:
                    result.append(line[i:])
                    i = len(line)
        out.append("".join(result))
    return out


class Rule:
    def __init__(self, name, pattern, message, includes=None, excludes=()):
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message
        self.includes = includes  # None = every scanned C++ file
        self.excludes = excludes

    def applies_to(self, rel: str) -> bool:
        if any(re.search(e, rel) for e in self.excludes):
            return False
        if self.includes is None:
            return True
        return any(re.search(i, rel) for i in self.includes)


RULES = [
    Rule(
        "rng-source",
        r"std::rand\b|\brand\s*\(|\bsrand\s*\(|std::random_device"
        r"|std::mt19937\b|std::default_random_engine\b|std::minstd_rand\b"
        r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)",
        "randomness must come from util/rng (seeded, splittable); "
        "std::rand / random_device / wall-clock seeds are irreproducible",
        excludes=(r"^src/util/rng\.",),
    ),
    Rule(
        "threading-primitives",
        r"#\s*pragma\s+omp\b|\bomp_[a-z_]+\s*\(|std::j?thread\b"
        r"|\bpthread_create\b",
        "parallelism must go through util/thread_pool (fixed-block "
        "deterministic splits, re-entrancy protocol); no raw threads/OpenMP",
        excludes=(r"^src/util/thread_pool\.",),
    ),
    Rule(
        "float32-kernel-precision",
        r"\bdouble\b",
        "GEMM/conv hot-path kernels accumulate in float32 by policy; "
        "double accumulation belongs in the reduce toolkit",
        includes=(
            r"^src/tensor/gemm_kernels",
            r"^src/tensor/ops\.cpp$",
        ),
    ),
    Rule(
        "sort-network-strict-fp",
        r"std::fmin\b|std::fmax\b|\bfminf?\s*\(|\bfmaxf?\s*\(",
        "the column-sort network needs IEEE comparator semantics "
        "(+inf padding, signed-zero order); fmin/fmax have different "
        "NaN behavior than the min/max sweeps it is built on",
        includes=(r"^src/tensor/reduce",),
    ),
    Rule(
        "prof-timing",
        r"std::chrono\b|\bsteady_clock\b|\bsystem_clock\b"
        r"|\bhigh_resolution_clock\b|\bclock_gettime\b|\bgettimeofday\b",
        "library code must not read clocks directly; use util/prof "
        "(ZKA_PROF_SCOPE / util::prof::now_ns), the single switchable "
        "timing source",
        includes=(r"^src/", r"^bench/"),
        excludes=(r"^src/util/prof\.",),
    ),
    Rule(
        "defense-raw-reduce",
        r"\+=\s*[^;=\n]*\*",
        "defense aggregators must not hand-roll multiply-accumulate "
        "loops; use tensor::dot/squared_norm/squared_distance/axpy/"
        "weighted_sum, which own the accumulation order",
        includes=(r"^src/defense/.*\.cpp$",),
    ),
]

# R4's build-file half: the -ffast-math family is banned everywhere (it
# would let the compiler reassociate the fixed-order reductions and
# outlaws the +inf tile padding in the sort network).
FASTMATH_RE = re.compile(r"-ffast-math|-ffinite-math-only|-funsafe-math")


def lint_cxx() -> list[str]:
    findings = []
    known_rules = {r.name for r in RULES}
    # (rel, line_idx, rule) for every escape comment, and the subset that
    # actually suppressed a finding -- the difference is dead weight.
    escapes: list[tuple[str, int, str]] = []
    used_escapes: set[tuple[str, int, str]] = set()
    for root_name in SCAN_ROOTS:
        for path in cxx_files(REPO / root_name):
            rel = path.relative_to(REPO).as_posix()
            raw_lines = path.read_text(encoding="utf-8").splitlines()
            for idx, line in enumerate(raw_lines):
                for name in ALLOW_RE.findall(line):
                    escapes.append((rel, idx, name))
            rules = [r for r in RULES if r.applies_to(rel)]
            if not rules:
                continue
            code_lines = strip_comments("\n".join(raw_lines))
            for idx, code in enumerate(code_lines):
                for rule in rules:
                    if not rule.pattern.search(code):
                        continue
                    suppressed = False
                    for probe in (idx, idx - 1):
                        if 0 <= probe < len(raw_lines) and rule.name in ALLOW_RE.findall(
                            raw_lines[probe]
                        ):
                            used_escapes.add((rel, probe, rule.name))
                            suppressed = True
                    if suppressed:
                        continue
                    findings.append(
                        f"{rel}:{idx + 1}: [{rule.name}] {rule.message}\n"
                        f"    {raw_lines[idx].strip()}"
                    )
    for rel, idx, name in escapes:
        if name in FOREIGN_RULES:
            continue  # usage checked by tools/zka_analyze
        if name not in known_rules:
            findings.append(
                f"{rel}:{idx + 1}: [escape-hygiene] allow({name}) names no "
                f"known rule (R-rules: {', '.join(sorted(known_rules))}; "
                f"AST rules: {', '.join(sorted(FOREIGN_RULES))})"
            )
        elif (rel, idx, name) not in used_escapes:
            findings.append(
                f"{rel}:{idx + 1}: [escape-hygiene] allow({name}) suppresses "
                f"nothing; delete the dead escape"
            )
    return findings


def lint_build_files() -> list[str]:
    findings = []
    build_files = sorted(REPO.rglob("CMakeLists.txt"))
    presets = REPO / "CMakePresets.json"
    if presets.exists():
        build_files.append(presets)
    for path in build_files:
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(("build", ".git")):
            continue
        for idx, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            if FASTMATH_RE.search(line) and "zka-lint: allow" not in line:
                findings.append(
                    f"{rel}:{idx + 1}: [sort-network-strict-fp] the fast-math "
                    f"flag family is banned (reassociates fixed-order "
                    f"reductions, outlaws the sort network's +inf padding)\n"
                    f"    {line.strip()}"
                )
    return findings


def lint_trust_config() -> list[str]:
    """tools/zka_analyze/trust.json must stay anchored to real code: a
    taint source or sanitizer naming a function that no longer exists
    silently turns its A11-A15 coverage off, which is exactly the failure
    mode a trust declaration exists to prevent. Every declared entry,
    parameter name and sanitizer must occur as an identifier somewhere in
    src/, and every sink-scope prefix must match a real path."""
    import json

    rel = TRUST_JSON.relative_to(REPO).as_posix()
    if not TRUST_JSON.exists():
        return [f"{rel}: [trust-config] file is missing"]
    try:
        data = json.loads(TRUST_JSON.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"{rel}: [trust-config] unparseable JSON: {exc}"]

    idents: set[str] = set()
    for path in cxx_files(REPO / "src"):
        idents.update(
            re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text(encoding="utf-8"))
        )

    findings = []

    def check_symbol(name: str, what: str) -> None:
        last = name.rsplit("::", 1)[-1]
        if last not in idents:
            findings.append(
                f"{rel}: [trust-config] {what} '{name}' resolves to no "
                f"identifier in src/; fix the name or delete the entry"
            )

    for src in data.get("sources", []):
        entry = src.get("entry")
        if not entry:
            findings.append(f"{rel}: [trust-config] source without an 'entry'")
            continue
        check_symbol(entry, "source entry")
        if src.get("what") not in (None, "params", "return"):
            findings.append(
                f"{rel}: [trust-config] source '{entry}' has unknown "
                f"what={src['what']!r} (use 'params' or 'return')"
            )
        for pname in src.get("params") or []:
            check_symbol(pname, f"source '{entry}' parameter")
    for sn in data.get("sanitizers", []):
        fn = sn.get("function")
        if not fn:
            findings.append(f"{rel}: [trust-config] sanitizer without a 'function'")
            continue
        check_symbol(fn, "sanitizer")
    scope = data.get("sink_scope") or {}
    for field in ("include", "exclude"):
        for prefix in scope.get(field, []):
            if not (REPO / prefix).exists():
                findings.append(
                    f"{rel}: [trust-config] sink_scope {field} prefix "
                    f"'{prefix}' matches no path in the repo"
                )
    return findings


# R7: the trees whose includes keep a src/ header alive. tests/ is left
# out on purpose: a module reached only by its own test is dead code.
REACH_ROOTS = ["src", "bench", "examples", "roundbench"]
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')


def lint_header_reachability() -> list[str]:
    """R7: flag every src/ header that nothing outside its own module
    includes. A quoted include resolves like the compiler's search: the
    including file's directory first, then src/ (every target's include
    root), so roundbench's own "trace.h" never keeps a src/ header alive."""
    src = REPO / "src"
    reached: set[Path] = set()
    for root_name in REACH_ROOTS:
        for path in cxx_files(REPO / root_name):
            # A header's own .cpp (same directory and stem) does not count
            # as a user of it.
            own_stem = path.resolve().with_suffix("")
            for line in strip_comments(path.read_text(encoding="utf-8")):
                match = INCLUDE_RE.match(line)
                if not match:
                    continue
                for base in (path.parent, src):
                    target = (base / match.group(1)).resolve()
                    if target.is_file():
                        if target.with_suffix("") != own_stem:
                            reached.add(target)
                        break
    findings = []
    for header in cxx_files(src):
        if header.suffix == ".h" and header.resolve() not in reached:
            rel = header.relative_to(REPO).as_posix()
            findings.append(
                f"{rel}:1: [header-reachability] no file under "
                f"{', '.join(r + '/' for r in REACH_ROOTS)} includes this "
                f"header; a module only its tests reach is dead: delete it "
                f"and its test"
            )
    return findings


def main() -> int:
    findings = (
        lint_cxx()
        + lint_build_files()
        + lint_trust_config()
        + lint_header_reachability()
    )
    if findings:
        print(f"check_invariants: {len(findings)} violation(s)\n")
        for f in findings:
            print(f)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
