#!/usr/bin/env python3
"""Compare two BENCH_*.json files (schema zka-bench-v1) with a tolerance.

Usage:
  tools/bench_diff.py BASELINE.json CANDIDATE.json [--tolerance 0.10]
      [--metric-tolerance 0.0] [--missing-ok]
  tools/bench_diff.py --validate FILE.json [FILE.json ...]

Compare mode exits 1 when any shared label's ns/op mean regressed by more
than --tolerance (relative), or when a metric differs by more than
--metric-tolerance (relative; only checked when the flag is given a value
> 0 — domain metrics such as ASR are stochastic at bench scale). Labels
present in only one file are reported; with --missing-ok they do not fail
the comparison. A label introduced by the change under test should be
declared with --seed-label: it is reported as seeded and never fails,
without loosening the check for every other unshared label the way
--missing-ok does.

Validate mode checks the zka-bench-v1 schema shape and exits 1 on the
first malformed file. A file whose prof block reports dropped_events > 0
next to a non-empty summary is malformed too: the summary is rebuilt
from event rings that wrapped, so its counts and percentiles undercount.
Files written before the field existed (no dropped_events) validate.
No third-party dependencies.
"""

import argparse
import json
import sys

SCHEMA = "zka-bench-v1"
NS_KEYS = ("mean", "min", "max", "p50", "stddev")


def fail(msg: str) -> None:
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: {exc}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level value is not an object")
    return doc


def validate(path: str, doc: dict) -> None:
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key, kind in (("bench", str), ("git_rev", str), ("config", dict),
                      ("entries", list), ("prof", dict)):
        if not isinstance(doc.get(key), kind):
            fail(f"{path}: missing or mistyped field {key!r}")
    for i, entry in enumerate(doc["entries"]):
        where = f"{path}: entries[{i}]"
        if not isinstance(entry, dict) or not isinstance(
                entry.get("label"), str):
            fail(f"{where}: missing label")
        ns = entry.get("ns_op")
        if not isinstance(ns, dict):
            fail(f"{where}: missing ns_op")
        for key in NS_KEYS:
            if not isinstance(ns.get(key), (int, float)):
                fail(f"{where}: ns_op.{key} missing or not a number")
        if "metrics" in entry and not isinstance(entry["metrics"], dict):
            fail(f"{where}: metrics is not an object")
    prof = doc["prof"]
    if not isinstance(prof.get("counters"), dict) or not isinstance(
            prof.get("summary"), list):
        fail(f"{path}: prof block malformed")
    dropped = prof.get("dropped_events", 0)
    if isinstance(dropped, bool) or not isinstance(dropped, int) or \
            dropped < 0:
        fail(f"{path}: prof.dropped_events is not a non-negative integer")
    if dropped > 0 and prof["summary"]:
        fail(f"{path}: prof.summary undercounts: {dropped} profiler "
             f"event(s) were dropped when the event rings wrapped")


def entries_by_label(doc: dict) -> dict:
    out = {}
    for entry in doc["entries"]:
        out[entry["label"]] = entry
    return out


def rel_delta(base: float, cand: float) -> float:
    if base == 0.0:
        return 0.0 if cand == 0.0 else float("inf")
    return (cand - base) / abs(base)


def compare(args: argparse.Namespace) -> int:
    base_doc, cand_doc = load(args.baseline), load(args.candidate)
    validate(args.baseline, base_doc)
    validate(args.candidate, cand_doc)
    if base_doc["bench"] != cand_doc["bench"]:
        fail(f"bench names differ: {base_doc['bench']!r} vs "
             f"{cand_doc['bench']!r}")
    if base_doc["config"] != cand_doc["config"]:
        print("bench_diff: WARNING: configs differ; timings may not be "
              "comparable", file=sys.stderr)
        for key in sorted(set(base_doc["config"]) | set(cand_doc["config"])):
            b = base_doc["config"].get(key)
            c = cand_doc["config"].get(key)
            if b != c:
                print(f"  config.{key}: {b!r} -> {c!r}", file=sys.stderr)

    base, cand = entries_by_label(base_doc), entries_by_label(cand_doc)
    failures = []
    seed_labels = frozenset(args.seed_label)
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base) - seed_labels)
    for label in only_base:
        print(f"  only in baseline:  {label}")
    for label in only_cand:
        print(f"  only in candidate: {label}")
    for label in sorted((set(cand) - set(base)) & seed_labels):
        print(f"  seeded (new benchmark): {label}")
    for label in sorted(seed_labels & set(base)):
        print(f"bench_diff: WARNING: --seed-label {label} already exists "
              f"in the baseline; it is compared normally", file=sys.stderr)
    if (only_base or only_cand) and not args.missing_ok:
        failures.append(f"{len(only_base) + len(only_cand)} label(s) not "
                        "shared (pass --missing-ok to allow, or "
                        "--seed-label for benchmarks this change adds)")

    for label in sorted(set(base) & set(cand)):
        b_ns = base[label]["ns_op"]["mean"]
        c_ns = cand[label]["ns_op"]["mean"]
        delta = rel_delta(b_ns, c_ns)
        marker = ""
        if delta > args.tolerance:
            marker = "  REGRESSION"
            failures.append(
                f"{label}: ns/op mean {b_ns:.0f} -> {c_ns:.0f} "
                f"(+{delta * 100.0:.1f}% > {args.tolerance * 100.0:.1f}%)")
        print(f"  {label}: ns/op {b_ns:.0f} -> {c_ns:.0f} "
              f"({delta * 100.0:+.1f}%){marker}")
        if args.metric_tolerance > 0.0:
            b_m = base[label].get("metrics", {})
            c_m = cand[label].get("metrics", {})
            for key in sorted(set(b_m) & set(c_m)):
                if b_m[key] is None or c_m[key] is None:
                    continue
                m_delta = abs(rel_delta(b_m[key], c_m[key]))
                if m_delta > args.metric_tolerance:
                    failures.append(
                        f"{label}: metric {key} {b_m[key]:.4f} -> "
                        f"{c_m[key]:.4f} (|{m_delta * 100.0:.1f}%| > "
                        f"{args.metric_tolerance * 100.0:.1f}%)")

    if failures:
        print(f"\nbench_diff: FAIL ({len(failures)} issue(s)):")
        for item in failures:
            print(f"  - {item}")
        return 1
    print(f"\nbench_diff: OK ({len(set(base) & set(cand))} label(s) within "
          f"{args.tolerance * 100.0:.1f}%)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+",
                        help="baseline + candidate, or files to --validate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative ns/op regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--metric-tolerance", type=float, default=0.0,
                        help="allowed relative metric drift; 0 disables "
                             "metric checks (default)")
    parser.add_argument("--missing-ok", action="store_true",
                        help="labels present in only one file do not fail")
    parser.add_argument("--seed-label", nargs="+", default=[],
                        metavar="LABEL",
                        help="benchmark labels introduced by this change: "
                             "candidate-only by construction, never a "
                             "failure")
    parser.add_argument("--validate", action="store_true",
                        help="only check schema validity of the given files")
    args = parser.parse_args()

    if args.validate:
        for path in args.files:
            validate(path, load(path))
            print(f"bench_diff: {path}: valid {SCHEMA}")
        return 0
    if len(args.files) != 2:
        parser.error("compare mode takes exactly BASELINE and CANDIDATE")
    args.baseline, args.candidate = args.files
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
