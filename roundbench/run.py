#!/usr/bin/env python3
"""Round benchmark: whole FL rounds of three workloads, end to end and by layer.

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
roundbench package (roundbench/CMakeLists.txt, which compiles ../src) into
.bench_build/roundbench.

--trace 0  launches untraced attempts of the workload, one process each,
           over ROTATION input sets derived from N, until S seconds are
           spent (at least ROTATION), checks every attempt's outputs against
           roundbench/references.json and prints the end-to-end metrics.
--trace 1  launches one traced run of the first input set, then untraced
           attempts of the same rounds until S seconds are spent (at least one), checks that the
           traced run ends in the same model as the attempts bit for bit and
           prints the per-layer metrics; the spans are written as a Chrome
           trace under .bench_build/roundbench/traces/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric with
its unit and the machine facts; a fuller report (sample counts, tail
percentile, fail_frac, errors) goes to .bench_build/roundbench/reports/.
See roundbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark directory unchanged
import summary  # noqa: E402

WORKLOADS = ("paper_zkag_mkrum", "xdev_fedavg_stream", "xdev_bulyan_exact")
# Seed kept out of every run made while tuning the benchmark or a change;
# a claimed gain is confirmed on it (choosing-metrics, section 6.3).
HELD_OUT_SEED = 90017
# A run measures ROTATION input sets: attempt k runs seed
# attempt_seed(seed, k), so a run's figures average over several data
# partitions and client samplings instead of following one seed's. One
# seed's rounds_per_s and cpu_ms_per_round sit up to 10% off the median
# seed's (paper_zkag_mkrum, whose Dirichlet partition and rare
# attacker-free rounds change the work per round).
ROTATION = 4
MIN_ATTEMPTS = ROTATION
MAX_ATTEMPTS = 40
# Whole-run guard: a run ends within 180 s.
DEADLINE_S = 170.0

BUILD_DIR = os.path.join(ROOT, ".bench_build", "roundbench")
BINARY = os.path.join(BUILD_DIR, "roundbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("roundbench: no repository sources at %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "roundbench",
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit("roundbench: build step failed: " + " ".join(cmd))


def nproc():
    return len(os.sched_getaffinity(0))


def pool_env():
    """ZKA_THREADS for the roundbench program, nproc unless set; the program
    refuses a pool larger than nproc."""
    env = dict(os.environ)
    env.setdefault("ZKA_THREADS", str(nproc()))
    return env


def load_references(workload):
    """The workload's entry in references.json (see make_references.py)."""
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)[workload]


def attempt_seed(seed, k):
    """The seed attempt k of a run with --seed `seed` runs."""
    return seed * ROTATION + k % ROTATION


def launch(workload, seed, mode, env, timeout):
    """Runs one roundbench process; returns its JSON or an error record."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "%s process timed out" % mode}
    if proc.returncode == 2:  # refused its arguments or environment
        raise SystemExit(proc.stderr.strip())
    if proc.returncode != 0:
        return {"error": "%s process exited %d: %s"
                % (mode, proc.returncode, proc.stderr.strip()[-500:])}
    return json.loads(proc.stdout)


def revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_attempts(args, env, expect, started, min_attempts, rotate):
    """Launches untraced attempts until the run's seconds are spent, over
    the run's input sets when `rotate`, else all of the first, and checks
    their outputs. Returns (attempts, errors, finished)."""
    attempts = []
    longest = 0.0
    while len(attempts) < min_attempts or (
            len(attempts) < MAX_ATTEMPTS and time.monotonic() - started + longest <= args.seconds):
        t = time.monotonic()
        seed = attempt_seed(args.seed, len(attempts) if rotate else 0)
        attempts.append(launch(args.workload, seed, "attempt", env,
                               DEADLINE_S - (t - started)))
        longest = max(longest, time.monotonic() - t)
    first = next((a for a in attempts if "round_ns" in a), None)
    budget = first["memory_budget_bytes"] if first else 0
    errors = summary.attempt_errors(attempts, budget, expect)
    # Attempts that ran to the end are timed even when their outputs fail
    # the checks; the failures show in correct/failed.
    finished = [a for a in attempts if "round_ns" in a and not a["error"]]
    if not finished:
        raise SystemExit("roundbench: no attempt finished: %s" % errors)
    return attempts, errors, finished


def run_plain(args, env, expect, started):
    attempts, errors, finished = run_attempts(args, env, expect, started, MIN_ATTEMPTS,
                                              rotate=True)
    metrics, extra = summary.end_to_end(finished, finished[0]["warmup_rounds"])
    extra.update(attempts=len(attempts), fail_frac=summary.fail_frac(errors))
    return attempts, errors, metrics, extra


def run_traced(args, env, expect, started):
    traced = launch(args.workload, attempt_seed(args.seed, 0), "traced", env, DEADLINE_S)
    if traced.get("error"):
        raise SystemExit("roundbench: traced run failed: %s" % traced["error"])
    # Untraced attempts of the same seed fill the rest of the run: the
    # overhead baseline and the bitwise reference (the first that passes
    # its checks).
    attempts, errors, finished = run_attempts(args, env, expect, started, 1, rotate=False)
    reference = next((a for a, e in zip(attempts, errors) if not e), finished[0])
    budget = reference["memory_budget_bytes"]
    # A parity mismatch invalidates the per-layer numbers (correct: false)
    # but they are still reported, trace.overhead_frac and trace.coverage
    # included.
    parity = (summary.check_outcome(traced["outcome"], traced["seed"], budget, expect)
              or summary.compare_outcome(traced["outcome"], reference["outcome"]))
    errors.append(parity)
    metrics = summary.per_layer(traced, finished, traced["warmup_rounds"],
                                traced["pool_threads"])
    metrics["trace.parity"] = (0.0 if parity else 1.0, "bool")
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    with open(trace_path, "w") as f:
        json.dump(summary.chrome_trace(traced["spans"]), f)
    extra = {"attempts": len(attempts), "fail_frac": summary.fail_frac(errors),
             "chrome_trace": trace_path, "parity_error": parity}
    return [traced] + attempts, errors, metrics, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    build()
    expect = load_references(args.workload)
    env = pool_env()
    runner = run_traced if args.trace else run_plain
    runs, errors, metrics, extra = runner(args, env, expect, started)
    extra["seed_has_reference"] = all(str(attempt_seed(args.seed, k)) in expect["seeds"]
                                      for k in range(ROTATION))

    facts = {
        "nproc": nproc(),
        "pool_threads": runs[0].get("pool_threads"),
        "zka_threads": env["ZKA_THREADS"],
        "gemm_tier": runs[0].get("gemm_tier"),
        "git_revision": revision(),
        "held_out_seed": HELD_OUT_SEED,
    }
    for name, (value, unit) in metrics.items():
        if not summary.is_finite_number(value):
            raise SystemExit("roundbench: metric %s is not a finite number" % name)
        print("%-40s %16.6g %s" % (name, value, unit))
    for key, value in sorted({**facts, **extra}.items()):
        print("%-40s %s" % (key, value))
    for i, err in enumerate(errors):
        if err:
            print("run %d failed: %s" % (i, err))

    report_dir = os.path.join(BUILD_DIR, "reports")
    os.makedirs(report_dir, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "facts": facts, "extra": extra, "errors": errors,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(report_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1)

    failed = sum(1 for e in errors if e)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(errors),
        "failed": failed,
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
