#!/usr/bin/env python3
"""Records the reference outputs the round benchmark checks every run against.

    python3 roundbench/make_references.py --seeds 1-15,90017

Run from the repository root. Builds the roundbench program as run.py does,
runs one untraced attempt of every workload for each of the ROTATION
attempt seeds of every given run seed and writes roundbench/references.json,
keyed by attempt seed. Per workload it holds the final accuracy, DPR and
peak update bytes per seed, the tolerances a later run must match accuracy
and DPR within (peak bytes match exactly), and for seeds without a
reference a peak-bytes range around the recorded seeds' (run.py checks
such seeds only for plausibility).

Rerun it only when a change is meant to change what the workloads compute,
and say so where the change is described.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

# Tolerances per workload. A change that only reorders float arithmetic
# (the generic GEMM tier instead of the FMA ones, a fused kernel) moves the
# cross-device workloads' final accuracy by a few test images at most. On
# paper_zkag_mkrum it flips mKrum's selection in a few rounds: over run
# seeds 1-3 the generic tier moved the DPR by up to 8.2 points and the
# final accuracy by up to 0.077 (one seed; 0.003 or less on the others).
# A broken aggregator, model or attack moves them further.
TOLERANCES = {
    "paper_zkag_mkrum": {"accuracy_tol": 0.1, "dpr_tol": 15.0},
    "xdev_fedavg_stream": {"accuracy_tol": 0.02, "dpr_tol": 0.0},
    "xdev_bulyan_exact": {"accuracy_tol": 0.02, "dpr_tol": 5.0},
}
# Seeds without a reference must keep their peak update bytes within
# [min / 2, max * (1 + PEAK_MARGIN)] of the recorded seeds': the cohort
# fixes the bytes up to the number of attackers sampled.
PEAK_MARGIN = 0.05


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="run seeds, e.g. 1-15,90017")
    parser.add_argument("--workload", choices=run.WORKLOADS,
                        help="re-record only this workload's entry")
    args = parser.parse_args()
    run.build()
    env = run.pool_env()
    path = os.path.join(HERE, "references.json")
    refs = {}
    if args.workload:
        with open(path) as f:
            refs = json.load(f)
    for workload in [args.workload] if args.workload else run.WORKLOADS:
        seeds = {}
        for seed in [run.attempt_seed(s, k) for s in seed_list(args.seeds)
                     for k in range(run.ROTATION)]:
            a = run.launch(workload, seed, "attempt", env, run.DEADLINE_S)
            o = a.get("outcome", {})
            if a.get("error") or not o.get("finite"):
                raise SystemExit("%s seed %d failed: %s" % (workload, seed, a.get("error")))
            seeds[str(seed)] = {k: o[k] for k in ("accuracy", "dpr", "peak_update_bytes")}
            print(workload, seed, seeds[str(seed)], flush=True)
        peaks = [r["peak_update_bytes"] for r in seeds.values()]
        refs[workload] = dict(
            TOLERANCES[workload],
            gemm_tier=a["gemm_tier"],
            selects=any(r["dpr"] is not None for r in seeds.values()),
            peak_range=[min(peaks) // 2, int(max(peaks) * (1 + PEAK_MARGIN))],
            seeds=seeds,
        )
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
