"""Summary maths of the round benchmark (standard library only).

Pure functions over the raw JSON the roundbench program prints: round-time
percentiles, span self times, thread-pool idle time, output checks and the
end-to-end and per-layer metrics built from them. test_summary.py covers
them on synthetic inputs.
"""

import math
import statistics

# Spans are [name, round, parent, tid, start_ns, end_ns, user_us, sys_us,
# minflt]; the last three are null unless the span was metered.
NAME, ROUND, PARENT, TID, START, END, USER, SYS, MINFLT = range(9)

# Direct children of an fl.round span, one per round stage.
STAGES = {
    "fl.train_phase": "fl.client_train",
    "core.craft": "core.craft",
    "defense.aggregate": "defense.aggregate",
    "fl.eval": "fl.eval",
}

NN_TRAIN_KINDS = ["conv2d", "relu", "maxpool2d", "flatten", "linear", "loss", "sgd"]
NN_EVAL_KINDS = ["conv2d", "relu", "maxpool2d", "flatten", "linear"]


def median(values):
    return statistics.median(values)


def tail_percentile(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n). The value is the sample with exactly
    `beyond` samples ranked above it; its nearest-rank percentile is
    100 * rank / n. Up to 2 * `beyond` samples that sample would not lie
    above the median, so the median is returned as the 50th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * beyond:
        return median(ordered), 50.0, n
    rank = n - beyond  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    return children


def self_time(spans, index, children):
    """A span's duration minus the part of it its child spans cover."""
    s = spans[index]
    kids = [(spans[k][START], spans[k][END]) for k in children.get(index, [])]
    return (s[END] - s[START]) - union_length(kids, s[START], s[END])


def pool_idle_frac(phases, pool_threads):
    """1 - task busy time / (threads x phase wall), over all phases.

    `phases` holds (phase_wall, [task durations]). parallel_for runs a
    phase's tasks on min(pool_threads + 1, tasks) threads: the pool's
    workers plus the calling thread.
    """
    busy = capacity = 0
    for wall, tasks in phases:
        if not tasks:
            continue
        busy += sum(tasks)
        capacity += min(pool_threads + 1, len(tasks)) * wall
    return 1.0 - busy / capacity if capacity > 0 else 0.0


# Final accuracy that any seed must reach: twice chance on the ten Fashion
# classes. A model that does not learn fails; a seed the attack hits hard
# does not (xdev_fedavg_stream reaches 0.50 on some seeds, against 0.68 at
# least on the recorded ones).
ACCURACY_FLOOR = 0.2


def check_outcome(outcome, seed, budget, expect):
    """Checks one run's outputs against the workload's references.

    `expect` is the workload's entry in references.json. A recorded seed
    must reproduce its peak update bytes exactly and its final accuracy
    and DPR within the tolerances. Any other seed is only checked for
    plausibility: accuracy above ACCURACY_FLOOR, DPR in [0, 100] and peak
    bytes within the recorded seeds' range widened by margins. Returns an
    error string or ''.
    """
    if not outcome.get("finite"):
        return "final model is not finite"
    peak = outcome.get("peak_update_bytes", 0)
    if budget and peak > budget:
        return "peak update bytes %d exceed the %d-byte budget" % (peak, budget)
    acc, dpr = outcome.get("accuracy"), outcome.get("dpr")
    if acc is None:
        return "no final accuracy"
    if (dpr is not None) != expect["selects"]:
        return "DPR %r where the workload expects %s" % (
            dpr, "one" if expect["selects"] else "none")
    ref = expect["seeds"].get(str(seed))
    if ref is not None:
        if peak != ref["peak_update_bytes"]:
            return "peak update bytes %d, reference %d" % (peak, ref["peak_update_bytes"])
        if not abs(acc - ref["accuracy"]) <= expect["accuracy_tol"]:
            return "final accuracy %.4f, reference %.4f (tolerance %g)" % (
                acc, ref["accuracy"], expect["accuracy_tol"])
        if dpr is not None and not abs(dpr - ref["dpr"]) <= expect["dpr_tol"]:
            return "DPR %.3f, reference %.3f (tolerance %g)" % (
                dpr, ref["dpr"], expect["dpr_tol"])
        return ""
    lo, hi = expect["peak_range"]
    if not lo <= peak <= hi:
        return "peak update bytes %d outside the workload's range [%d, %d]" % (peak, lo, hi)
    if not acc >= ACCURACY_FLOOR:
        return "final accuracy %.4f below the floor %g" % (acc, ACCURACY_FLOOR)
    if dpr is not None and not 0.0 <= dpr <= 100.0:
        return "DPR %.3f outside [0, 100]" % dpr
    return ""


def compare_outcome(outcome, reference):
    """Same seed, same code, same outputs: model bits, accuracy, DPR and
    peak bytes."""
    for key in ("model_hash", "accuracy", "dpr", "peak_update_bytes"):
        if outcome.get(key) != reference.get(key):
            return "%s differs from the first attempt of the seed (%r != %r)" % (
                key, outcome.get(key), reference.get(key))
    return ""


def attempt_errors(attempts, budget, expect):
    """One error string per attempt ('' = passed). Each attempt is checked
    against the workload's references, and the first attempt of each seed
    that passes is the bitwise reference of the others with that seed."""
    errors = []
    for a in attempts:
        err = a.get("error") or check_outcome(a.get("outcome", {}), a.get("seed"),
                                              budget, expect)
        errors.append(err)
    firsts = {}
    for a, e in zip(attempts, errors):
        if not e:
            firsts.setdefault(a["seed"], a["outcome"])
    for i, a in enumerate(attempts):
        if not errors[i] and a["seed"] in firsts:
            errors[i] = compare_outcome(a["outcome"], firsts[a["seed"]])
    return errors


def fail_frac(errors):
    return sum(1 for e in errors if e) / len(errors) if errors else 1.0


# A round counts as disturbed when the hypervisor stole more than this
# share of the CPU time of the CPUs the process may run on (the "steal"
# column of /proc/stat). Disturbed rounds measure the neighbours, not the
# program.
STEAL_LIMIT = 0.05
# At least this share of the rounds is always kept: the calmest ones.
MIN_KEPT_FRAC = 0.5


def without_steal(wall_ns, steal_ns, cpu_ns):
    """Wall time with the stolen time taken out.

    Steal stretches the wall time of a stretch of work by the stolen time
    divided by the number of CPUs that ran it: the stolen time in full for
    serial work, a share for parallel work. That number averages
    (cpu + stolen) / wall, as the kernel charges the process CPU time
    without the stolen time and an idle CPU has nothing to steal from. The
    wall time without steal is therefore wall * cpu / (cpu + stolen).
    """
    if cpu_ns + steal_ns <= 0:
        return wall_ns
    return wall_ns * cpu_ns / (cpu_ns + steal_ns)


def calm_rounds(rounds, tick_ns, ncpu):
    """Keeps the rounds with little stolen time, and takes that time out.

    `rounds` holds (duration_ns, steal_ticks, cpu_us, ...) tuples, the steal
    counted over the `ncpu` CPUs the process may run on and cpu_us being
    the process's CPU time. Returns the kept rounds, in their order, with
    their durations passed through without_steal, and the share of calm
    ones. When fewer than MIN_KEPT_FRAC of the rounds are calm, the calmest
    MIN_KEPT_FRAC are kept instead.
    """
    if not rounds:
        return [], 0.0
    stolen = [r[1] * tick_ns / (ncpu * r[0]) for r in rounds]
    calm = [i for i, s in enumerate(stolen) if s <= STEAL_LIMIT]
    share = len(calm) / len(rounds)
    if share < MIN_KEPT_FRAC:
        calmest = sorted(range(len(rounds)), key=lambda i: stolen[i])
        calm = sorted(calmest[:math.ceil(MIN_KEPT_FRAC * len(rounds))])
    kept = [rounds[i] for i in calm]
    return [(without_steal(r[0], r[1] * tick_ns, r[2] * 1e3),) + tuple(r[1:])
            for r in kept], share


def steady_rounds(durations, evals):
    """The round times the percentiles cover: all of them when every round
    evaluates, else only those that skip the (rare) evaluation."""
    if all(evals):
        return list(durations)
    return [d for d, e in zip(durations, evals) if not e]


def attempt_rounds(attempt, warmup):
    """(duration_ns, steal_ticks, cpu_us, evaluated) per round after warm-up."""
    rows = zip(attempt["round_ns"], attempt["round_steal"],
               attempt["round_cpu_us"], attempt["eval"])
    return list(rows)[warmup:]


def end_to_end(attempts, warmup):
    """End-to-end metrics from finished untraced attempts of one workload."""
    rows = [r for a in attempts for r in attempt_rounds(a, warmup)]
    first = attempts[0]
    tick_ns, ncpu = 1e9 / first["clock_ticks_per_s"], first["nproc"]
    kept, calm_share = calm_rounds(rows, tick_ns, ncpu)
    # Set-up once per attempt (a cold process each), steal handled as for
    # a round.
    setups, _ = calm_rounds([(a["setup_s"] * 1e9, a["setup_steal"], a["setup_cpu_us"])
                             for a in attempts], tick_ns, ncpu)
    samples = steady_rounds([r[0] for r in kept], [r[3] for r in kept])
    tail, pct, n = tail_percentile(samples)
    return {
        "round_ms_p50": (median(samples) / 1e6, "ms"),
        "round_ms_tail": (tail / 1e6, "ms"),
        "rounds_per_s": (len(kept) / (sum(r[0] for r in kept) / 1e9), "1/s"),
        "cpu_ms_per_round": (sum(r[2] for r in kept) / 1e3 / len(kept), "ms"),
        "setup_s": (median([r[0] for r in setups]) / 1e9, "s"),
        "peak_rss_mib": (median([a["peak_rss_kib"] for a in attempts]) / 1024, "MiB"),
    }, {"round_samples": n, "tail_percentile": pct, "calm_round_share": calm_share}


def per_layer(traced, attempts, warmup, pool_threads):
    """Per-layer metrics from a traced run and untraced attempts of the
    same rounds."""
    spans = traced["spans"]
    kids = children_of(spans)
    timed = lambda s: s[ROUND] >= warmup
    by_name = {}
    for i, s in enumerate(spans):
        if timed(s):
            by_name.setdefault(s[NAME], []).append(i)
    dur = lambda i: spans[i][END] - spans[i][START]
    named = lambda name: by_name.get(name, [])
    rounds = named("fl.round")
    n_rounds = len(rounds)
    round_wall = sum(dur(i) for i in rounds)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    train = named("fl.client_train")
    put("fl.client_train.ms_p50", median([dur(i) for i in train]) / 1e6, "ms")
    put("fl.client_train.busy_ms_per_round", sum(dur(i) for i in train) / 1e6 / n_rounds, "ms")
    put("fl.client_train.calls_per_round", len(train) / n_rounds, "count")
    put("fl.client_train.minflt_per_call", statistics.fmean(spans[i][MINFLT] for i in train), "count")
    cpu = sum(spans[i][USER] + spans[i][SYS] for i in train)
    put("fl.client_train.sys_frac", sum(spans[i][SYS] for i in train) / cpu if cpu else 0.0, "frac")
    put("fl.registry.client_us_p50", median([dur(i) for i in named("fl.registry.client")]) / 1e3, "us")
    evals = named("fl.eval")
    put("fl.eval.ms_per_call", statistics.fmean(dur(i) for i in evals) / 1e6 if evals else 0.0, "ms")
    put("fl.eval.calls_per_round", len(evals) / n_rounds, "count")
    put("fl.round.other_ms", statistics.fmean(self_time(spans, i, kids) for i in rounds) / 1e6, "ms")

    craft = named("core.craft")
    put("core.craft.ms_per_round", sum(dur(i) for i in craft) / 1e6 / n_rounds, "ms")
    put("core.craft.minflt_per_call",
        statistics.fmean(spans[i][MINFLT] for i in craft) if craft else 0.0, "count")

    agg = named("defense.aggregate")
    agg_wall = sum(dur(i) for i in agg)
    agg_cpu_us = sum(spans[i][USER] + spans[i][SYS] for i in agg)
    put("defense.aggregate.ms_per_round", agg_wall / 1e6 / n_rounds, "ms")
    put("defense.aggregate.cpu_per_wall", agg_cpu_us * 1e3 / agg_wall if agg_wall else 0.0, "ratio")
    put("defense.rows_ingested_per_round", statistics.fmean(traced["rows_ingested"][warmup:]), "count")
    put("defense.ingress.repaired_per_round", statistics.fmean(traced["repaired"][warmup:]), "count")
    put("defense.peak_update_bytes", traced["outcome"]["peak_update_bytes"], "B")

    phases = [(dur(p), [dur(k) for k in kids.get(p, [])]) for p in named("fl.train_phase")]
    put("util.pool.idle_frac", pool_idle_frac(phases, pool_threads), "frac")

    for stage, label in STAGES.items():
        put(label + ".round_share", sum(dur(i) for i in named(stage)) / round_wall, "frac")

    # nn: replayed per-batch layer times scaled by the batches counted.
    def scaled(replay, batches, kinds, suffix):
        total = 0.0
        for kind in kinds:
            ms = sum(count * replay[size].get(kind, 0.0) for size, count in batches.items())
            total += ms / n_rounds
            put("nn.%s.%s" % (kind, suffix), ms / n_rounds, "ms")
        return total

    train_ms = scaled(traced["replay_train"], traced["train_batches"], NN_TRAIN_KINDS, "train_ms_per_round")
    scaled(traced["replay_eval"], traced["eval_batches"], NN_EVAL_KINDS, "eval_ms_per_round")
    gen = traced["replay_generator"]
    put("nn.conv_transpose2d.step_ms", gen.get("conv_transpose2d", 0.0), "ms")
    put("nn.tanh.step_ms", gen.get("tanh", 0.0), "ms")
    busy = m["fl.client_train.busy_ms_per_round"][0]
    put("nn.train_coverage", train_ms / busy if busy else 0.0, "ratio")

    counters = traced["counters"]
    put("tensor.gemm.calls_per_round", counters.get("gemm/calls", 0) / n_rounds, "count")
    put("tensor.gemm.gflop_per_round", counters.get("gemm/flops", 0) / 1e9 / n_rounds, "GFLOP")
    put("tensor.gemm.mb_per_round", counters.get("gemm/bytes", 0) / 1e6 / n_rounds, "MB")
    reduce_elems = sum(v for k, v in counters.items()
                       if k.startswith("reduce/") and k.endswith("/elems"))
    put("tensor.reduce.melems_per_round", reduce_elems / 1e6 / n_rounds, "Melem")
    put("prof.dropped_events", traced["dropped_events"], "count")

    put("data.synth_ms", traced["synth_s"] * 1e3, "ms")
    put("data.partition_ms", traced["partition_s"] * 1e3, "ms")

    tick_ns, ncpu = 1e9 / attempts[0]["clock_ticks_per_s"], attempts[0]["nproc"]
    eval_rounds = {spans[i][ROUND] for i in evals}
    traced_rows = [(dur(i), traced["round_steal"][spans[i][ROUND]],
                    traced["round_cpu_us"][spans[i][ROUND]], spans[i][ROUND] in eval_rounds)
                   for i in rounds]
    p50s = []
    untraced_rows = [r for a in attempts for r in attempt_rounds(a, warmup)]
    for rows in (traced_rows, untraced_rows):
        kept, _ = calm_rounds(rows, tick_ns, ncpu)
        p50s.append(median(steady_rounds([r[0] for r in kept], [r[3] for r in kept])))
    put("trace.overhead_frac", p50s[0] / p50s[1] - 1.0, "frac")
    put("trace.coverage", 1.0 - sum(self_time(spans, i, kids) for i in rounds) / round_wall, "frac")
    return m


def chrome_trace(spans):
    """Chrome trace-event JSON object for the spans (load in Perfetto)."""
    t0 = min((s[START] for s in spans), default=0)
    events = []
    for i, s in enumerate(spans):
        args = {"round": s[ROUND], "id": i, "parent": s[PARENT]}
        if s[MINFLT] is not None:
            args.update(user_us=s[USER], sys_us=s[SYS], minflt=s[MINFLT])
        events.append({"name": s[NAME], "ph": "X", "pid": 1, "tid": s[TID],
                       "ts": (s[START] - t0) / 1e3, "dur": (s[END] - s[START]) / 1e3,
                       "args": args})
    return {"displayTimeUnit": "ms", "traceEvents": events}


def is_finite_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)
