#!/usr/bin/env python3
"""cobschur benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  Each workload drives cobschur through its public entry
points from one process and one thread, as a closed loop with one client.

--trace 0  measures the end-to-end metrics with tracing off.  Passes of
           the seeded workload run until at least S seconds of operations
           and at least the workload's min_ops operations are done; every
           pass is whole.
--trace 1  runs the seed's first pass once untraced and once traced (set-up
           included) and reports the per-layer metrics of the traced run,
           with trace_overhead = traced wall / untraced wall.  The work is
           fixed by the seed, so every count repeats exactly.

Every operation is checked against a reference outside the timed region.
A detail line with provenance goes to stdout before the result; the last
line of stdout is the result object.  Any failed operation makes the exit
code 1.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The tail is the highest percentile with at least ten samples beyond it
# at 40 samples, the least any workload takes; it stays fixed when a faster
# program fits more samples into a run, so two commits report the same
# percentile.
TAIL_PERCENTILE = 75
# Seconds _calibration_loop takes on the reference machine (2-vCPU Intel
# Xeon, CPython 3.11, when its neighbours are quiet).  Every timed interval
# is reported in seconds at that speed; see timed().
CAL_REF_S = 0.0055
CAL_TERMS = 160

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)


def load_program():
    """Import cobschur from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cobschur", "__init__.py")):
        sys.exit("perfbench: no cobschur sources under src/ of this checkout")
    sys.path.insert(0, SRC)
    import cobschur
    import cobschur.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cobschur.__file__))) != SRC:
        sys.exit("perfbench: cobschur was not imported from src/ of this checkout")
    return cobschur


def _rank(n):
    """1-based nearest rank of TAIL_PERCENTILE among n samples."""
    return max(1, -(-n * TAIL_PERCENTILE // 100))


def provenance(threads_found):
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        sha = ref
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += sum(1 for _ in f)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "src_lines": src_lines, "COBSCHUR_THREADS_found": threads_found}


def _calibration_loop():
    """A fixed sparse product of packed-int monomials: the engine's hot loop."""
    rng = random.Random(5)
    a = {rng.getrandbits(40): rng.randint(1, 9) for _ in range(CAL_TERMS)}
    b = {rng.getrandbits(40): rng.randint(-9, -1) for _ in range(CAL_TERMS)}
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka + kb) >> 3
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def calibrate():
    """Seconds one calibration loop takes now (median of three)."""
    ts = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def timed(fn, *args):
    """Run fn(*args); return (result, reference seconds, raw seconds).

    The raw interval is scaled by CAL_REF_S over the mean of calibration
    times taken just before and just after it, which converts it to
    seconds at the reference machine's speed.
    """
    gc.collect()
    before = calibrate()
    t0 = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - t0
    after = calibrate()
    return out, raw * CAL_REF_S / ((before + after) / 2), raw


def _attempt(wl, state, op):
    try:
        return wl.run(state, op)
    except Exception as exc:                       # counted as a failed op
        print("perfbench: operation raised %r: %r" % (op, exc), file=sys.stderr)
        return None


def run_pass(wl, state, ops, tracer=None):
    """Time each op, then check every output outside the timing.

    Returns (reference latencies, raw latencies, failures, output terms).
    """
    outputs, latencies, raws = [], [], []
    for op in ops:
        out, dt, raw = timed(_attempt, wl, state, op)
        latencies.append(dt)
        raws.append(raw)
        if tracer is not None:
            tracer.end_op()
        outputs.append((op, out))
    if tracer is not None:
        tracer.on = False
    failures = terms = 0
    for op, out in outputs:
        if out is not None and wl.check(op, out, outputs):
            terms += wl.output_terms(out)
        else:
            failures += 1
            print("perfbench: check failed: %r" % (op,), file=sys.stderr)
    return latencies, raws, failures, terms


def measure(wl, seed, seconds):
    rng = random.Random(seed)
    setups, setups_raw = [], []
    for _ in range(wl.setup_repeats):
        state = None                    # one set-up's state alive at a time
        state, dt, raw = timed(wl.setup)
        setups.append(dt)
        setups_raw.append(raw)
    latencies, raws, walls, failed = [], [], [], 0
    while sum(raws) < seconds or len(latencies) < wl.min_ops:
        lat, raw, fails, _ = run_pass(wl, state, wl.make_pass(rng))
        latencies += lat
        raws += raw
        walls.append(sum(lat))
        failed += fails
    attempted = len(latencies)
    rank = _rank(attempted)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (attempted / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (sorted(latencies)[rank - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"passes": len(walls), "samples": attempted,
              "failed_frac": failed / attempted,
              "op_tail_percentile": TAIL_PERCENTILE,
              "op_tail_samples_beyond": attempted - rank,
              "raw": {"setup_s": statistics.median(setups_raw),
                      "ops_per_s": attempted / sum(raws),
                      "op_p50_s": statistics.median(raws),
                      "spent_s": sum(raws)},
              "setup_runs_s": setups}
    return attempted, failed, metrics, detail


def measure_traced(wl, seed, cobschur):
    from spans import Tracer, PER_LAYER
    ops = wl.make_pass(random.Random(seed))
    state, setup_s, _ = timed(wl.setup)
    lat, _, failed, _ = run_pass(wl, state, ops)
    untraced = setup_s + sum(lat)
    state = None

    tracer = Tracer()
    tracer.install(cobschur)
    try:
        tracer.on = True
        state, setup_s, _ = timed(wl.setup)
        tracer.end_op()
        lat2, _, failed2, terms = run_pass(wl, state, ops, tracer)
    finally:
        tracer.on = False
        tracer.uninstall()
    traced = setup_s + sum(lat2)
    values = tracer.metrics()
    values["output.terms"] = terms
    values["trace_overhead"] = traced / untraced
    units = {}
    for name in values:
        if name.endswith(".s"):
            units[name] = "s"
        elif name.endswith(("_ratio", "_frac")) or name == "trace_overhead":
            units[name] = "ratio"
        else:
            units[name] = "count"
    metrics = {name: (values[name], units[name]) for name in PER_LAYER
               if name in values}
    detail = {"absent": tracer.missing, "untraced_wall_s": untraced,
              "traced_wall_s": traced, "ops": len(ops)}
    return len(lat) + len(lat2), failed + failed2, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # measure the program's default thread setting
    threads_found = os.environ.pop("COBSCHUR_THREADS", None)
    cobschur = load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(sorted(WORKLOADS))))
    wl = WORKLOADS[args.workload](cobschur)
    if args.trace:
        attempted, failed, metrics, detail = measure_traced(wl, args.seed, cobschur)
    else:
        attempted, failed, metrics, detail = measure(wl, args.seed, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=provenance(threads_found))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
