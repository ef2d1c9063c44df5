#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py --base REV --head REV --out BENCH_6.json \
        [--seeds 601-610]

Both revisions are exported with ``git archive`` into a scratch directory,
and ``perfbench/run.py`` runs from each export, so each side imports only
its own ``src/``.  Every workload in ``BENCHMARK.json`` runs for its
``run_seconds``.  For every workload and seed the two sides run back to
back, base first on even pairs and head first on odd ones, so drift in
the machine's speed falls on both sides alike.  One ``--trace 1`` run per
side and workload, on seed ``TRACE_SEED``, adds the per-layer rows.

After the workloads, ``tests/test_acceptance.py`` runs once per side, and
each criterion's seconds are read off its ``ACCEPTANCE`` lines.

The output file holds, per workload and end-to-end metric, the medians and
quartiles of each side, the head's wins over the base pair by pair, and
the gap between medians in units of the base's interquartile range; the
failed and attempted operation counts; the trace rows; the criterion
seconds; the ``src/`` line counts, the SHAs and the machine.  Only the
standard library is used.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEED = 3
# "ACCEPTANCE  6 [pass] gysin-functoriality: 30/30 checks, 7.0s (budget 300s)"
ACCEPTANCE = re.compile(r"ACCEPTANCE +(\d+) \[\w+\] ([\w-]+): .*, ([\d.]+)s \(budget")


def git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the tree of ``rev`` into ``dest`` with git archive."""
    os.makedirs(dest)
    archive = subprocess.run(("git", "archive", rev), cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", dest), input=archive, check=True)


def src_lines(tree):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def run(tree, workload, seed, seconds, trace):
    """One run.py invocation; returns its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        # no result line: count the run as one failed operation
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def acceptance(tree):
    """Run the acceptance gate once; per criterion, the seconds of each run."""
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "tests/test_acceptance.py"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    seconds = {}
    for line in proc.stdout.splitlines():
        m = ACCEPTANCE.search(line)
        if m:
            key = "%02d %s" % (int(m.group(1)), m.group(2))
            seconds.setdefault(key, []).append(float(m.group(3)))
    return {"exit_code": proc.returncode, "seconds": seconds}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better):
    """Per-metric medians, quartiles and pairwise wins of head over base."""
    out = {}
    for name, direction in better.items():
        both = [(p["base"]["metrics"][name]["value"], p["head"]["metrics"][name]["value"])
                for p in pairs
                if name in p["base"]["metrics"] and name in p["head"]["metrics"]]
        if not both:
            continue
        base, head = [b for b, _ in both], [h for _, h in both]
        sign = 1 if direction == "higher" else -1
        bq, hq = quartiles(base), quartiles(head)
        iqr = bq[2] - bq[0]
        gap = sign * (hq[1] - bq[1])
        out[name] = {
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
            "head": {"q1": hq[0], "median": hq[1], "q3": hq[2]},
            "better": direction,
            "head_wins": sum(1 for b, h in zip(base, head) if sign * (h - b) > 0),
            "pairs": len(base),
            "change": hq[1] / bq[1] - 1 if bq[1] else None,
            "gap_over_base_iqr": gap / iqr if iqr else None,
        }
    return out


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--head", required=True, help="changed revision")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seeds", default="601-610", help="LO-HI or a,b,c")
    args = ap.parse_args(argv)

    shas = {side: git("rev-parse", rev) for side, rev in
            (("base", args.base), ("head", args.head))}
    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {side: os.path.join(scratch, side) for side in shas}
        for side, tree in trees.items():
            export(shas[side], tree)
        with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        seconds = bench["run_seconds"]
        seeds = parse_seeds(args.seeds)
        report = {"shas": shas, "machine": machine(), "seeds": seeds,
                  "seconds": seconds, "trace_seed": TRACE_SEED,
                  "src_lines": {side: src_lines(t) for side, t in trees.items()},
                  "workloads": {}}
        for workload in [w["name"] for w in bench["workloads"]]:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, seconds, 0)
                    print("%s seed %d %s: %s" % (
                        workload, seed, side,
                        {k: round(v["value"], 4)
                         for k, v in pair[side]["metrics"].items()}),
                        file=sys.stderr)
                pairs.append(pair)
            traces = {side: run(trees[side], workload, TRACE_SEED, seconds, 1)
                      for side in trees}
            report["workloads"][workload] = {
                "metrics": summarize(pairs, better),
                "failed": {side: sum(p[side]["failed"] for p in pairs)
                           for side in trees},
                "attempted": {side: sum(p[side]["attempted"] for p in pairs)
                              for side in trees},
                "nonzero_exits": {side: sum(1 for p in pairs if p[side]["exit_code"])
                                  for side in trees},
                "trace": {name: {side: traces[side]["metrics"].get(name, {}).get("value")
                                 for side in trees}
                          for name in sorted(set(traces["base"]["metrics"])
                                             | set(traces["head"]["metrics"]))},
                "runs": [{"seed": p["seed"], "first": p["first"],
                          "base": {k: v["value"] for k, v in p["base"]["metrics"].items()},
                          "head": {k: v["value"] for k, v in p["head"]["metrics"].items()}}
                         for p in pairs],
            }
        report["acceptance"] = {side: acceptance(trees[side]) for side in trees}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
