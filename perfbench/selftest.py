#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  It checks that

* installing the tracer replaces every binding of a wrapped function and
  uninstalling restores them;
* kernel metrics are left out, not reported as zero, when
  ``schur._coset_kernel`` is missing;
* each traced workload reports every per-layer metric, each layer is
  nonzero on the workload where it should move the end-to-end metrics,
  and segre-windows builds no coset kernel;
* two traced runs with the same seed give identical counts.

Each traced run is a fresh ``run.py --trace 1`` process.  Exit code 0 means
every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer, PER_LAYER, KERNEL_METRICS  # noqa: E402

# metric -> workloads on which it must be nonzero (README, layer table)
NONZERO = {
    "schur.kernel.builds": ("families-cold", "pushforward-warm"),
    "schur.kernel.s": ("families-cold", "pushforward-warm"),
    "schur.kernel.terms": ("families-cold", "pushforward-warm"),
    "schur.kernel.hit_ratio": ("pushforward-warm",),
    "schur.symmetrize.calls": ("pushforward-warm",),
    "schur.symmetrize.s": ("pushforward-warm",),
    "schur.cosets": ("pushforward-warm",),
    "schur.products.s": ("pushforward-warm",),
    "schur.vandermonde.s": ("pushforward-warm",),
    "ring.mul.calls": ("families-cold", "pushforward-warm", "segre-windows"),
    "ring.mul.s": ("families-cold", "pushforward-warm", "segre-windows"),
    "ring.mul.pairs": ("families-cold", "pushforward-warm", "segre-windows"),
    "ring.mul.terms_out": ("families-cold", "pushforward-warm", "segre-windows"),
    "ring.mul.kept_ratio": ("families-cold", "pushforward-warm", "segre-windows"),
    "ring.divide.calls": ("pushforward-warm",),
    "ring.divide.s": ("pushforward-warm",),
    "ring.invert.calls": ("pushforward-warm",),
    "ring.invert.s": ("pushforward-warm",),
    "ring.permute.s": ("pushforward-warm",),
    "ring.add.s": ("pushforward-warm", "segre-windows"),
    "ring.substitute.s": ("families-cold",),
    "fgl.init.calls": ("families-cold", "segre-windows"),
    "fgl.init.s": ("families-cold", "segre-windows"),
    "fgl.a_coefficient.calls": ("segre-windows",),
    "fgl.a_coefficient.s": ("segre-windows",),
    "fgl.formal_sum.calls": ("families-cold", "segre-windows"),
    "fgl.formal_sum.s": ("families-cold", "segre-windows"),
    "fgl.pair_unit_inverse.calls": ("families-cold",),
    "fgl.pair_unit_inverse.s": ("families-cold",),
    "gysin.pushforward.calls": ("pushforward-warm",),
    "gysin.pushforward.s": ("pushforward-warm",),
    "gysin.segre.calls": ("segre-windows",),
    "gysin.segre.s": ("segre-windows",),
    "gysin.residue.calls": ("segre-windows",),
    "gysin.residue.s": ("segre-windows",),
    "cli.main.s": ("families-cold", "segre-windows"),
    "output.terms": ("families-cold", "pushforward-warm", "segre-windows"),
    "trace_overhead": ("families-cold", "pushforward-warm", "segre-windows"),
}


def check_bindings(failures):
    import cobschur
    import cobschur.cli
    from cobschur import gysin, schur, suites
    from cobschur.ring import Series
    originals = (schur.symmetrize, Series.__add__, Series.__mul__)
    tracer = Tracer()
    tracer.install(cobschur)
    try:
        wrapped = schur.symmetrize
        if not hasattr(wrapped, "__wrapped__"):
            failures.append("schur.symmetrize is not wrapped")
        for holder in (gysin, suites, cobschur):
            if holder.symmetrize is not wrapped:
                failures.append("%s.symmetrize escaped the tracer" % holder.__name__)
        if Series.__radd__ is not Series.__add__ or Series.__rmul__ is not Series.__mul__:
            failures.append("Series.__radd__/__rmul__ escaped the tracer")
        if tracer.missing:
            failures.append("targets not found: %s" % tracer.missing)
    finally:
        tracer.uninstall()
    if (schur.symmetrize, Series.__add__, Series.__mul__) != originals:
        failures.append("uninstall did not restore the originals")

    probe = Tracer()
    probe.missing.append("schur._coset_kernel")
    if any(name in probe.metrics() for name in KERNEL_METRICS):
        failures.append("kernel metrics reported although _coset_kernel is absent")


def traced(workload, seed):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, p.returncode, p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, \
        {k: v["unit"] for k, v in result["metrics"].items()}


def check_workload(workload, seed, failures):
    first, units = traced(workload, seed)
    second, _ = traced(workload, seed)
    missing = [m for m in PER_LAYER if m not in first]
    if missing:
        failures.append("%s: per-layer metrics missing: %s" % (workload, missing))
    for name, workloads in NONZERO.items():
        if workload in workloads and not first.get(name):
            failures.append("%s: %s is zero" % (workload, name))
    if workload == "segre-windows" and first.get("schur.kernel.builds") != 0:
        failures.append("segre-windows built %s kernels" % first.get("schur.kernel.builds"))
    if workload == "families-cold":
        if first["schur.kernel.s"] < 0.5 * first["schur.symmetrize.s"]:
            failures.append("families-cold: kernel builds do not dominate symmetrize")
        if first["schur.kernel.hit_ratio"] > 0.1:
            failures.append("families-cold: kernel hit ratio %.3f, expected about 0"
                            % first["schur.kernel.hit_ratio"])
    if workload == "pushforward-warm" and first["schur.kernel.hit_ratio"] < 0.8:
        failures.append("pushforward-warm: kernel hit ratio %.3f, expected near 1"
                        % first["schur.kernel.hit_ratio"])
    for name, unit in units.items():
        if unit != "s" and name != "trace_overhead" and first[name] != second[name]:
            failures.append("%s: %s differs between runs (%r vs %r)"
                            % (workload, name, first[name], second[name]))
    print("%s: %d metrics, counts repeat: %s" % (
        workload, len(first),
        all(first[n] == second[n] for n, u in units.items()
            if u != "s" and n != "trace_overhead")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    failures = []
    check_bindings(failures)
    for workload in ("families-cold", "pushforward-warm", "segre-windows"):
        check_workload(workload, args.seed, failures)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
