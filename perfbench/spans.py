"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the cobschur layers with
timing wrappers.  A function can be bound under several names (the
symmetrizer is imported by name into ``gysin`` and ``suites`` and
re-exported by the package; ``Series.__radd__`` is ``__add__``), so every
attribute of every loaded cobschur module or class that holds the
original function object is replaced.  ``uninstall`` puts them back.

Each call is a span with a name, a duration and the span that caused it;
spans are aggregated in memory per layer metric.  A metric's seconds are
inclusive and counted at its outermost span only, so recursion does not
count twice.  ``cli.main.s`` is self time: the span's duration minus the
time covered by its direct child spans.

The work runs in one thread, so one stack of open spans suffices.
"""

import sys
import time
from collections import defaultdict

# (module, attribute path, metric).  Methods are patched on the class.
TARGETS = (
    ("ring", "Series.__mul__", "ring.mul"),
    ("ring", "Series.exact_divide_linear", "ring.divide"),
    ("ring", "Series.invert_unit", "ring.invert"),
    ("ring", "Series.act_permutation", "ring.permute"),
    ("ring", "Series.__add__", "ring.add"),
    ("ring", "Series.substitute_gen", "ring.substitute"),
    ("fgl", "FormalGroupLaw.__init__", "fgl.init"),
    ("fgl", "FormalGroupLaw.a_coefficient", "fgl.a_coefficient"),
    ("fgl", "FormalGroupLaw.formal_sum", "fgl.formal_sum"),
    ("fgl", "FormalGroupLaw.pair_unit_inverse", "fgl.pair_unit_inverse"),
    ("schur", "symmetrize", "schur.symmetrize"),
    ("schur", "_coset_kernel", "schur.kernel"),
    ("gysin", "pushforward_full_flag", "gysin.pushforward"),
    ("gysin", "pushforward_partial_flag", "gysin.pushforward"),
    ("gysin", "pushforward_between_flags", "gysin.pushforward"),
    ("gysin", "grassmannian_pushforward", "gysin.pushforward"),
    ("gysin", "segre_series", "gysin.segre"),
    ("gysin", "projective_residue", "gysin.residue"),
    ("cli", "main", "cli.main"),
)

# Metrics in the order they are reported (BENCHMARK.json "per_layer").
PER_LAYER = (
    "schur.kernel.builds", "schur.kernel.s", "schur.kernel.terms",
    "schur.kernel.hit_ratio", "schur.symmetrize.calls", "schur.symmetrize.s",
    "schur.cosets", "schur.products.s", "schur.vandermonde.s",
    "schur.spec_repeat_frac",
    "ring.mul.calls", "ring.mul.s", "ring.mul.pairs", "ring.mul.terms_out",
    "ring.mul.kept_ratio", "ring.divide.calls", "ring.divide.s",
    "ring.invert.calls", "ring.invert.s", "ring.permute.s", "ring.add.s",
    "ring.substitute.s",
    "fgl.init.calls", "fgl.init.s", "fgl.a_coefficient.calls",
    "fgl.a_coefficient.s", "fgl.formal_sum.calls", "fgl.formal_sum.s",
    "fgl.pair_unit_inverse.calls", "fgl.pair_unit_inverse.s",
    "gysin.pushforward.calls", "gysin.pushforward.s", "gysin.segre.calls",
    "gysin.segre.s", "gysin.residue.calls", "gysin.residue.s",
    "cli.main.s", "output.terms", "trace_overhead",
)

KERNEL_METRICS = ("schur.kernel.builds", "schur.kernel.s",
                  "schur.kernel.terms", "schur.kernel.hit_ratio")


def _resolve(obj, path):
    owner = obj
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.depth = defaultdict(int)
        self.child_s = defaultdict(float)     # (parent metric, child metric) -> s
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = []                       # open spans: [metric, start, child time]
        self.seen_specs = set()
        self.op_specs = set()
        self.missing = []
        self._patched = []

    # -- installation ----------------------------------------------------

    def install(self, cobschur):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cobschur"
                                         or name.startswith("cobschur."))]
        for mod_name, path, metric in TARGETS:
            mod = getattr(cobschur, mod_name)
            try:
                owner, attr = _resolve(mod, path)
                orig = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append("%s.%s" % (mod_name, path))
                continue
            wrapper = self._wrap(orig, metric)
            holders = set()
            for m in modules:
                holders.add(m)
                holders.update(v for v in vars(m).values() if isinstance(v, type))
            for h in holders:
                for name, value in list(vars(h).items()):
                    if value is orig:
                        self._patched.append((h, name, orig))
                        setattr(h, name, wrapper)

    def uninstall(self):
        for holder, name, orig in reversed(self._patched):
            setattr(holder, name, orig)
        self._patched = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, metric):
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        hook = getattr(self, "_on_" + metric.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = [metric, perf(), 0.0]
            stack.append(span)
            tracer.depth[metric] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.depth[metric] -= 1
                dur = end - span[1]
                tracer.calls[metric] += 1
                if tracer.depth[metric] == 0:
                    tracer.seconds[metric] += dur
                tracer.self_s[metric] += dur - span[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    tracer.child_s[(parent[0], metric)] += dur
            if hook is not None:
                hook(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _on_ring_mul(self, args, out):
        a, b = args
        na = len(a.terms)
        nb = len(b.terms) if hasattr(b, "terms") else 1
        self.counts["ring.mul.pairs"] += na * nb
        self.counts["ring.mul.terms_out"] += len(out.terms)

    def _on_schur_kernel(self, args, out):
        self.counts["schur.kernel.terms"] += len(out.terms)

    def _on_schur_symmetrize(self, args, out):
        fgl, numerator, spec = args
        ctx = fgl.ctx
        self.counts["schur.cosets"] += len(spec.reps)
        key = (fgl.mode, ctx.signature, spec.var_ids, spec.pair_set,
               tuple(w.images for w in spec.reps),
               min(numerator.bound, ctx.deg_bound))
        if key in self.seen_specs:
            self.counts["schur.spec_repeats"] += 1
        self.op_specs.add(key)

    def end_op(self):
        """Close one operation: its specs count as earlier for the next."""
        self.seen_specs |= self.op_specs
        self.op_specs = set()

    # -- report ------------------------------------------------------------

    def metrics(self):
        c, s, counts = self.calls, self.seconds, self.counts
        out = {
            "schur.kernel.builds": c["schur.kernel"],
            "schur.kernel.s": s["schur.kernel"],
            "schur.kernel.terms": counts["schur.kernel.terms"],
            "schur.kernel.hit_ratio": (1 - c["schur.kernel"] / counts["schur.cosets"]
                                       if counts["schur.cosets"] else 0.0),
            "schur.symmetrize.calls": c["schur.symmetrize"],
            "schur.symmetrize.s": s["schur.symmetrize"],
            "schur.cosets": counts["schur.cosets"],
            "schur.products.s": (self.child_s[("schur.symmetrize", "ring.mul")]
                                 + self.child_s[("schur.symmetrize", "ring.permute")]),
            "schur.vandermonde.s": self.child_s[("schur.symmetrize", "ring.divide")],
            "schur.spec_repeat_frac": (counts["schur.spec_repeats"] / c["schur.symmetrize"]
                                       if c["schur.symmetrize"] else 0.0),
            "ring.mul.pairs": counts["ring.mul.pairs"],
            "ring.mul.terms_out": counts["ring.mul.terms_out"],
            "ring.mul.kept_ratio": (counts["ring.mul.terms_out"] / counts["ring.mul.pairs"]
                                    if counts["ring.mul.pairs"] else 0.0),
            "cli.main.s": self.self_s["cli.main"],
        }
        for name in ("ring.mul", "ring.divide", "ring.invert", "fgl.init",
                     "fgl.a_coefficient", "fgl.formal_sum",
                     "fgl.pair_unit_inverse", "gysin.pushforward",
                     "gysin.segre", "gysin.residue"):
            out[name + ".calls"] = c[name]
        for name in ("ring.mul", "ring.divide", "ring.invert", "ring.permute",
                     "ring.add", "ring.substitute", "fgl.init",
                     "fgl.a_coefficient", "fgl.formal_sum",
                     "fgl.pair_unit_inverse", "gysin.pushforward",
                     "gysin.segre", "gysin.residue"):
            out[name + ".s"] = s[name]
        if "schur._coset_kernel" in self.missing:
            for name in KERNEL_METRICS:
                del out[name]
        return out
