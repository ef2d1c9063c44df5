"""The three workloads: seeded inputs, the timed operation, the reference check.

Every workload draws one *pass* at a time from the seeded generator.  A
pass has a fixed composition (the slots below); the seed picks the
partition, sequence, t-value, window edge or numerator inside each slot
and the order of the slots.  Fixing the composition keeps the cost mix of
a pass the same from seed to seed, so medians are steady while the
inputs still change.

``run`` is the timed operation and returns what the program produced;
``check`` compares that output with a reference outside the timed region
and returns True when it agrees.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction

# families-cold slots: (family, n, D, with b).  A pass is forty queries.
# The twelve n=3 slots cover every family at D 3-5, with and without b.
# The twenty-eight n=4 slots run S_4 coset sums, where kernel construction
# dominates.  Sorted by cost they form plateaus, and each quantile falls
# inside one: twelve Damon/Kempf-Laksov queries without b hold the median,
# three Damon queries with b and nine P/Q/HL queries hold the 75th
# percentile, and four S-function queries build the full 24-kernel flag.
# At n=4 lambda is one row, so the coset structure does not depend on the
# draw, and each group of three equal slots gets the three rows in seeded
# order (see balanced()).
FAMILY_SLOTS = (
    ("schur-s", 3, 3, False), ("schur-s", 3, 4, True), ("schur-s", 3, 5, True),
    ("schur-seq", 3, 4, False), ("schur-seq", 3, 5, True),
    ("schur-p", 3, 4, False), ("schur-q", 3, 5, False), ("hl", 3, 4, False),
    ("new-schur", 3, 3, True), ("new-schur", 3, 5, False),
    ("schur-kl", 3, 4, True), ("schur-kl", 3, 5, True),
) + tuple(slot for slot in (
    ("new-schur", 4, 3, False), ("new-schur", 4, 3, False),
    ("schur-kl", 4, 3, False), ("schur-kl", 4, 3, False),
    ("new-schur", 4, 3, True),
    ("schur-p", 4, 3, False), ("schur-q", 4, 3, False), ("hl", 4, 3, False),
) for _ in range(3)) + (
    ("schur-s", 4, 3, False), ("schur-s", 4, 3, True),
    ("schur-seq", 4, 3, False), ("schur-seq", 4, 3, True),
)
ONE_ROW = ("1", "2", "3")
# The n=4 S-function query with b sets the run's peak memory; a larger
# first part makes it smaller, so it is pinned to keep peak_rss_mb steady.
PINNED = {("schur-s", 4, 3, True): ("1",)}
SHAPES = ("3", "2,1", "1,1,1")
STRICT = ("3", "2,1")
SEQUENCES = ("0,3", "0,0,3", "1,0,2")
HL_T_VALUES = ("symbolic", "-1", "1/2", "2")
A = 2


def call_cli(cli, argv):
    """Run one CLI invocation in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _key(exps):
    return tuple(sorted((k, v) for k, v in exps.items() if v))


def terms_to_poly(terms, drop_m=False):
    """CLI JSON terms -> {monomial: Fraction}; drop_m sets every m_i to 0."""
    out = {}
    for item in terms:
        exps = item["exps"]
        if drop_m and any(k[0] == "m" and v for k, v in exps.items()):
            continue
        out[_key(exps)] = Fraction(int(item["num"]), int(item["den"]))
    return out


def series_to_poly(series, max_deg=None):
    ctx = series.ctx
    return {_key(ctx.exps_from_key(k)): Fraction(c)
            for k, c in series.terms.items()
            if max_deg is None or ctx.key_deg(k) <= max_deg}


def eval_t(poly, t):
    """Evaluate the t generator of a {monomial: Fraction} polynomial at t."""
    out = {}
    for mono, c in poly.items():
        e = dict(mono).pop("t", 0)
        rest = tuple((k, v) for k, v in mono if k != "t")
        out[rest] = out.get(rest, 0) + c * t ** e
    return {k: v for k, v in out.items() if v != 0}


def complete_homogeneous(n, k):
    """h_k(x_1..x_n) by enumerating monomials; 0 for k < 0."""
    if k < 0:
        return {}
    out = {}
    for combo in itertools.combinations_with_replacement(range(1, n + 1), k):
        exps = {}
        for i in combo:
            exps["x%d" % i] = exps.get("x%d" % i, 0) + 1
        out[_key(exps)] = Fraction(1)
    return out


def balanced(rng, slots, candidates):
    """Pair each slot with one of candidates(slot), drawn without replacement.

    Equal slots share one seeded permutation of their candidates, cycled,
    so a group of k equal slots with k candidates uses each exactly once:
    the pass's cost mix is then the same for every seed.
    """
    pools = {}
    out = []
    for slot in slots:
        pool = pools.get(slot)
        if not pool:
            pool = pools[slot] = list(candidates(slot))
            rng.shuffle(pool)
        out.append((slot, pool.pop()))
    return out


def _parts(text):
    return [int(p) for p in text.split(",")]


def _b_budget(parts, n):
    return max(p + n - 1 - j for j, p in enumerate(parts))


class FamiliesCold:
    """Seeded `compute` queries through cli.main, each with a fresh FGL."""

    name = "families-cold"
    setup_repeats = 7
    min_ops = 40
    WARMUP = ["compute", "--family", "schur-s", "--n", "3", "--deg", "3",
              "--A", str(A), "--lambda", "1", "--out", "json"]

    def __init__(self, cobschur):
        self.cs = cobschur

    def setup(self):
        rc, _ = call_cli(self.cs.cli, self.WARMUP)
        if rc != 0:
            raise RuntimeError("warm-up query exited with %d" % rc)
        return None

    def make_pass(self, rng):
        ops = []
        for (family, n, D, with_b), lam in balanced(rng, FAMILY_SLOTS, self._lambdas):
            argv = ["compute", "--family", family, "--n", str(n),
                    "--deg", str(D), "--A", str(A), "--lambda", lam,
                    "--out", "json"]
            if with_b:
                argv += ["--nb", str(_b_budget(_parts(lam), n))]
            t = None
            if family == "hl":
                t = rng.choice(HL_T_VALUES)
                argv += ["--t", t]
            ops.append({"argv": argv, "family": family, "n": n, "D": D,
                        "b": with_b, "lam": _parts(lam), "t": t})
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _lambdas(slot):
        family, n, D, with_b = slot
        if slot in PINNED:
            lams = PINNED[slot]
        elif family == "schur-seq":
            lams = SEQUENCES
        elif n == 4:
            lams = ONE_ROW
        else:
            lams = STRICT if family in ("schur-p", "schur-q") else SHAPES
        # |lambda| <= D, so the whole classical value is compared
        return [l for l in lams if sum(_parts(l)) <= D and len(_parts(l)) <= n]

    def run(self, state, op):
        rc, text = call_cli(self.cs.cli, op["argv"])
        return rc, text

    def output_terms(self, out):
        return len(json.loads(out[1])["terms"]) if out[0] == 0 else 0

    def check(self, op, out, _outputs):
        rc, text = out
        if rc != 0:
            return False
        got = terms_to_poly(json.loads(text)["terms"], drop_m=True)
        return got == self.reference(op)

    def reference(self, op):
        """The classical value the m -> 0 specialization must equal."""
        from cobschur import RingContext, oracles
        family, n, D, lam = op["family"], op["n"], op["D"], op["lam"]
        nb = _b_budget(lam, n) if op["b"] else 0
        ctx = RingContext(n_x=n, n_b=nb, m_order=0,
                          deg_bound=sum(lam) + n * (n - 1) // 2 + 1,
                          scalars=("t",))
        if family == "hl":
            val = series_to_poly(oracles.classical_hall_littlewood(ctx, lam, n), D)
            return val if op["t"] == "symbolic" else eval_t(val, Fraction(op["t"]))
        if family == "schur-p":
            val = oracles.schur_p_polynomial(ctx, lam, n)
        elif family == "schur-q":
            val = oracles.schur_q_polynomial(ctx, lam, n)
        elif op["b"]:
            val = oracles.factorial_schur(ctx, lam, n)
        else:
            val = oracles.classical_schur(ctx, lam, n)
        return series_to_poly(val, D)


# segre-windows slots: (n, D, k_min, k).  Each slot is one window
# [k_min, k_max] through cli.main and one projective residue of t^(k+n-1)
# in the window's context: forty operations a pass.  A residue's cost
# grows with k, so k is fixed per slot; the seed draws k_max from
# {D-1, D}, which barely changes the window's cost, and the order.  Sorted
# by cost the operations form plateaus, and each quantile falls inside
# one: fifteen cheap n=2 operations, then ten (2, 5, -3) operations that
# hold the median, nine n=3 operations around the 75th percentile, and six
# n=3/n=4 operations on top.
SEGRE_SLOTS = (
    (2, 4, -4, 1), (2, 4, -3, -1), (2, 4, -2, 0), (2, 4, -1, 2),
    (2, 4, 0, 1), (2, 4, -2, 1), (2, 4, -3, 0), (2, 4, -6, 1),
) + ((2, 5, -3, 1),) * 5 + ((3, 4, -3, 0),) * 4 + (
    (4, 4, -1, 0), (3, 5, -2, 1), (4, 4, 0, 3),
)


class SegreWindows:
    """Seeded Segre windows through cli.main plus projective residues."""

    name = "segre-windows"
    setup_repeats = 7
    min_ops = 40
    WARMUP = ["segre", "--n", "2", "--kmin", "-1", "--kmax", "4",
              "--deg", "4", "--A", str(A)]

    def __init__(self, cobschur):
        self.cs = cobschur

    def setup(self):
        rc, _ = call_cli(self.cs.cli, self.WARMUP)
        if rc != 0:
            raise RuntimeError("warm-up window exited with %d" % rc)
        return None

    def make_pass(self, rng):
        ops = []
        for idx, (n, D, kmin, k) in enumerate(SEGRE_SLOTS):
            kmax = rng.choice((D - 1, D))
            ops.append({"kind": "window", "slot": idx, "n": n, "D": D,
                        "kmin": kmin, "kmax": kmax,
                        "argv": ["segre", "--n", str(n), "--kmin", str(kmin),
                                 "--kmax", str(kmax), "--deg", str(D),
                                 "--A", str(A)]})
            ops.append({"kind": "residue", "slot": idx, "n": n, "D": D,
                        "kmin": kmin, "k": k})
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        if op["kind"] == "window":
            return call_cli(self.cs.cli, op["argv"])
        from cobschur import RingContext, FormalGroupLaw, Series
        from cobschur import gysin
        n, D = op["n"], op["D"]
        # the same context cli.main builds for the paired window
        cap = min(gysin.required_weight_cap(n, D, op["kmin"]), 63)
        ctx = RingContext(n_x=n, m_order=A, deg_bound=D, m_weight_cap=cap)
        fgl = FormalGroupLaw(ctx, "universal")
        return gysin.projective_residue(fgl, {op["k"] + n - 1: Series.const(ctx, 1)}, n)

    def output_terms(self, out):
        if isinstance(out, tuple):
            if out[0] != 0:
                return 0
            return sum(len(t) for t in json.loads(out[1])["coeffs"].values())
        return len(out.terms)

    def check(self, op, out, outputs):
        """Windows: m -> 0 gives h_k, zero for k < 0.  Residues: equal to
        the coefficient of the window drawn for the same slot."""
        if op["kind"] == "window":
            rc, text = out
            if rc != 0:
                return False
            coeffs = json.loads(text)["coeffs"]
            return all(terms_to_poly(coeffs.get(str(k), ()), drop_m=True)
                       == complete_homogeneous(op["n"], k)
                       for k in range(op["kmin"], op["kmax"] + 1))
        window = next((o for p, o in outputs
                       if p["kind"] == "window" and p["slot"] == op["slot"]), None)
        if window is None or window[0] != 0:
            return False
        coeffs = json.loads(window[1])["coeffs"]
        return series_to_poly(out) == terms_to_poly(coeffs.get(str(op["k"]), ()))


# pushforward-warm numerators: the total degrees of their monomials.  The
# cost of an identity falls as the numerator's degree rises (less of each
# kernel stays under the bound) and grows with its term count, so a pass
# uses this fixed mix; the seed picks exponents, coefficients and order.
NUMERATOR_SHAPES = (tuple((d,) for d in range(1, 9)) * 3
                    + tuple((d, d + 1) for d in range(1, 8)) * 2
                    + ((2, 5), (4, 6)))


class PushforwardWarm:
    """Functoriality full = partial o between on one shared universal FGL."""

    name = "pushforward-warm"
    setup_repeats = 3
    min_ops = 40
    N = 4
    D = 2

    def __init__(self, cobschur):
        self.cs = cobschur

    def setup(self):
        """Build the context and FGL, then fill the kernel cache."""
        from cobschur import RingContext, FormalGroupLaw, Series, Partition
        n = self.N
        P = n * (n - 1) // 2
        # deg_bound = D + 2P = 14: room for both stages of partial o between
        # (criterion 06 adds 2 more; at 16 one set-up takes 2.4x as long)
        ctx = RingContext(n_x=n, n_b=0, m_order=A, deg_bound=self.D + 2 * P)
        fgl = FormalGroupLaw(ctx, "universal")
        lam = Partition([1], n=n)
        state = (ctx, fgl, lam)
        self._identity(state, Series.const(ctx, 1))
        return state

    def _identity(self, state, f):
        from cobschur import gysin
        ctx, fgl, lam = state
        n = self.N
        lhs = gysin.pushforward_full_flag(fgl, f, n)
        mid = gysin.pushforward_between_flags(fgl, f, lam, n)
        rhs = gysin.pushforward_partial_flag(fgl, mid, lam, n)
        return lhs, rhs

    def make_pass(self, rng):
        by_degree = {}
        for exps in itertools.product(range(3), repeat=self.N):
            by_degree.setdefault(sum(exps), []).append(exps)
        ops = []
        for degrees in rng.sample(NUMERATOR_SHAPES, len(NUMERATOR_SHAPES)):
            monos = []
            for d in degrees:
                exps = rng.choice(by_degree[d])
                monos.append(({"x%d" % (i + 1): e for i, e in enumerate(exps) if e},
                              rng.choice((-3, -2, -1, 1, 2, 3))))
            ops.append({"monomials": monos})
        return ops

    def run(self, state, op):
        from cobschur import Series
        ctx = state[0]
        f = Series.zero(ctx)
        for exps, c in op["monomials"]:
            f = f + Series.monomial(ctx, exps, c)
        return self._identity(state, f)

    def output_terms(self, out):
        return len(out[0].terms) + len(out[1].terms)

    def check(self, op, out, _outputs):
        lhs, rhs = out
        b = min(lhs.bound, rhs.bound)
        return lhs.truncate(b).terms == rhs.truncate(b).terms


WORKLOADS = {w.name: w for w in (FamiliesCold, PushforwardWarm, SegreWindows)}
