"""Named verification suites: the identity checks behind `verify`.

Each suite runs a family of exact identity checks at configurable size
caps and returns a VerificationReport.  All comparisons are exact
rational arithmetic on the retained terms; "equal" always means the
difference of the trusted truncations is identically zero.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .ring import RingContext, Series, Permutation, RemainderError
from .fgl import FormalGroupLaw
from .schur import (Partition, partitions_up_to, factorial_power,
                    bracket_monomial, universal_schur_s, universal_schur_p,
                    universal_schur_q, universal_hall_littlewood,
                    new_universal_schur, new_universal_schur_one_row,
                    universal_schur_kl, SymmetrizerSpec, symmetrize,
                    symmetrizer_deg_bound)
from .gysin import (pushforward_full_flag, pushforward_partial_flag,
                    pushforward_between_flags, grassmannian_pushforward,
                    projective_residue, segre_series, thom_porteous_class,
                    kempf_laksov_class, darondeau_pragacz_pushforward,
                    required_weight_cap)
from . import oracles


class Check:
    __slots__ = ("name", "ok", "seconds", "params", "witness")

    def __init__(self, name, ok, seconds, params=None, witness=None):
        self.name = name
        self.ok = ok
        self.seconds = seconds
        self.params = params or {}
        self.witness = witness

    def line(self):
        status = "pass" if self.ok else "FAIL"
        extra = ""
        if not self.ok and self.witness is not None:
            w = str(self.witness)
            extra = "  witness: " + (w[:160] + "..." if len(w) > 160 else w)
        return "[%s] %s (%.2fs)%s" % (status, self.name, self.seconds, extra)


class VerificationReport:
    def __init__(self, suite, checks, wall_time):
        self.suite = suite
        self.checks = checks
        self.wall_time = wall_time

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def summary(self):
        lines = [c.line() for c in self.checks]
        lines.append("suite %s: %d/%d identities hold (%.1fs)"
                     % (self.suite, sum(c.ok for c in self.checks),
                        len(self.checks), self.wall_time))
        return "\n".join(lines)


def _filtered(s, deg, wcap):
    out = {}
    for key, c in s.terms.items():
        if s.ctx.key_deg(key) <= deg and s.ctx.key_weight(key) <= wcap:
            out[tuple(sorted(s.ctx.exps_from_key(key).items()))] = c
    return out


def series_match(a, b, deg=None, wcap=None):
    """Exact comparison of trusted truncations, possibly across contexts.

    Returns (ok, witness) where the witness lists differing monomials.
    """
    deg = min(a.bound, b.bound) if deg is None else deg
    wcap = min(a.ctx.m_weight_cap, b.ctx.m_weight_cap) if wcap is None else wcap
    fa, fb = _filtered(a, deg, wcap), _filtered(b, deg, wcap)
    if fa == fb:
        return True, None
    diffs = []
    for key in sorted(set(fa) | set(fb), key=str):
        ca, cb = fa.get(key, 0), fb.get(key, 0)
        if ca != cb:
            mono = "*".join("%s^%d" % kv for kv in key) or "1"
            diffs.append("%s: %s vs %s" % (mono, ca, cb))
    return False, "; ".join(diffs[:6])


class _Runner:
    def __init__(self, suite):
        self.suite = suite
        self.checks = []
        self.t0 = time.time()

    def add(self, name, ok, witness=None, t_start=None, **params):
        dt = time.time() - (t_start if t_start is not None else self.t0)
        self.checks.append(Check(name, bool(ok), dt, params, witness))

    def record(self, name, fn, **params):
        t = time.time()
        try:
            ok, witness = fn()
        except RemainderError as exc:
            ok, witness = False, "remainder error: %s" % exc
        self.add(name, ok, witness, t_start=t, **params)

    def report(self):
        return VerificationReport(self.suite, self.checks, time.time() - self.t0)


def _universal(n_x, n_b, A, deg_bound, scalars=()):
    ctx = RingContext(n_x=n_x, n_b=n_b, m_order=A, deg_bound=deg_bound,
                      scalars=scalars)
    return ctx, FormalGroupLaw(ctx, "universal")


# ---------------------------------------------------------------------------
# 1. formal-group-law axioms


def suite_fgl_axioms(pairs=((2, 4), (3, 5))):
    r = _Runner("fgl-axioms")
    for (A, D) in pairs:
        ctx = RingContext(n_x=3, m_order=A, deg_bound=D)
        fgl = FormalGroupLaw(ctx, "universal")
        x1, x2, x3 = (Series.gen(ctx, "x%d" % i) for i in (1, 2, 3))

        r.record("unit F(x1, 0) = x1 [A=%d,D=%d]" % (A, D),
                 lambda: (fgl.formal_sum(x1, Series.zero(ctx)) == x1, None))
        r.record("commutativity [A=%d,D=%d]" % (A, D), lambda: (
            fgl.formal_sum(x1, x2) == fgl.formal_sum(x2, x1), None))

        def assoc():
            lhs = fgl.formal_sum(x1, fgl.formal_sum(x2, x3))
            rhs = fgl.formal_sum(fgl.formal_sum(x1, x2), x3)
            d = lhs - rhs
            return d.is_zero(), None if d.is_zero() else d.text()
        r.record("associativity [A=%d,D=%d]" % (A, D), assoc)

        def inverse():
            d = fgl.formal_sum(x1, fgl.formal_inverse(x1))
            return d.is_zero(), None if d.is_zero() else d.text()
        r.record("F(x, conj x) = 0 [A=%d,D=%d]" % (A, D), inverse)

        def log_add():
            rng = random.Random(11)
            for _ in range(3):
                a = _random_series(ctx, rng, zero_const=True)
                b = _random_series(ctx, rng, zero_const=True)
                lhs = fgl.logarithm(fgl.formal_sum(a, b))
                rhs = fgl.logarithm(a) + fgl.logarithm(b)
                if not (lhs == rhs):
                    return False, (lhs - rhs).text()
            return True, None
        r.record("log additivity on random series [A=%d,D=%d]" % (A, D), log_add)

        def n_rec():
            prev = x1
            for n in range(2, 6):
                cur = fgl.n_series(n, x1)
                alt = fgl.formal_sum(x1, prev)
                if not (cur == alt):
                    return False, (cur - alt).text()
                prev = cur
            return True, None
        r.record("[n]-recursion n<=5 [A=%d,D=%d]" % (A, D), n_rec)

        def t_evals():
            ctx_t = RingContext(n_x=1, m_order=A, deg_bound=D, scalars=("t",))
            fg = FormalGroupLaw(ctx_t, "universal")
            x = Series.gen(ctx_t, "x1")
            ts = fg.t_series(x)
            checks = [
                ts.substitute_gen("t", 1) == x,
                ts.substitute_gen("t", 0).is_zero(),
                ts.substitute_gen("t", -1) == fg.formal_inverse(x),
                ts.substitute_gen("t", 2) == fg.n_series(2, x),
            ]
            return all(checks), None
        r.record("t-series evaluations at -1,0,1,2 [A=%d,D=%d]" % (A, D), t_evals)

        def omega():
            ctx_s = RingContext(n_x=0, m_order=A, deg_bound=D, aux=("s",))
            fg = FormalGroupLaw(ctx_s, "universal")
            den = fg.invariant_differential_denominator("s").truncate(D - 1)
            s = Series.gen(ctx_s, "s")
            direct = Series.const(ctx_s, 1)
            for i in range(1, D):
                direct = direct + fg.a_coefficient(i, 1) * s ** i
            return den == direct.truncate(D - 1), None
        r.record("omega denominator = dF/dv(s,0) [A=%d,D=%d]" % (A, D), omega)
    return r.report()


def _random_series(ctx, rng, zero_const=True, max_terms=4):
    terms = {}
    names = ["x%d" % i for i in range(1, ctx.n_x + 1)]
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = {}
        for nm in names:
            e = rng.randrange(0, 3)
            if e:
                exps[nm] = e
        if zero_const and not exps:
            exps[names[rng.randrange(len(names))]] = 1
        coeff = rng.randrange(-3, 4)
        if coeff == 0:
            coeff = 1
        try:
            key = ctx.key_from_exps(exps)
        except Exception:
            continue
        terms[key] = terms.get(key, 0) + coeff
    terms = {k: c for k, c in terms.items() if c != 0}
    if not terms:
        terms = {ctx.key_from_exps({names[0]: 1}): 1}
    return Series(ctx, terms, ctx.deg_bound)


# ---------------------------------------------------------------------------
# 2. empty-partition expansion


def suite_empty_partition(A=3, D=4):
    r = _Runner("empty-partition")
    ctx, fgl = _universal(2, 1, A, symmetrizer_deg_bound(D, 2))
    s = universal_schur_s(fgl, [], 2, use_b=True)

    def coeff_of(exps):
        want = dict(exps)
        out = {}
        for key, c in s.terms.items():
            e = ctx.exps_from_key(key)
            xb = {k: v for k, v in e.items() if k[0] in "xb"}
            if xb == want:
                rest = {k: v for k, v in e.items() if k[0] not in "xb"}
                out[ctx.key_from_exps(rest)] = c
        return Series(ctx, out, ctx.deg_bound)

    a12 = fgl.a_coefficient(1, 2)
    r.record("coefficient of x1*x2 equals a_{1,2}", lambda: (
        coeff_of({"x1": 1, "x2": 1}) == a12,
        (coeff_of({"x1": 1, "x2": 1}) - a12).text()))
    a11a12 = fgl.a_coefficient(1, 1) * a12

    def b_coeff():
        got = coeff_of({"b1": 1, "x1": 1, "x2": 1})
        d = got - a11a12
        return d.is_zero(), ("computed %s vs a11*a12 = %s"
                             % (got.text(), a11a12.text()))
    # the honest expansion carries 2*a11*a12 + 2*a13 here; the check is
    # kept against the literature value so the discrepancy stays visible
    r.record("coefficient of b1*x1*x2 equals a_{1,1}a_{1,2} (literature value)",
             b_coeff)
    return r.report()


# ---------------------------------------------------------------------------
# 3. Hall-Littlewood collapse chain


def suite_hl_collapse(max_weight=4, max_n=4, A=2, D=5):
    r = _Runner("hl-collapse")
    for n in range(1, max_n + 1):
        ctx, fgl = _universal(n, 0, A, symmetrizer_deg_bound(D, n), scalars=("t",))
        for lam in partitions_up_to(max_weight, n):
            lamp = Partition(lam, n=n)
            H = universal_hall_littlewood(fgl, lamp, n)
            tag = "lam=%r n=%d" % (lam, n)

            def t1(H=H, lamp=lamp):
                got = H.substitute_gen("t", 1)
                want = oracles.monomial_symmetric(ctx, lamp.parts, n).truncate(got.bound)
                return series_match(got, want)
            r.record("H(t=1) = monomial symmetric [%s]" % tag, t1)

            def t0(H=H, lamp=lamp):
                got = H.substitute_gen("t", 0)
                want = new_universal_schur(fgl, lamp, n)
                return series_match(got, want)
            r.record("H(t=0) = Damon-type function [%s]" % tag, t0)

            if lamp.is_strict() and lamp.length >= 1:
                def tm1(H=H, lamp=lamp):
                    got = H.substitute_gen("t", -1)
                    want = universal_schur_p(fgl, lamp, n)
                    return series_match(got, want)
                r.record("H(t=-1) = P-function [%s]" % tag, tm1)
    return r.report()


# ---------------------------------------------------------------------------
# 4. additive specialization square


def suite_additive_square(max_weight=4, max_n=4):
    r = _Runner("additive-square")
    for n in range(1, max_n + 1):
        for lam in partitions_up_to(max_weight, n):
            lamp = Partition(lam, n=n)
            D = max(lamp.size, 1)
            n_b = (lamp.parts[0] if lamp.length else 0) + n - 1
            ctx = RingContext(n_x=n, n_b=max(n_b, 0), m_order=0,
                              deg_bound=symmetrizer_deg_bound(D, n), scalars=("t",))
            fgl = FormalGroupLaw(ctx, "additive")
            tag = "lam=%r n=%d" % (lam, n)

            def s_plain():
                got = universal_schur_s(fgl, lamp, n)
                return series_match(got, oracles.classical_schur(ctx, lam, n))
            r.record("schur-s additive = Schur [%s]" % tag, s_plain)

            def s_fact():
                got = universal_schur_s(fgl, lamp, n, use_b=True)
                return series_match(got, oracles.factorial_schur(ctx, lam, n))
            r.record("schur-s(b) additive = factorial Schur [%s]" % tag, s_fact)

            def damon():
                got = new_universal_schur(fgl, lamp, n, use_b=True)
                return series_match(got, oracles.factorial_schur(ctx, lam, n))
            r.record("new-schur(b) additive = factorial Schur [%s]" % tag, damon)

            def kl():
                got = universal_schur_kl(fgl, lamp, n, use_b=True)
                return series_match(got, oracles.factorial_schur(ctx, lam, n))
            r.record("schur-kl(b) additive = factorial Schur [%s]" % tag, kl)

            def hl():
                got = universal_hall_littlewood(fgl, lamp, n)
                return series_match(got, oracles.classical_hall_littlewood(ctx, lam, n))
            r.record("hl additive = Hall-Littlewood [%s]" % tag, hl)

            if lamp.is_strict() and lamp.length >= 1:
                def pfun():
                    got = universal_schur_p(fgl, lamp, n)
                    return series_match(got, oracles.schur_p_polynomial(ctx, lam, n))
                r.record("schur-p additive = Schur P [%s]" % tag, pfun)

                def qfun():
                    got = universal_schur_q(fgl, lamp, n)
                    return series_match(got, oracles.schur_q_polynomial(ctx, lam, n))
                r.record("schur-q additive = Schur Q [%s]" % tag, qfun)
    return r.report()


# ---------------------------------------------------------------------------
# 5. multiplicative specialization square


def suite_multiplicative_square(max_weight=3, max_n=3):
    r = _Runner("multiplicative-square")
    for n in range(1, max_n + 1):
        for lam in partitions_up_to(max_weight, n):
            lamp = Partition(lam, n=n)
            D = lamp.size + 2
            n_b = (lamp.parts[0] if lamp.length else 0) + n - 1
            ctx = RingContext(n_x=n, n_b=max(n_b, 0), m_order=0,
                              deg_bound=symmetrizer_deg_bound(D, n), scalars=("beta",))
            fgl = FormalGroupLaw(ctx, "multiplicative")
            tag = "lam=%r n=%d" % (lam, n)
            G = oracles.factorial_grothendieck(ctx, lam, n)

            def s_fact(G=G):
                got = universal_schur_s(fgl, lamp, n, use_b=True)
                return series_match(got.truncate(D), G.truncate(D), deg=D)
            r.record("schur-s(b) multiplicative = Grothendieck [%s]" % tag, s_fact)

            def damon(G=G):
                got = new_universal_schur(fgl, lamp, n, use_b=True)
                return series_match(got.truncate(D), G.truncate(D), deg=D)
            r.record("new-schur(b) multiplicative = Grothendieck [%s]" % tag, damon)
    return r.report()


# ---------------------------------------------------------------------------
# 6. Gysin functoriality


def suite_gysin_functoriality(max_weight=3, max_n=4, trials=20, A=2, D=3, seed=23):
    r = _Runner("gysin-functoriality")
    rng = random.Random(seed)
    for n in range(2, max_n + 1):
        # the partial pushforward runs on the output of between-flags
        ctx, fgl = _universal(
            n, 0, A, symmetrizer_deg_bound(symmetrizer_deg_bound(D, n), n))
        for lam in partitions_up_to(max_weight, n):
            lamp = Partition(lam, n=n)
            if len(lamp.block_sizes) == 1:
                continue  # trivial quotient; covered by the full-flag case

            def comp(lamp=lamp, n=n):
                for _ in range(trials):
                    exps = {"x%d" % i: rng.randrange(0, 3) for i in range(1, n + 1)}
                    exps = {k: v for k, v in exps.items() if v}
                    f = (Series.monomial(ctx, exps) if exps
                         else Series.const(ctx, 1))
                    lhs = pushforward_full_flag(fgl, f, n)
                    mid = pushforward_between_flags(fgl, f, lamp, n)
                    rhs = pushforward_partial_flag(fgl, mid, lamp, n)
                    ok, w = series_match(lhs, rhs)
                    if not ok:
                        return False, "monomial %r: %s" % (exps, w)
                return True, None
            r.record("full = partial o between (%d monomials) [lam=%r n=%d]"
                     % (trials, lam, n), comp)

    # closed form with shifted parameters for two-block shapes
    for n in range(2, max_n + 1):
        for (a, b2) in ((1, 0), (2, 0), (2, 1)):
            for q in range(1, n):
                lamp = Partition([a] * q + [b2] * (n - q), n=n)
                n_b = max(lamp.block_values[r_] + n - lamp.nu[r_ + 1]
                          + lamp.block_sizes[r_] - 1
                          for r_ in range(len(lamp.block_sizes)))
                n_b = max(n_b, a + n - 1)
                ctx2 = RingContext(n_x=n, n_b=n_b, m_order=A,
                                   deg_bound=symmetrizer_deg_bound(D, n))
                fg2 = FormalGroupLaw(ctx2, "universal")

                def closed(lamp=lamp, ctx2=ctx2, fg2=fg2, n=n):
                    num = Series.const(ctx2, 1)
                    for i in range(1, n + 1):
                        num = num * factorial_power(
                            fg2, i, lamp.parts[i - 1] + n - i)
                    lhs = pushforward_between_flags(fg2, num, lamp, n)
                    rhs = bracket_monomial(fg2, lamp)
                    for r_ in range(1, len(lamp.block_sizes) + 1):
                        shift = lamp.block_values[r_ - 1] + n - lamp.nu[r_]
                        block = tuple(range(lamp.nu[r_ - 1] + 1, lamp.nu[r_] + 1))
                        rhs = rhs * universal_schur_s(
                            fg2, [0] * len(block), len(block), use_b=True,
                            var_ids=block, b_shift=shift)
                    return series_match(lhs, rhs)
                r.record("between-flags closed form [lam=%r n=%d]"
                         % (list(lamp.parts), n), closed)
    return r.report()


# ---------------------------------------------------------------------------
# 7. Fel'dman identity


def suite_feldman(ns=(3, 4), qs=(1, 2), max_entry=2, A=2, D=4):
    r = _Runner("feldman")
    for n in ns:
        for q in qs:
            if q >= n:
                continue
            # the Grassmannian pushforward runs on products of S-values on
            # the q and n - q variable blocks
            ctx, fgl = _universal(n, 0, A, symmetrizer_deg_bound(
                symmetrizer_deg_bound(D, max(q, n - q)), n))
            first = tuple(range(1, q + 1))
            second = tuple(range(q + 1, n + 1))
            cache_I = {}
            cache_J = {}
            for I in itertools.product(range(max_entry + 1), repeat=q):
                if I not in cache_I:
                    cache_I[I] = universal_schur_s(
                        fgl, [e + (n - q) for e in I], q, var_ids=first)
            for J in itertools.product(range(max_entry + 1), repeat=n - q):
                if J not in cache_J:
                    cache_J[J] = universal_schur_s(fgl, list(J), n - q,
                                                   var_ids=second)

            def run_all(n=n, q=q, fgl=fgl, cache_I=cache_I, cache_J=cache_J):
                for I in itertools.product(range(max_entry + 1), repeat=q):
                    for J in itertools.product(range(max_entry + 1), repeat=n - q):
                        lhs = grassmannian_pushforward(
                            fgl, cache_I[I] * cache_J[J], q, n)
                        rhs = universal_schur_s(fgl, list(I) + list(J), n)
                        ok, w = series_match(lhs, rhs)
                        if not ok:
                            return False, "I=%r J=%r: %s" % (I, J, w)
                return True, None
            r.record("juxtaposition identity, all I,J entries<=%d [n=%d q=%d]"
                     % (max_entry, n, q), run_all)
    return r.report()


# ---------------------------------------------------------------------------
# 8. residue and generating function


def suite_residue_segre(max_n=3, k_hi=4, A=2, D=4):
    r = _Runner("residue-segre")
    for n in range(1, max_n + 1):
        k_lo = 1 - n
        cap = required_weight_cap(n, D, k_lo)
        wctx = RingContext(n_x=n, m_order=A, deg_bound=D, m_weight_cap=cap)
        wf = FormalGroupLaw(wctx, "universal")
        sbound = symmetrizer_deg_bound(D, n)
        sctx = RingContext(n_x=n, m_order=A, deg_bound=sbound,
                           m_weight_cap=min(sbound + 2 + n, 63))
        sf = FormalGroupLaw(sctx, "universal")
        seg = segre_series(wf, n, k_lo, k_hi)

        def agree(n=n, seg=seg, wf=wf, sf=sf, wctx=wctx, sctx=sctx):
            for k in range(k_lo, k_hi + 1):
                res = projective_residue(wf, {k + n - 1: Series.const(wctx, 1)}, n)
                if not (seg.coeff(k) == res):
                    return False, "k=%d residue/segre" % k
                direct = new_universal_schur_one_row(sf, k, n)
                ok, w = series_match(seg.coeff(k), direct,
                                     deg=min(D, direct.bound),
                                     wcap=sctx.m_weight_cap)
                if not ok:
                    return False, "k=%d window/symmetrizer: %s" % (k, w)
            return True, None
        r.record("residue = segre window = one-row symmetrizer [n=%d]" % n, agree)

    # additive mode: h_k and vanishing negative coefficients; the
    # bialternant oracle needs room for the Vandermonde division
    for n in range(1, max_n + 1):
        actx = RingContext(n_x=n, m_order=0,
                           deg_bound=symmetrizer_deg_bound(D, n))
        af = FormalGroupLaw(actx, "additive")
        seg = segre_series(af, n, -3, D)

        def additive(n=n, seg=seg, actx=actx):
            for k in range(0, D + 1):
                want = oracles.classical_schur(actx, [k], n)
                ok, w = series_match(seg.coeff(k), want,
                                     deg=min(D, want.bound))
                if not ok:
                    return False, "k=%d: %s" % (k, w)
            for k in range(-3, 0):
                if not seg.coeff(k).is_zero():
                    return False, "negative k=%d nonzero" % k
            return True, None
        r.record("additive window: h_k and zero negatives [n=%d]" % n, additive)
    return r.report()


# ---------------------------------------------------------------------------
# 9. Thom-Porteous


def suite_thom_porteous(max_rank=4, A=2, universal_deg_cap=4, det_degree_cap=9):
    r = _Runner("thom-porteous")
    for e in range(1, max_rank + 1):
        for f in range(1, max_rank + 1):
            for rk in range(0, min(e, f) + 1):
                rect_deg = (e - rk) * (f - rk)

                # universal internal assertion (truncated at a desk degree)
                Du = min(max(rect_deg, 1), universal_deg_cap)
                ctxu = RingContext(n_x=f, n_b=e, m_order=A,
                                   deg_bound=symmetrizer_deg_bound(Du, f))
                fgu = FormalGroupLaw(ctxu, "universal")

                def univ(fgu=fgu, e=e, f=f, rk=rk):
                    rep = thom_porteous_class(fgu, e, f, rk)
                    return rep.ok, None if rep.ok else str(rep.differences)
                r.record("universal internal assertion [e=%d f=%d r=%d]"
                         % (e, f, rk), univ)

                # additive: exact class vs the classical references
                Da = max(rect_deg, 1)
                ctxa = RingContext(n_x=f, n_b=e, m_order=0,
                                   deg_bound=symmetrizer_deg_bound(Da, f))
                fga = FormalGroupLaw(ctxa, "additive")

                def additive(fga=fga, ctxa=ctxa, e=e, f=f, rk=rk,
                             rect_deg=rect_deg):
                    rep = thom_porteous_class(fga, e, f, rk)
                    if not rep.ok:
                        return False, "internal: " + str(rep.differences)
                    cls = rep.value
                    neg_b = [-Series.gen(ctxa, "b%d" % j) for j in range(1, e + 1)]
                    fs = oracles.factorial_schur(
                        ctxa, [e - rk] * (f - rk), f, b_values=neg_b)
                    ok, w = series_match(cls, fs.truncate(cls.bound))
                    if not ok:
                        return False, "vs factorial bialternant: %s" % w
                    if rect_deg <= det_degree_cap:
                        classes = oracles.chern_difference_classes(
                            ctxa, f, e, f - rk + max(e - rk - 1, 0))
                        det = oracles.jacobi_trudi_determinant(
                            classes, [f - rk] * (e - rk))
                        if det is None:
                            det = Series.const(ctxa, 1)
                        ok, w = series_match(cls, det.truncate(cls.bound))
                        if not ok:
                            return False, "vs relative Chern determinant: %s" % w
                    return True, None
                r.record("additive class = classical determinant [e=%d f=%d r=%d]"
                         % (e, f, rk), additive)
    return r.report()


# ---------------------------------------------------------------------------
# 10. Kempf-Laksov / Damon and the coefficient-extraction formula


def suite_kempf_laksov(max_d=3, max_n=4, max_weight=4, A=2):
    r = _Runner("kempf-laksov")
    for d in range(1, max_d + 1):
        for n in range(d, max_n + 1):
            done = set()
            for lam in partitions_up_to(max_weight, d):
                key = tuple(lam)
                if key in done:
                    continue
                done.add(key)
                bound = symmetrizer_deg_bound(max(sum(lam), 1), d)
                ctx = RingContext(n_x=d, n_b=n, m_order=A, deg_bound=bound)
                fgl = FormalGroupLaw(ctx, "universal")

                def kl(fgl=fgl, lam=lam, d=d, n=n):
                    kappa, damon = kempf_laksov_class(fgl, lam, d, n)
                    if not kappa.ok:
                        return False, "kappa paths: " + str(kappa.differences)
                    if not damon.ok:
                        return False, "damon paths: " + str(damon.differences)
                    return True, None
                r.record("kappa paths agree & Damon = Damon-type function "
                         "[lam=%r d=%d n=%d]" % (lam, d, n), kl)

                # additive specialization vs factorial Schur
                ctxa = RingContext(n_x=d, n_b=n, m_order=0, deg_bound=bound)
                fga = FormalGroupLaw(ctxa, "additive")

                def kl_add(fga=fga, ctxa=ctxa, lam=lam, d=d, n=n):
                    if len([p for p in lam if p]) > d:
                        return True, None
                    bvals = [Series.gen(ctxa, "b%d" % j) for j in range(1, n + 1)]
                    kappa, damon = kempf_laksov_class(fga, lam, d, n)
                    want = oracles.factorial_schur(ctxa, lam, d, b_values=bvals)
                    return series_match(damon.value,
                                        want.truncate(damon.value.bound))
                r.record("additive Damon class = factorial Schur "
                         "[lam=%r d=%d n=%d]" % (lam, d, n), kl_add)

    # Darondeau-Pragacz extraction vs the direct symmetrizer
    D = 3
    for n in range(2, 4):
        for rr in (1, 2):
            if rr > n:
                continue
            cap = required_weight_cap(n, D, 1 - n - D - 2)
            wctx = RingContext(n_x=n, m_order=A, deg_bound=D, m_weight_cap=cap)
            wf = FormalGroupLaw(wctx, "universal")
            sbound = symmetrizer_deg_bound(D, n)
            sctx = RingContext(n_x=n, m_order=A, deg_bound=sbound,
                               m_weight_cap=min(sbound + 2 + n, 63))
            sf = FormalGroupLaw(sctx, "universal")

            def dp(wf=wf, sf=sf, wctx=wctx, sctx=sctx, rr=rr, n=n):
                for lam in partitions_up_to(2, rr):
                    exps = [(list(lam) + [0] * rr)[i] + (rr - 1 - i) + (n - rr)
                            for i in range(rr)]
                    got = darondeau_pragacz_pushforward(
                        wf, {tuple(exps): Series.const(wctx, 1)}, rr, n)
                    num = Series.const(sctx, 1)
                    for i, ee in enumerate(exps, start=1):
                        num = num * Series.gen(sctx, "x%d" % i) ** ee
                    direct = symmetrize(sf, num, SymmetrizerSpec.quotient(
                        (1,) * rr + (n - rr,)))
                    ok, w = series_match(got, direct, deg=min(D, direct.bound),
                                         wcap=sctx.m_weight_cap)
                    if not ok:
                        return False, "lam=%r: %s" % (lam, w)
                return True, None
            r.record("coefficient extraction = direct symmetrizer [r=%d n=%d]"
                     % (rr, n), dp)
    return r.report()


# ---------------------------------------------------------------------------
# 11. engine certificates


def suite_engine_certificates(samples=100, seed=5):
    r = _Runner("engine-certificates")
    rng = random.Random(seed)

    def roundtrip():
        for i in range(samples):
            n_x = rng.randrange(1, 4)
            ctx = RingContext(n_x=n_x, n_b=rng.randrange(0, 3),
                              m_order=rng.randrange(0, 3),
                              deg_bound=rng.randrange(2, 7),
                              scalars=tuple(s for s in ("t", "beta")
                                            if rng.random() < 0.5))
            s = _random_mixed_series(ctx, rng)
            back = Series.from_json(s.to_json())
            if not (back == s and back.bound == s.bound):
                return False, "sample %d" % i
        return True, None
    r.record("serialization round-trip on %d random series" % samples, roundtrip)

    def symmetry_homogeneity():
        A, D, n = 2, 4, 3
        ctx, fgl = _universal(n, 4, A, symmetrizer_deg_bound(D, n), scalars=("t",))
        outputs = {
            "schur-s(2,1)": (universal_schur_s(fgl, [2, 1], n, use_b=True), 3),
            "schur-p(2,1)": (universal_schur_p(fgl, [2, 1], n), 3),
            "schur-q(3,1)": (universal_schur_q(fgl, [3, 1], n), 4),
            "hl(2,2)": (universal_hall_littlewood(fgl, [2, 2], n), 4),
            "new-schur(2,2)": (new_universal_schur(fgl, [2, 2], n, use_b=True), 4),
            "schur-kl(2,1)": (universal_schur_kl(fgl, [2, 1], n, use_b=True), 3),
        }
        for name, (val, degree) in outputs.items():
            if not val.is_homogeneous(degree):
                return False, "%s not homogeneous of degree %d" % (name, degree)
            for w in itertools.permutations(range(1, n + 1)):
                if not (val.act_permutation(Permutation(w)) == val):
                    return False, "%s not symmetric under %r" % (name, w)
        return True, None
    r.record("symmetry and homogeneity of the families", symmetry_homogeneity)

    def zero_remainder():
        # divisibility certificate: the engine raises on any nonzero
        # remainder, so a completed sweep is the certificate
        A, D = 2, 4
        for n in (2, 3):
            ctx, fgl = _universal(n, n + 2, A, symmetrizer_deg_bound(D, n),
                                  scalars=("t",))
            for lam in partitions_up_to(3, n):
                universal_schur_s(fgl, lam, n)
                universal_hall_littlewood(fgl, lam, n)
                new_universal_schur(fgl, lam, n, use_b=True)
        return True, None
    r.record("zero Vandermonde remainder across family sweep", zero_remainder)
    return r.report()


def _random_mixed_series(ctx, rng, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = {}
        budget = ctx.deg_bound
        for nm in ctx.gen_names:
            if nm.startswith("m") and ctx.m_weight_cap:
                e = rng.randrange(0, 2)
            elif nm in ("t", "beta"):
                e = rng.randrange(0, 3)
            else:
                e = rng.randrange(0, min(3, budget + 1))
                budget -= e
            if e:
                exps[nm] = e
        try:
            key = ctx.key_from_exps(exps)
        except Exception:
            continue
        num = rng.randrange(-99, 100)
        den = rng.randrange(1, 12)
        c = Fraction(num, den)
        if c == 0:
            continue
        terms[key] = terms.get(key, 0) + c
    from .ring import _normalize_coeff
    return Series(ctx, {k: _normalize_coeff(c) for k, c in terms.items() if c != 0},
                  ctx.deg_bound)


SUITES = {
    "fgl-axioms": (suite_fgl_axioms, "formal-group-law axioms and series"),
    "empty-partition": (suite_empty_partition, "empty-partition expansion coefficients"),
    "hl-collapse": (suite_hl_collapse, "Hall-Littlewood t = 1, 0, -1 collapse"),
    "additive-square": (suite_additive_square, "additive specialization vs classical oracles"),
    "multiplicative-square": (suite_multiplicative_square, "multiplicative specialization vs Grothendieck"),
    "gysin-functoriality": (suite_gysin_functoriality, "pushforward functoriality and closed forms"),
    "feldman": (suite_feldman, "juxtaposition pushforward identity"),
    "residue-segre": (suite_residue_segre, "residue formula and Segre window"),
    "thom-porteous": (suite_thom_porteous, "degeneracy-locus rectangle classes"),
    "kempf-laksov": (suite_kempf_laksov, "resolution classes and coefficient extraction"),
    "engine-certificates": (suite_engine_certificates, "remainders, symmetry, serialization"),
}


def run_suite(name, **caps):
    if name not in SUITES:
        raise KeyError("unknown suite %r" % (name,))
    fn, _ = SUITES[name]
    return fn(**caps)
