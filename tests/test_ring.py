import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobschur import (RingContext, Series, Permutation, ContextMismatch,
                      NotAUnit, RemainderError, TruncationError, series_sum)
from cobschur.ring import SLOT_BITS, _normalize_coeff
from cobschur.schur import coset_reps
from conftest import graded_component, random_series, to_sympy


def gens(ctx, *names):
    return tuple(Series.gen(ctx, n) for n in names)


class TestArithmetic:
    def test_product_difference_of_squares(self, small_ctx):
        x1, x2 = gens(small_ctx, "x1", "x2")
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_truncation_at_effective_bound(self, small_ctx):
        x1 = Series.gen(small_ctx, "x1", bound=1)
        assert (x1 * x1).is_zero()

    def test_grading_of_m_times_x_squared(self, small_ctx):
        s = Series.monomial(small_ctx, {"m1": 1, "x1": 2})
        key = next(iter(s.terms))
        assert small_ctx.key_deg(key) == 2
        assert small_ctx.key_total_degree(key) == 1

    def test_context_mismatch_raises(self, small_ctx):
        other = RingContext(n_x=2, deg_bound=6)
        with pytest.raises(ContextMismatch):
            Series.gen(small_ctx, "x1") + Series.gen(other, "x1")

    def test_zero_is_empty_series(self, small_ctx):
        z = Series.zero(small_ctx)
        assert z.is_zero() and (z + z).is_zero()
        assert Series.gen(small_ctx, "x1") + z == Series.gen(small_ctx, "x1")

    def test_constants_only_context(self):
        ctx = RingContext(n_x=0, deg_bound=0)
        assert (Series.const(ctx, 2) * Series.const(ctx, Fraction(1, 2))
                == Series.const(ctx, 1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_ring_axioms_random(sa, sb, sc):
    ctx = RingContext(n_x=2, m_order=1, deg_bound=4)
    ra, rb, rc = (random.Random(s) for s in (sa, sb, sc))
    a, b, c = (random_series(ctx, r) for r in (ra, rb, rc))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


class TestSubstitution:
    def test_renaming(self, small_ctx):
        x1, x2 = gens(small_ctx, "x1", "x2")
        f = x1 + x1 * x1
        assert f.substitute_gen("x1", x2) == x2 + x2 * x2

    def test_substitute_zero_gives_constant_term(self, small_ctx):
        f = Series.const(small_ctx, 3) + Series.gen(small_ctx, "x1")
        assert f.substitute_gen("x1", 0) == Series.const(small_ctx, 3)

    def test_nonzero_constant_term_rejected(self, small_ctx):
        f = sum((Series.gen(small_ctx, "x1") ** k for k in range(1, 7)),
                Series.zero(small_ctx))
        g = 1 + Series.gen(small_ctx, "x2")
        with pytest.raises(TruncationError):
            f.substitute_gen("x1", g)

    def test_rational_evaluation(self, small_ctx):
        f = Series.gen(small_ctx, "t") * Series.gen(small_ctx, "x1")
        got = f.substitute_gen("t", Fraction(-1))
        assert got == -Series.gen(small_ctx, "x1")


class TestInversion:
    def test_geometric_series(self, small_ctx):
        x1 = Series.gen(small_ctx, "x1")
        inv = (1 + x1).invert_unit()
        expect = sum(((-x1) ** k for k in range(1, 7)), Series.const(small_ctx, 1))
        assert inv == expect

    def test_constant_inverse(self, small_ctx):
        assert Series.const(small_ctx, 2).invert_unit() == Series.const(
            small_ctx, Fraction(1, 2))

    def test_round_trip(self, small_ctx):
        f = 1 + Series.monomial(small_ctx, {"m1": 1, "x1": 1})
        assert f * f.invert_unit() == Series.const(small_ctx, 1)

    def test_zero_constant_rejected(self, small_ctx):
        with pytest.raises(NotAUnit):
            Series.gen(small_ctx, "x1").invert_unit()


class TestLinearDivision:
    def test_difference_of_squares(self, small_ctx):
        x1, x2 = gens(small_ctx, "x1", "x2")
        q = (x1 * x1 - x2 * x2).exact_divide_linear(1, 2)
        assert q == x1 + x2

    def test_round_trip(self, small_ctx):
        x1, x2 = gens(small_ctx, "x1", "x2")
        s = x1 * x2 + Series.monomial(small_ctx, {"m1": 1, "x1": 2, "x2": 1})
        q = ((x1 - x2) * s).exact_divide_linear(1, 2)
        assert q == s.truncate(q.bound)
        assert q.bound == s.bound - 1

    def test_indivisible_raises(self, small_ctx):
        x1, x2 = gens(small_ctx, "x1", "x2")
        with pytest.raises(RemainderError):
            (x1 * x2).exact_divide_linear(1, 2)

    def test_remainder_error_names_the_monomial(self, small_ctx):
        f = Series.monomial(small_ctx, {"m1": 1, "x1": 4}, coeff=3)
        with pytest.raises(RemainderError, match=re.escape(
                "nonzero remainder 3*m1*x2^4 dividing by (x1 - x2)")):
            f.exact_divide_linear(1, 2)
        # x1^2 + x1*x2 leaves 2*x2^2 on dividing by (x1 - x2)
        x1, x2 = gens(small_ctx, "x1", "x2")
        with pytest.raises(RemainderError, match=re.escape(
                "nonzero remainder 2*x2^2 dividing by (x1 - x2)")):
            (x1 * x1 + x1 * x2).exact_divide_linear(1, 2)


class TestPermutationAction:
    def test_transposition(self, small_ctx):
        f = Series.monomial(small_ctx, {"x1": 1, "x2": 2})
        w = Permutation((2, 1, 3))
        assert f.act_permutation(w) == Series.monomial(small_ctx, {"x2": 1, "x1": 2})

    def test_symmetric_fixed(self, small_ctx):
        x1, x2, x3 = gens(small_ctx, "x1", "x2", "x3")
        e1 = x1 + x2 + x3
        for images in ((2, 1, 3), (3, 1, 2), (1, 3, 2)):
            assert e1.act_permutation(Permutation(images)) == e1

    def test_action_axiom(self, small_ctx):
        rng = random.Random(3)
        f = random_series(small_ctx, rng)
        w1, w2 = Permutation((2, 3, 1)), Permutation((1, 3, 2))
        assert (f.act_permutation(w2).act_permutation(w1)
                == f.act_permutation(w1 * w2))


class TestGradedComponent:
    def test_mixed_degree_one(self, small_ctx):
        f = (Series.gen(small_ctx, "x1")
             + Series.monomial(small_ctx, {"m1": 1, "x1": 2}))
        assert graded_component(f, 1) == f

    def test_missing_degree_is_zero(self, small_ctx):
        assert graded_component(Series.gen(small_ctx, "x1"), 2).is_zero()

    def test_b_counts_in_degree(self, small_ctx):
        f = Series.monomial(small_ctx, {"b1": 1, "x1": 1})
        assert graded_component(f, 2) == f


class TestSerialization:
    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(30):
            ctx = RingContext(n_x=rng.randrange(1, 4), n_b=rng.randrange(0, 3),
                              m_order=rng.randrange(0, 3),
                              deg_bound=rng.randrange(2, 6), scalars=("t",))
            s = random_series(ctx, rng)
            t = Series.from_json(s.to_json())
            assert t == s and t.bound == s.bound

    def test_canonical_output_is_deterministic(self, small_ctx):
        rng = random.Random(23)
        s = random_series(small_ctx, rng)
        assert s.to_json() == Series.from_json(s.to_json()).to_json()

    def test_text_format(self, small_ctx):
        s = Series.const(small_ctx, 1) - Series.monomial(
            small_ctx, {"m1": 1, "x1": 2}, coeff=2)
        assert s.text() == "1 - 2*m1*x1^2"

# ---------------------------------------------------------------------------
# Differential tests: the product and the linear division against the
# plain dict loops they replaced, kept here verbatim as references (the
# division expanded every term x_i^e into its e quotient terms), and the
# divided difference against the linear division and against sympy.


def reference_mul(self, other):
    if not isinstance(other, Series):
        return self.scale(other)
    self._check(other)
    ctx = self.ctx
    bound = min(self.bound, other.bound)
    a, b = self.terms, other.terms
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return Series.zero(ctx, bound)
    # bucket the bigger operand by (x,b)-degree so that truncated
    # products are skipped wholesale
    buckets = {}
    for k, c in b.items():
        buckets.setdefault(ctx.key_deg(k), []).append((k, c))
    degs = sorted(buckets)
    out = {}
    wcap = ctx.m_weight_cap
    wsh = ctx._w_shift
    wmask = ctx._w_mask
    tcheck = ctx._t_slot is not None and ctx.t_bound < ctx._slot_masks[ctx._t_slot]
    if tcheck:
        tsh = ctx._shifts[ctx._t_slot]
        tmask = ctx._slot_masks[ctx._t_slot]
        tb = ctx.t_bound
    for ka, ca in a.items():
        da = ctx.key_deg(ka)
        room = bound - da
        if room < 0:
            continue
        for db in degs:
            if db > room:
                break
            for kb, cb in buckets[db]:
                k = ka + kb
                if (k >> wsh) & wmask > wcap:
                    continue
                if tcheck and (k >> tsh) & tmask > tb:
                    continue
                v = out.get(k, 0) + ca * cb
                if v == 0:
                    out.pop(k, None)
                else:
                    out[k] = v
    for k in [k for k, v in out.items() if v == 0]:
        del out[k]
    return Series(self.ctx, {k: _normalize_coeff(v) for k, v in out.items()}, bound)


def reference_exact_divide_linear(self, i, j):
    """Exact quotient by (x_i - x_j); raises RemainderError otherwise.

    The quotient is trusted one degree lower than the input.
    """
    if i == j:
        raise ValueError("indices must differ")
    ctx = self.ctx
    ui = ctx._units[ctx._gen_index["x%d" % i]]
    uj = ctx._units[ctx._gen_index["x%d" % j]]
    shi = ctx._shifts[ctx._gen_index["x%d" % i]]
    mask = (1 << SLOT_BITS) - 1
    q = {}
    rem = {}
    for key, c in self.terms.items():
        e = (key >> shi) & mask
        if e:
            # c x_i^e R = (x_i - x_j) * c * sum_{k<e} x_i^k x_j^{e-1-k} R
            #             + c x_j^e R
            base = key - e * ui
            for k in range(e):
                nk = base + k * ui + (e - 1 - k) * uj
                v = q.get(nk, 0) + c
                if v == 0:
                    q.pop(nk, None)
                else:
                    q[nk] = v
            key = base + e * uj
        v = rem.get(key, 0) + c
        if v == 0:
            rem.pop(key, None)
        else:
            rem[key] = v
    if rem:
        raise RemainderError(
            "nonzero remainder dividing by (x%d - x%d)" % (i, j))
    return Series(ctx, q, self.bound - 1)


# exponent values: a series draws its x-exponents from one to three of
# them, so exponent vectors repeat entries (all-equal ones included), and
# 58-60 reach the top of the 6-bit slot that MAX_DEG_BOUND = 60 leaves
EXPONENTS = (0, 1, 2, 3, 7, 29, 30, 58, 59, 60)
NONZERO = st.integers(-4, 4).filter(bool)
COEFFS = st.one_of(NONZERO, st.builds(Fraction, NONZERO, st.integers(2, 5)))


def wide_ctx(n, deg_bound=60, m_weight_cap=None, t_bound=63):
    return RingContext(n_x=n, n_b=1, m_order=2, deg_bound=deg_bound,
                       scalars=("t",), m_weight_cap=m_weight_cap,
                       t_bound=t_bound)


@st.composite
def wide_series(draw, ctx, max_terms=10):
    """Int and Fraction coefficients on monomials in x, b1, t and m1."""
    palette = draw(st.lists(st.sampled_from(EXPONENTS), min_size=1,
                            max_size=3, unique=True))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {"x%d" % i: draw(st.sampled_from(palette))
                for i in range(1, ctx.n_x + 1)}
        exps.update(b1=draw(st.integers(0, 1)), t=draw(st.integers(0, 2)),
                    m1=draw(st.integers(0, 2)))
        if sum(e for nm, e in exps.items() if nm[0] in "xb") > ctx.deg_bound:
            continue
        key = ctx.key_from_exps(exps)
        terms[key] = _normalize_coeff(terms.get(key, 0) + draw(COEFFS))
    return Series(ctx, {k: c for k, c in terms.items() if c}, ctx.deg_bound)


def same_series(got, want):
    return got.terms == want.terms and got.bound == want.bound


def divide_both(f, i, j):
    """Both divisions agree in terms and bound, or both raise."""
    try:
        want = reference_exact_divide_linear(f, i, j)
    except RemainderError:
        with pytest.raises(RemainderError):
            f.exact_divide_linear(i, j)
        return None
    got = f.exact_divide_linear(i, j)
    assert same_series(got, want)
    return got


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_divide_linear_matches_reference(data):
    n = data.draw(st.integers(2, 4))
    ctx = wide_ctx(n)
    i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
    g = data.draw(wide_series(ctx))
    f = (Series.gen(ctx, "x%d" % i) - Series.gen(ctx, "x%d" % j)) * g
    if data.draw(st.booleans()):
        f = f + data.draw(wide_series(ctx, max_terms=2))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                divide_both(f, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vandermonde_division_of_orbit_sum_matches_reference(data):
    # an alternating sum over S_n divided by every x_i - x_j in turn is
    # the divided difference of the longest element, d_1 d_2 d_1 ... (the
    # symmetrizer's full-flag word)
    n = data.draw(st.integers(2, 4))
    ctx = wide_ctx(n)
    s = data.draw(wide_series(ctx, max_terms=4))
    total = Series.zero(ctx)
    for w in coset_reps(n, (1,) * n):
        total = total + s.act_permutation(w).scale(w.sign())
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = divide_both(total, i, j)
    want = s
    for top in range(n - 1, 0, -1):
        for p in range(1, top + 1):
            want = want.divided_difference(p, p + 1)
    assert same_series(total, want)


# exponents at the edges of the 6-bit slots: 29/30 and 59/60 straddle
# half of MAX_DEG_BOUND = 60 and its top
DD_EXPONENTS = (0, 1, 2, 29, 30, 59, 60)


@st.composite
def dd_series(draw, ctx, max_terms=6):
    """Int and Fraction coefficients on x, b1, t and m1 monomials; the
    x-exponents come from DD_EXPONENTS, in a drawn order of the
    variables, within the degree bound."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = dict(b1=draw(st.integers(0, 1)), t=draw(st.integers(0, 2)),
                    m1=draw(st.integers(0, 2)))
        room = ctx.deg_bound - exps["b1"]
        for i in draw(st.permutations(range(1, ctx.n_x + 1))):
            e = draw(st.sampled_from([e for e in DD_EXPONENTS if e <= room]))
            exps["x%d" % i] = e
            room -= e
        key = ctx.key_from_exps(exps)
        terms[key] = _normalize_coeff(terms.get(key, 0) + draw(COEFFS))
    return Series(ctx, {k: c for k, c in terms.items() if c}, ctx.deg_bound)


def swapped(f, i, j):
    images = list(range(1, f.ctx.n_x + 1))
    images[i - 1], images[j - 1] = j, i
    return f.act_permutation(images)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divided_difference_matches_linear_division(data):
    n = data.draw(st.integers(2, 4))
    ctx = wide_ctx(n)
    f = data.draw(dd_series(ctx))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                want = (f - swapped(f, i, j)).exact_divide_linear(i, j)
                assert same_series(f.divided_difference(i, j), want), (i, j)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_divided_difference_matches_sympy(data):
    import sympy
    n = data.draw(st.integers(2, 3))
    ctx = wide_ctx(n)
    symbols = {name: sympy.Symbol(name) for name in ctx.gen_names}
    # a linear factor puts several terms into one image group
    mix = series_sum(ctx, [Series.gen(ctx, "x%d" % k).scale(k) for k in range(1, n + 1)])
    f = data.draw(dd_series(ctx, max_terms=3)) * mix
    F = to_sympy(f)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                xi, xj = symbols["x%d" % i], symbols["x%d" % j]
                swap = F.subs({xi: xj, xj: xi}, simultaneous=True)
                want = sympy.cancel((F - swap) / (xi - xj))
                got = to_sympy(f.divided_difference(i, j))
                assert sympy.expand(got - want) == 0, (i, j)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    ctx = wide_ctx(n, deg_bound=data.draw(st.sampled_from((6, 60))),
                   m_weight_cap=3, t_bound=3)
    a = data.draw(wide_series(ctx, max_terms=2))
    b = data.draw(wide_series(ctx, max_terms=12))
    a = a.truncate(data.draw(st.integers(0, ctx.deg_bound)))
    assert same_series(a * b, reference_mul(a, b))
    assert same_series(b * a, reference_mul(a, b))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invert_unit_matches_sympy(data):
    # the inverse of c0 * (1 + g) is (1/c0) * sum_s (-g)^s, summed and
    # truncated to x-degree <= D and weight <= W in sympy
    import sympy
    D = data.draw(st.integers(2, 4))
    W = data.draw(st.integers(0, D - 1))
    ctx = RingContext(n_x=2, n_b=1, m_order=2, deg_bound=D,
                      scalars=("beta",), m_weight_cap=W)
    names = ("x1", "x2", "b1", "m1", "m2", "beta")
    terms = {0: data.draw(COEFFS)}
    for _ in range(data.draw(st.integers(1, 5))):
        # a product of one to three generators, so g has low-degree terms
        # and the geometric series runs long
        exps = dict.fromkeys(names, 0)
        for nm in data.draw(st.lists(st.sampled_from(names), min_size=1,
                                     max_size=3)):
            exps[nm] += 1
        deg = exps["x1"] + exps["x2"] + exps["b1"]
        weight = exps["m1"] + 2 * exps["m2"] + exps["beta"]
        if deg > D or weight > W:
            continue
        key = ctx.key_from_exps(exps)
        terms[key] = _normalize_coeff(terms.get(key, 0) + data.draw(COEFFS))
    f = Series(ctx, {k: c for k, c in terms.items() if c}, D)

    symbols = [sympy.Symbol(nm) for nm in names]

    def truncated(expr):
        poly = sympy.Poly(sympy.expand(expr), *symbols)
        return sum((c * sympy.prod(s ** e for s, e in zip(symbols, es))
                    for es, c in poly.terms()
                    if es[0] + es[1] + es[2] <= D
                    and es[3] + 2 * es[4] + es[5] <= W), sympy.Integer(0))

    c0 = sympy.Rational(Fraction(terms[0]).numerator, Fraction(terms[0]).denominator)
    neg_g = truncated(-(to_sympy(f) / c0 - 1))
    power, want = sympy.Integer(1), sympy.Integer(1)
    for _ in range(D + W):
        power = truncated(power * neg_g)
        want += power
    got = f.invert_unit()
    assert got.bound == D
    assert sympy.expand(to_sympy(got) - want / c0) == 0
