import functools
import random
from fractions import Fraction

import pytest

from cobschur import RingContext, Series, FormalGroupLaw
from conftest import random_series, sympy_exp_coefficients, to_sympy


def make(mode, n_x=2, A=3, D=6, scalars=(), aux=()):
    sc = list(scalars)
    if mode == "multiplicative" and "beta" not in sc:
        sc.append("beta")
    ctx = RingContext(n_x=n_x, m_order=A if mode == "universal" else 0,
                      deg_bound=D, scalars=tuple(sc), aux=aux)
    return ctx, FormalGroupLaw(ctx, mode)


class TestFormalSum:
    def test_additive(self):
        ctx, f = make("additive")
        x1, x2 = Series.gen(ctx, "x1"), Series.gen(ctx, "x2")
        assert f.formal_sum(x1, x2) == x1 + x2

    def test_multiplicative(self):
        ctx, f = make("multiplicative")
        x1, x2 = Series.gen(ctx, "x1"), Series.gen(ctx, "x2")
        beta = Series.gen(ctx, "beta")
        assert f.formal_sum(x1, x2) == x1 + x2 + beta * x1 * x2

    def test_unit(self):
        ctx, f = make("universal")
        x1 = Series.gen(ctx, "x1")
        assert f.formal_sum(x1, Series.zero(ctx)) == x1


class TestFormalInverse:
    def test_additive(self):
        ctx, f = make("additive")
        x1 = Series.gen(ctx, "x1")
        assert f.formal_inverse(x1) == -x1

    def test_multiplicative_geometric_shape(self):
        # solve x + i + beta*x*i = 0 order by order: i = -x + bx^2 - b^2x^3...
        ctx, f = make("multiplicative", D=4)
        x1 = Series.gen(ctx, "x1")
        beta = Series.gen(ctx, "beta")
        want = -x1 + beta * x1 ** 2 - beta ** 2 * x1 ** 3 + beta ** 3 * x1 ** 4
        assert f.formal_inverse(x1) == want

    def test_universal_low_order(self):
        # brute-force solve F(x, i) = 0: i = -x + a_{1,1} x^2 + O(x^3)
        # with a_{1,1} = -2 m1
        ctx, f = make("universal", D=2)
        x1 = Series.gen(ctx, "x1")
        m1 = Series.gen(ctx, "m1")
        assert f.formal_inverse(x1) == -x1 - 2 * m1 * x1 ** 2

    def test_sum_with_inverse_vanishes(self):
        ctx, f = make("universal", D=5)
        x1 = Series.gen(ctx, "x1")
        assert f.formal_sum(x1, f.formal_inverse(x1)).is_zero()


class TestLogExp:
    def test_additive_log_is_identity(self):
        ctx, f = make("additive")
        x1 = Series.gen(ctx, "x1")
        assert f.logarithm(x1) == x1 and f.exponential(x1) == x1

    def test_multiplicative_log(self):
        ctx, f = make("multiplicative", D=4)
        x1 = Series.gen(ctx, "x1")
        beta = Series.gen(ctx, "beta")
        want = (x1 - (beta * x1 ** 2).scale(Fraction(1, 2))
                + (beta ** 2 * x1 ** 3).scale(Fraction(1, 3))
                - (beta ** 3 * x1 ** 4).scale(Fraction(1, 4)))
        assert f.logarithm(x1) == want

    def test_exp_log_round_trip(self):
        ctx, f = make("universal", D=6)
        x1 = Series.gen(ctx, "x1")
        assert f.exponential(f.logarithm(x1)) == x1
        assert f.logarithm(f.exponential(x1)) == x1

    def test_log_additivity_random(self):
        ctx, f = make("universal", n_x=2, A=2, D=5)
        rng = random.Random(9)
        for _ in range(4):
            a = random_series(ctx, rng, zero_const=True)
            b = random_series(ctx, rng, zero_const=True)
            assert f.logarithm(f.formal_sum(a, b)) == f.logarithm(a) + f.logarithm(b)


class TestNSeriesTSeries:
    def test_one_series_identity(self):
        ctx, f = make("universal")
        x1 = Series.gen(ctx, "x1")
        assert f.n_series(1, x1) == x1

    def test_additive_n_series(self):
        ctx, f = make("additive")
        x1 = Series.gen(ctx, "x1")
        assert f.n_series(5, x1) == x1.scale(5)

    def test_universal_two_series(self):
        ctx, f = make("universal", D=2)
        x1 = Series.gen(ctx, "x1")
        m1 = Series.gen(ctx, "m1")
        assert f.n_series(2, x1) == 2 * x1 - 2 * m1 * x1 ** 2
        assert f.n_series(2, x1) == f.formal_sum(x1, f.n_series(1, x1))

    def test_recursion(self):
        ctx, f = make("universal", A=2, D=4)
        x1 = Series.gen(ctx, "x1")
        prev = x1
        for n in range(2, 6):
            cur = f.n_series(n, x1)
            assert cur == f.formal_sum(x1, prev)
            prev = cur

    def test_multiplicative_t_series(self):
        # [t](x) = sum_i t(t-1)...(t-i+1)/i! * beta^{i-1} x^i
        ctx, f = make("multiplicative", D=3, scalars=("t",))
        x1 = Series.gen(ctx, "x1")
        t = Series.gen(ctx, "t")
        beta = Series.gen(ctx, "beta")
        got = f.t_series(x1)
        want = (t * x1 + (t * (t - 1) * beta * x1 ** 2).scale(Fraction(1, 2))
                + (t * (t - 1) * (t - 2) * beta ** 2 * x1 ** 3).scale(Fraction(1, 6)))
        assert got == want

    def test_t_series_evaluations(self):
        ctx, f = make("universal", A=2, D=4, scalars=("t",))
        x1 = Series.gen(ctx, "x1")
        ts = f.t_series(x1)
        assert ts.substitute_gen("t", -1) == f.formal_inverse(x1)
        assert ts.substitute_gen("t", 0).is_zero()
        assert ts.substitute_gen("t", 1) == x1
        assert ts.substitute_gen("t", 3) == f.n_series(3, x1)


class TestACoefficients:
    def test_additive_all_zero(self):
        ctx, f = make("additive")
        assert f.a_coefficient(1, 1).is_zero()
        assert f.a_coefficient(2, 3).is_zero()

    def test_multiplicative_single(self):
        ctx, f = make("multiplicative")
        beta = Series.gen(ctx, "beta")
        assert f.a_coefficient(1, 1) == beta
        assert f.a_coefficient(1, 2).is_zero()
        assert f.a_coefficient(2, 2).is_zero()

    def test_universal_low_coefficients(self):
        ctx, f = make("universal")
        m1, m2 = Series.gen(ctx, "m1"), Series.gen(ctx, "m2")
        assert f.a_coefficient(1, 1) == -2 * m1
        assert f.a_coefficient(1, 2) == 4 * m1 ** 2 - 3 * m2
        assert f.a_coefficient(1, 2) == f.a_coefficient(2, 1)


class TestInvariantDifferential:
    def test_additive_is_one(self):
        ctx, f = make("additive", aux=("s",))
        assert f.invariant_differential_denominator("s") == Series.const(ctx, 1)

    def test_multiplicative(self):
        ctx, f = make("multiplicative", aux=("s",))
        s, beta = Series.gen(ctx, "s"), Series.gen(ctx, "beta")
        assert f.invariant_differential_denominator("s") == 1 + beta * s

    def test_universal_order_one(self):
        ctx, f = make("universal", aux=("s",))
        s, m1 = Series.gen(ctx, "s"), Series.gen(ctx, "m1")
        got = f.invariant_differential_denominator("s").truncate(1)
        assert got == 1 - 2 * m1 * s


def specialization_assignment(fgl, target):
    """m-assignments realizing the additive/multiplicative collapse."""
    ctx = fgl.ctx
    if target == "additive":
        return {"m%d" % i: 0 for i in range(1, ctx.m_order + 1)}
    if target == "multiplicative":
        beta = Series.gen(ctx, "beta")
        return {"m%d" % i: (beta ** i).scale(Fraction((-1) ** i, i + 1))
                for i in range(1, ctx.m_order + 1)}
    raise ValueError("unknown specialization %r" % (target,))


class TestSpecialize:
    def test_additive_assignment_on_sum(self):
        ctx, f = make("universal", A=2, D=4)
        x1, x2 = Series.gen(ctx, "x1"), Series.gen(ctx, "x2")
        s = f.formal_sum(x1, x2)
        assert s.specialize(specialization_assignment(f, "additive")) == x1 + x2

    def test_multiplicative_assignment_on_log(self):
        ctx = RingContext(n_x=1, m_order=3, deg_bound=4, scalars=("beta",))
        f = FormalGroupLaw(ctx, "universal")
        x1, beta = Series.gen(ctx, "x1"), Series.gen(ctx, "beta")
        got = f.logarithm(x1).specialize(specialization_assignment(f, "multiplicative"))
        want = (x1 - (beta * x1 ** 2).scale(Fraction(1, 2))
                + (beta ** 2 * x1 ** 3).scale(Fraction(1, 3))
                - (beta ** 3 * x1 ** 4).scale(Fraction(1, 4)))
        assert got == want

    def test_custom_mode(self):
        ctx = RingContext(n_x=1, deg_bound=3)
        f = FormalGroupLaw(ctx, "custom", {1: Fraction(1, 2)})
        x1 = Series.gen(ctx, "x1")
        assert f.logarithm(x1) == x1 + (x1 ** 2).scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# The exponential's table against undetermined coefficients, and the
# coefficients of F against sympy.


def reference_exp_table(f):
    """Solve log(exp(y)) = y order by order on a one-variable ring in y,
    then move each y^k coefficient into the law's context."""
    from cobschur.fgl import _log_table
    ctx = f.ctx
    B = ctx.deg_bound
    if B < 1:
        return [None, Series.const(ctx, 1)]
    sc = RingContext(n_x=0, m_order=ctx.m_order, deg_bound=B,
                     scalars=ctx.scalars, aux=("y",),
                     m_weight_cap=ctx.m_weight_cap, t_bound=ctx.t_bound)
    log = _log_table(sc, f.mode, f._custom)
    y = Series.gen(sc, "y")
    unit = sc.gen_unit("y")

    def coefficient(series, k):
        return Series(sc, {key - k * unit: c for key, c in series.terms.items()
                           if sc.key_exp(key, "y") == k}, series.bound)

    E = y
    for n in range(2, B + 1):
        err, power = -y, Series.const(sc, 1)
        for k in range(1, B + 1):
            power = power * E
            err = err + log[k] * power
        cn = coefficient(err, n)
        if not cn.is_zero():
            E = E - cn * y ** n
    # each y^k coefficient is a polynomial in m/beta: move it by names
    return [None] + [Series(ctx, {ctx.key_from_exps(sc.exps_from_key(key)): c
                                  for key, c in coefficient(E, k).terms.items()},
                            ctx.deg_bound) for k in range(1, B + 1)]


@pytest.mark.parametrize("mode", ["universal", "additive", "multiplicative",
                                  "custom"])
def test_exp_table_matches_undetermined_coefficients(mode):
    for B in (0, 1, 2, 5, 8, 11):
        for W in (None, 3, 7):
            ctx = RingContext(n_x=1, m_order=4 if mode == "universal" else 0,
                              deg_bound=B, m_weight_cap=W,
                              scalars=("beta",) if mode == "multiplicative" else ())
            f = FormalGroupLaw(ctx, mode, {1: Fraction(1, 2), 3: Fraction(-2, 3)}
                               if mode == "custom" else None)
            want = reference_exp_table(f)
            assert len(f._exp) == len(want)
            for got, ref in zip(f._exp[1:], want[1:]):
                assert got == ref and got.bound == ref.bound


@functools.lru_cache(maxsize=None)
def _sympy_f_coefficients(conj_v, top=6):
    """{(p, q): u^p v^q coefficient} of F(u, v) or F(u, conj v) to degree
    ``top``, for log(y) = y + m1 y^2 + m2 y^3 + m3 y^4 over Q[m1, m2, m3]."""
    import sympy
    from sympy.polys.rings import ring
    K = sympy.QQ["m1", "m2", "m3"]
    R, u, v = ring("u,v", K)
    log_c = [0, 1] + [R(m) for m in K.gens] + [0] * top
    exp_c = [R(K.from_sympy(c)) for c in sympy_exp_coefficients(top)]

    def power_series(coeffs, a):
        # sum_k coeffs[k] a^k, cut above (u, v)-degree top
        acc, power = R(0), R(1)
        for k in range(1, top + 1):
            power = R({mon: c for mon, c in (power * a).items()
                       if sum(mon) <= top})
            acc += coeffs[k] * power
        return acc

    vv = power_series(exp_c, -power_series(log_c, v)) if conj_v else v
    F = power_series(exp_c, power_series(log_c, u) + power_series(log_c, vv))
    return {pq: K.to_sympy(c) for pq, c in F.items()}


@pytest.mark.parametrize("W", [0, 1, 2, 3, 4, 5])
def test_f_coefficients_match_sympy(W):
    import sympy
    ctx = RingContext(n_x=1, m_order=3, deg_bound=4, m_weight_cap=W)
    f = FormalGroupLaw(ctx, "universal")
    # a_{p,q} has weight p + q - 1, so the cap W keeps all of it or nothing
    want = _sympy_f_coefficients(False)
    for p in range(1, W + 1):
        for q in range(1, W + 2 - p):
            got = sympy.expand(to_sympy(f.a_coefficient(p, q)))
            assert got == want.get((p, q), 0)
    want = _sympy_f_coefficients(True)
    table = f._f_table(conj_v=True)
    assert set(table) == {pq for pq in want if sum(pq) <= W + 1}
    for pq, c in table.items():
        assert sympy.expand(to_sympy(c)) == want[pq]
