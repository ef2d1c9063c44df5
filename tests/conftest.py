import random
from fractions import Fraction

import pytest

from cobschur import RingContext, Series, FormalGroupLaw


@pytest.fixture
def small_ctx():
    return RingContext(n_x=3, n_b=2, m_order=2, deg_bound=6, scalars=("t",))


@pytest.fixture
def ufgl(small_ctx):
    return FormalGroupLaw(small_ctx, "universal")


def random_series(ctx, rng, max_terms=5, zero_const=False):
    terms = {}
    names = ["x%d" % i for i in range(1, ctx.n_x + 1)]
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = {}
        budget = ctx.deg_bound
        for nm in names:
            e = rng.randrange(0, 3)
            budget -= e
            if budget < 0:
                break
            if e:
                exps[nm] = e
        if zero_const and not exps:
            exps[names[0]] = 1
        try:
            key = ctx.key_from_exps(exps)
        except Exception:
            continue
        c = rng.randrange(-4, 5)
        if c:
            terms[key] = terms.get(key, 0) + c
    terms = {k: c for k, c in terms.items() if c != 0}
    if zero_const:
        terms.pop(0, None)
    if not terms:
        terms = {ctx.key_from_exps({names[0]: 1}): 1}
    return Series(ctx, terms, ctx.deg_bound)


def graded_component(series, d):
    """Terms of graded total degree d (deg m_i = -i, deg beta = -1)."""
    ctx = series.ctx
    t = {k: c for k, c in series.terms.items() if ctx.key_total_degree(k) == d}
    return Series(ctx, t, series.bound)


def sympy_exp_coefficients(top):
    """[0, 1, e_2, ..., e_top] with exp(y) = sum_k e_k y^k the inverse of
    log(y) = y + m1 y^2 + m2 y^3 + m3 y^4 over Q[m1, m2, m3], as sympy
    expressions solved order by order from log(exp(y)) = y."""
    import sympy
    y, a = sympy.symbols("y a")
    log_c = [0, 1] + list(sympy.symbols("m1:4"))
    exp_c = [0, 1]
    for n in range(2, top + 1):
        E = sum(c * y ** k for k, c in enumerate(exp_c)) + a * y ** n
        lhs = sum(log_c[k] * E ** k for k in range(1, min(n, 4) + 1))
        eq = sympy.expand(lhs).coeff(y, n)
        exp_c.append(sympy.expand(sympy.solve(eq, a)[0]))
    return exp_c


def to_sympy(f):
    """A Series as a sympy expression in symbols named after its generators."""
    import sympy
    out = sympy.Integer(0)
    for key, c in f.terms.items():
        term = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        for name, e in f.ctx.exps_from_key(key).items():
            term *= sympy.Symbol(name) ** e
        out += term
    return out
