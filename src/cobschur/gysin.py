"""Gysin pushforwards, residues, Segre windows, and degeneracy-locus classes.

The flag-bundle pushforwards are coset symmetrizers (see schur.symmetrize).
The projective-bundle residue and the Darondeau-Pragacz extraction
expand "at infinity" in one auxiliary variable t = 1/u, and both read
the coefficients of one Segre series

    S(u) = sum_k S_k u^k = 1 / (omega(t) * prod_i F(t, conj(x_i)) / t),

with omega(t) = 1 + sum_p a_{p,1} t^p.  Give t and x_i degree 1, m_i
degree -i and beta degree -1: a_{p,q} has degree 1 - p - q, so every
factor is homogeneous of degree 0 and S_k is homogeneous of degree k.
So u is never a ring generator: S is computed at t = 1, as the inverse
of omega(1) * prod_i F(1, conj(x_i)), one Series in the law's own ring,
and S_k is its part of total degree k.  A monomial of the ring fixes
its degree, so this is exact modulo x-degree > D and weight > W, the
truncation of every product, and every window is finite because of that
truncation alone.  A custom law with nonzero log coefficients has
weight-0 a_{p,q}, so its factors are not homogeneous, and the window
functions reject it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .ring import Series, RingError, MAX_DEG_BOUND
from .schur import (SymmetrizerSpec, Partition, NotInvariant, symmetrize,
                    factorial_power, bracket_monomial, new_universal_schur,
                    universal_schur_kl, rho)


# windows read every a_{p,q} with p + q <= W + 1 off one F(u, v) table
MAX_WINDOW_CAP = MAX_DEG_BOUND - 1


class WindowExhausted(RingError):
    """A requested coefficient lies outside the representable u-window."""


# ---------------------------------------------------------------------------
# flag-bundle pushforwards


def pushforward_full_flag(fgl, f, n):
    """sum over all of S_n of w . [f / prod_{i<j} (x_i +_L conj(x_j))]."""
    return symmetrize(fgl, f, SymmetrizerSpec.quotient((1,) * n))


def pushforward_partial_flag(fgl, f, lam, n):
    """Coset sum over S_n / stab(lam) with block-separated denominator pairs."""
    lam = lam if isinstance(lam, Partition) else Partition(lam, n=n)
    return symmetrize(fgl, f, SymmetrizerSpec.quotient(lam.block_sizes))


def pushforward_between_flags(fgl, f, lam, n):
    """Blockwise symmetrization: sum over prod_r S_{m_r} with in-block pairs."""
    lam = lam if isinstance(lam, Partition) else Partition(lam, n=n)
    return symmetrize(fgl, f, SymmetrizerSpec.subgroup(lam.block_sizes))


def grassmannian_pushforward(fgl, f, q, n):
    """Sum over S_n / (S_q x S_{n-q}) with pairs {i <= q < j}."""
    if not 1 <= q <= n:
        raise ValueError("q out of range")
    return symmetrize(fgl, f, SymmetrizerSpec.quotient((q, n - q)))


# ---------------------------------------------------------------------------
# Laurent windows


class LaurentWindow:
    """A doubly-bounded expansion sum_{k_min <= k <= k_max} c_k u^k."""

    def __init__(self, ctx, var, k_min, k_max, coeffs):
        if k_min > k_max:
            raise ValueError("empty window: k_min > k_max")
        self.ctx = ctx
        self.var = var
        self.k_min = k_min
        self.k_max = k_max
        self.coeffs = {k: c for k, c in coeffs.items()
                       if k_min <= k <= k_max and not c.is_zero()}

    def coeff(self, k):
        if k < self.k_min or k > self.k_max:
            raise WindowExhausted(
                "coefficient u^%d outside window [%d, %d]"
                % (k, self.k_min, self.k_max))
        return self.coeffs.get(k, Series.zero(self.ctx))

    def to_json_dict(self):
        return {
            "var": self.var, "k_min": self.k_min, "k_max": self.k_max,
            "context": self.ctx.to_json_dict(),
            "coeffs": {str(k): self.coeffs[k].to_json_dict()["terms"]
                       for k in sorted(self.coeffs)},
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    def __repr__(self):
        return "<LaurentWindow %s^[%d..%d], %d nonzero>" % (
            self.var, self.k_min, self.k_max, len(self.coeffs))


def required_weight_cap(n, deg_bound, k_min):
    """Weight cap that keeps the window coefficients at u^k, k >= k_min, exact.

    Weight (deg m_i = -i, deg beta = -1) is never negative and adds under
    multiplication, so the terms of weight above W span an ideal, and a
    computation carried out modulo it is exact modulo it.  A value whose
    terms have total degree >= g has, at x-degree <= D, only terms of
    weight <= D - g.  The u^k coefficient of a window is homogeneous of
    total degree k >= k_min, so W = D + max(0, -k_min) keeps every term it
    has at x-degree <= D.  The cap does not depend on n.
    """
    return deg_bound + max(0, -k_min)


def _check_window_law(fgl):
    """The weight cap bounds a window only if every a_{p,q} has weight
    p + q - 1 (a custom law's log coefficients have weight 0), and F(u, v)
    must fit degree W + 1."""
    if fgl.mode == "custom" and any(fgl._custom.values()):
        raise ValueError("windows and residues need a graded law: a custom "
                         "law with nonzero log coefficients has unbounded windows")
    if fgl.ctx.m_weight_cap > MAX_WINDOW_CAP:
        raise WindowExhausted("windows need m_weight_cap <= %d (context has %d)"
                              % (MAX_WINDOW_CAP, fgl.ctx.m_weight_cap))


def _segre_parts(fgl, n):
    """{k: S_k} for every k the truncation keeps, read off S at t = 1.

    omega(1) = 1 + sum_p a_{p,1} and F(1, y) = 1 + y + sum a_{p,q} y^q
    with y = conj(x_i): a_{p,q} has weight p + q - 1, so p runs to the
    weight cap W and q to D.  Each factor is inverted on its own, which
    is several times faster than inverting their product.
    """
    ctx = fgl.ctx
    D, W = ctx.deg_bound, ctx.m_weight_cap
    one = Series.const(ctx, 1)
    omega = one
    for p in range(1, W + 1):
        omega = omega + fgl.a_coefficient(p, 1)
    acc = omega.invert_unit()
    for i in range(1, n + 1):
        xb = fgl.x_inverse(i)
        powers = [None, xb]
        while len(powers) <= D:
            powers.append(powers[-1] * xb)
        factor = one + xb
        for p in range(1, W + 1):
            for q in range(1, min(D, W + 1 - p) + 1):
                a = fgl.a_coefficient(p, q)
                if not a.is_zero():
                    factor = factor + a * powers[q]
        acc = acc * factor.invert_unit()
    parts = {}
    for key, c in acc.terms.items():
        parts.setdefault(ctx.key_total_degree(key), {})[key] = c
    return {k: Series(ctx, terms, acc.bound) for k, terms in parts.items()}


def segre_series(fgl, n, k_min, k_max):
    """The window of the Segre generating series sum_k S_k(x_n) u^k.

    The coefficient at u^k is the one-row Damon-type value S_k(x_n);
    coefficients with k above the context degree bound are not
    representable at this truncation.
    """
    ctx = fgl.ctx
    D = ctx.deg_bound
    _check_window_law(fgl)
    if k_min > k_max:
        raise ValueError("k_min exceeds k_max")
    if k_max > D:
        raise WindowExhausted(
            "coefficient u^%d has x-degree >= %d > bound %d; raise --deg"
            % (k_max, k_max, D))
    need = required_weight_cap(n, D, k_min)
    weighted = ctx.m_order > 0 or "beta" in ctx.scalars
    if weighted and ctx.m_weight_cap < need:
        raise WindowExhausted(
            "window needs m_weight_cap >= %d (context has %d)"
            % (need, ctx.m_weight_cap))
    return LaurentWindow(ctx, "u", k_min, k_max, _segre_parts(fgl, n))


def _aux_layers(fgl, f, aux):
    """{exponent tuple over the ``aux`` variables: x-free coefficient}.

    ``f`` is a Series in the aux variables or a dict already keyed by
    exponent tuples; either way every coefficient must be x-free.
    """
    ctx = fgl.ctx
    if isinstance(f, Series):
        layers = {}
        for key, c in f.terms.items():
            es = tuple(ctx.key_exp(key, nm) for nm in aux)
            base = key - sum(e * ctx.gen_unit(nm) for e, nm in zip(es, aux))
            layers.setdefault(es, {})[base] = c
        f = {es: Series(ctx, terms, f.bound) for es, terms in layers.items()}
    if any(ctx.key_exp(key, "x%d" % i) for c in f.values() for key in c.terms
           for i in range(1, ctx.n_x + 1)):
        raise ValueError("input coefficients must be x-free")
    return dict(f)


def _extract(ctx, poly, segre, n):
    """[t_1^{n-1} ... t_r^{n-1}] (poly(t) * prod_i S(1/t_i)).

    ``poly`` maps exponent tuples E to coefficients, ``segre`` maps k to
    S_k; the answer is sum_E poly[E] * prod_i S_{E_i + 1 - n}.
    """
    out = None
    for es, c in poly.items():
        for e in es:
            s = segre.get(e + 1 - n)
            if s is None:
                break
            c = c * s
        else:
            if not c.is_zero():
                out = c if out is None else out + c
    return out if out is not None and not out.is_zero() else Series.zero(ctx)


def projective_residue(fgl, f, n, var="s"):
    """Residue at the origin of f(t) dt / (omega-unit * prod (t +_L conj x_i)).

    ``f`` is either a polynomial in the auxiliary variable ``var`` with
    x-free coefficients, or a dict {exponent: coefficient Series} (needed
    when the t-degree exceeds the context degree bound).  Expansion is at
    infinity (every x_i / t small): the residue of t^e is S_{e+1-n}, so
    the answer is sum_e f_e * S_{e+1-n}.
    """
    _check_window_law(fgl)
    if not isinstance(f, Series):
        f = {(e,): c for e, c in f.items()}
    return _extract(fgl.ctx, _aux_layers(fgl, f, (var,)),
                    _segre_parts(fgl, n), n)


# ---------------------------------------------------------------------------
# multivariate windows (Darondeau-Pragacz extraction)


def _mwmul(A, B, top):
    """Product of two polynomials keyed by exponent tuples, dropping every
    key with an exponent above ``top``."""
    out = {}
    for ja, a in A.items():
        for jb, b in B.items():
            j = tuple(x + y for x, y in zip(ja, jb))
            if max(j) > top:
                continue
            p = a * b
            if p.is_zero():
                continue
            out[j] = out[j] + p if j in out else p
    return {j: c for j, c in out.items() if not c.is_zero()}


def _tsum_window(fgl, pos_i, pos_j, r):
    """(t_j +_L conj(t_i)) as a polynomial in r variables: the u^p v^q
    coefficient of F(u, conj v) sits at t_j^p t_i^q."""
    out = {}
    for (p, q), c in fgl._f_table(conj_v=True).items():
        j = [0] * r
        j[pos_i - 1], j[pos_j - 1] = q, p
        out[tuple(j)] = c
    return out


def darondeau_pragacz_pushforward(fgl, f, r, n, var_prefix="s"):
    """Coefficient extraction form of the flag pushforward (tau^r)_*.

    [t_1^{n-1} ... t_r^{n-1}] ( f(t_1..t_r) * prod_{i<j} (t_j +_L conj t_i)
    * prod_i SegreSeries(1/t_i) ), with f a polynomial in the auxiliary
    variables var_prefix1..var_prefixr whose coefficients are x-free.
    """
    ctx = fgl.ctx
    D = ctx.deg_bound
    _check_window_law(fgl)
    if r > n:
        raise ValueError("r exceeds n")
    aux = ["%s%d" % (var_prefix, i) for i in range(1, r + 1)]
    # S_k = 0 for k > D, so no exponent above D + n - 1 reaches the answer
    top = D + n - 1
    acc = _aux_layers(fgl, f, aux)
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            acc = _mwmul(acc, _tsum_window(fgl, i, j, r), top)
    seg = segre_series(fgl, n, -n - D - 1, D)
    return _extract(ctx, acc, seg.coeffs, n)


# ---------------------------------------------------------------------------
# degeneracy-locus classes


class VerifiedClass:
    """A class together with the alternative computation that certifies it."""

    def __init__(self, name, value, alternates):
        self.name = name
        self.value = value
        self.alternates = dict(alternates)
        self.differences = {k: value - v for k, v in self.alternates.items()}
        self.ok = all(d.is_zero() for d in self.differences.values())

    def __repr__(self):
        return "<VerifiedClass %s ok=%s>" % (self.name, self.ok)


def thom_porteous_class(fgl, e, f, r):
    """Degeneracy-locus class for rank <= r maps between bundles of rank e, f.

    Pushes the top Chern class prod_{i<=f-r} prod_{j<=e} (x_i +_L conj(b_j))
    down the Grassmannian symmetrizer and certifies it against the direct
    Damon-type rectangle value with inverted parameters.
    """
    ctx = fgl.ctx
    if not (0 <= r <= min(e, f)):
        raise ValueError("need 0 <= r <= min(e, f)")
    if ctx.n_x < f or ctx.n_b < e:
        raise ValueError("context needs n_x >= %d and n_b >= %d" % (f, e))
    inv_b = [fgl.formal_inverse(fgl.b_gen(j)) for j in range(1, e + 1)]
    numerator = Series.const(ctx, 1)
    for i in range(1, f - r + 1):
        numerator = numerator * factorial_power(fgl, i, e, 0, inv_b)
    push = grassmannian_pushforward(fgl, numerator, f - r, f) if f > r else numerator
    lam = Partition([e - r] * (f - r), n=f)
    direct = new_universal_schur(fgl, lam, f, b_values=inv_b)
    return VerifiedClass("thom-porteous(e=%d,f=%d,r=%d)" % (e, f, r),
                         push, {"damon-rectangle": direct})


def kempf_laksov_class(fgl, lam, d, n):
    """Kempf-Laksov resolution class over a rank-d bundle inside rank n.

    Evaluates the partial-flag pushforward of [y|b]^{lam+rho_{r-1}+(d-r)^r}
    against the literal full S_d sum and the Kempf-Laksov-type family, plus
    the Damon variant (pushforward of the block monomial) against the
    Damon-type function; all paths must agree.
    """
    ctx = fgl.ctx
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    rr = lam.length
    if not (rr <= d <= n):
        raise ValueError("need len(lam) <= d <= n")
    if ctx.n_x < d or ctx.n_b < n:
        raise ValueError("context needs n_x >= %d and n_b >= %d" % (d, n))
    b_vals = [fgl.b_gen(j) for j in range(1, n + 1)]

    numerator = Series.const(ctx, 1)
    for i in range(1, rr + 1):
        numerator = numerator * factorial_power(
            fgl, i, lam.parts[i - 1] + d - i, 0, b_vals)
    stair = Partition(rho(rr), n=d)
    path1 = pushforward_partial_flag(fgl, numerator, stair, d)
    # independent of the coset reduction: the literal full S_d sum, which
    # counts each coset (d - rr)! times
    kl_pairs = SymmetrizerSpec.quotient((1,) * rr + (d - rr,)).pair_set
    path2 = symmetrize(fgl, numerator, SymmetrizerSpec.full(d, kl_pairs)).scale(
        Fraction(1, math.factorial(d - rr)))
    kl_family = universal_schur_kl(fgl, lam, d, b_values=b_vals)

    kappa = VerifiedClass("kempf-laksov(%r,d=%d,n=%d)" % (list(lam.parts[:rr]), d, n),
                          path1, {"coset-sum": path2, "kl-family": kl_family})

    lam_d = Partition(lam.parts[:rr], n=d)
    damon_push = pushforward_partial_flag(
        fgl, bracket_monomial(fgl, lam_d, b_vals), lam_d, d)
    damon_expected = new_universal_schur(fgl, lam_d, d, b_values=b_vals)
    damon = VerifiedClass("damon(%r,d=%d,n=%d)" % (list(lam.parts[:rr]), d, n),
                          damon_push, {"damon-type-function": damon_expected})
    return kappa, damon
