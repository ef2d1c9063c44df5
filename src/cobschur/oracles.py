"""Independent brute-force references for the classical symmetric functions.

These are the polynomials the universal families must collapse to under
the additive and multiplicative specializations.  They are deliberately
computed along routes disjoint from the coset-symmetrizer engine:
bialternant determinants, normalized full sums, orbit sums, and
set-valued tableau enumeration.  Only the plain ring primitives
(multiplication, exact linear division, unit inversion) are shared.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .ring import Series, Permutation, RemainderError, series_sum


def _pad(lam, n):
    lam = list(lam)
    if len(lam) > n and any(p for p in lam[n:]):
        raise ValueError("partition longer than n")
    return (lam + [0] * n)[:n]


def _vandermonde_divide(series, n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            series = series.exact_divide_linear(i, j)
    return series


def classical_schur(ctx, lam, n):
    """Bialternant det(x_i^{lam_j + n - j}) / det(x_i^{n - j})."""
    lam = _pad(lam, n)
    exps = [lam[j] + n - 1 - j for j in range(n)]
    det = Series.zero(ctx)
    for w in itertools.permutations(range(n)):
        sgn = Permutation([v + 1 for v in w]).sign()
        term = Series.const(ctx, sgn)
        for j in range(n):
            e = exps[j]
            if e:
                term = term * Series.gen(ctx, "x%d" % (w[j] + 1)) ** e
        det = det + term
    return _vandermonde_divide(det, n)


def _fact_row(ctx, i, k, b_values):
    """(x_i | b)^k = prod_{s=1..k} (x_i + b_s) in the additive convention."""
    acc = Series.const(ctx, 1)
    xi = Series.gen(ctx, "x%d" % i)
    for s in range(1, k + 1):
        if b_values is None:
            if s > ctx.n_b:
                raise ValueError("oracle needs b up to b%d" % s)
            b = Series.gen(ctx, "b%d" % s)
        else:
            b = b_values[s - 1] if s <= len(b_values) else Series.zero(ctx)
        acc = acc * (xi + b)
    return acc


def factorial_schur(ctx, lam, n, b_values=None):
    """Factorial Schur polynomial via the bialternant of (x|b)-powers.

    The parameters enter through products (x + b_s); callers identifying
    with the classical a-parameters use b_s = -a_s.
    """
    lam = _pad(lam, n)
    exps = [lam[j] + n - 1 - j for j in range(n)]
    det = Series.zero(ctx)
    for w in itertools.permutations(range(n)):
        sgn = Permutation([v + 1 for v in w]).sign()
        term = Series.const(ctx, sgn)
        for j in range(n):
            term = term * _fact_row(ctx, w[j] + 1, exps[j], b_values)
        det = det + term
    return _vandermonde_divide(det, n)


def monomial_symmetric(ctx, lam, n):
    """Orbit sum of x^lam."""
    lam = _pad(lam, n)
    out = Series.zero(ctx)
    for perm in set(itertools.permutations(lam)):
        out = out + Series.monomial(ctx, {"x%d" % (i + 1): e
                                          for i, e in enumerate(perm) if e})
    return out


def _t_factorial(ctx, m):
    """[m]_t! = prod_{j=1..m} (1 - t^j)/(1 - t), a polynomial in t."""
    t = Series.gen(ctx, "t")
    acc = Series.const(ctx, 1)
    for j in range(1, m + 1):
        acc = acc * series_sum(ctx, [t ** a for a in range(j)])
    return acc


def classical_hall_littlewood(ctx, lam, n):
    """Normalized full-sum Hall-Littlewood polynomial P_lam(x_n; t).

    (1/v_lam(t)) sum over all w of w.[x^lam prod_{i<j} (x_i - t x_j)
    / (x_i - x_j)], evaluated by moving every term over the Vandermonde
    (with the sign of w) and by exact polynomial division by v_lam(t).
    """
    lam = _pad(lam, n)
    t = Series.gen(ctx, "t")
    base = Series.const(ctx, 1)
    for i, e in enumerate(lam, start=1):
        if e:
            base = base * Series.gen(ctx, "x%d" % i) ** e
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            base = base * (Series.gen(ctx, "x%d" % i) - t * Series.gen(ctx, "x%d" % j))
    total = Series.zero(ctx)
    for w in itertools.permutations(range(1, n + 1)):
        perm = Permutation(w)
        total = total + base.act_permutation(perm).scale(perm.sign())
    total = _vandermonde_divide(total, n)
    # divide by v_lam(t) = prod over part-multiplicities of [m]_t!
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    v = Series.const(ctx, 1)
    for m in mult.values():
        v = v * _t_factorial(ctx, m)
    quotient = total * v.invert_unit()
    tdeg = quotient.var_degree("t")
    kept = {k: c for k, c in quotient.terms.items()
            if ctx.key_exp(k, "t") <= tdeg}
    quotient = Series(ctx, kept, quotient.bound)
    if not (quotient * v == total):
        raise RemainderError("Hall-Littlewood normalization is not exact")
    return quotient


def schur_p_polynomial(ctx, nu, n):
    """Classical Schur P: the Hall-Littlewood polynomial evaluated at t=-1."""
    nu = _pad(nu, n)
    core = [p for p in nu if p]
    if any(core[i] <= core[i + 1] for i in range(len(core) - 1)):
        raise ValueError("needs a strict partition")
    return classical_hall_littlewood(ctx, nu, n).substitute_gen("t", -1)


def schur_q_polynomial(ctx, nu, n):
    """Classical Schur Q via the full S_n sum with a doubled head.

    (1/(n-k)!) sum over w of w.[2^k x^nu prod_{i<=k, i<j<=n}
    (x_i + x_j)/(x_i - x_j)]; implemented with its own sign bookkeeping,
    independent of the formal-group symmetrizer.
    """
    nu = _pad(nu, n)
    core = [p for p in nu if p]
    k = len(core)
    if any(core[i] <= core[i + 1] for i in range(len(core) - 1)):
        raise ValueError("needs a strict partition")
    pair_set = [(i, j) for i in range(1, k + 1) for j in range(i + 1, n + 1)]
    all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    base = Series.const(ctx, 2 ** k)
    for i, e in enumerate(nu, start=1):
        if e:
            base = base * Series.gen(ctx, "x%d" % i) ** e
    for (i, j) in pair_set:
        base = base * (Series.gen(ctx, "x%d" % i) + Series.gen(ctx, "x%d" % j))
    total = Series.zero(ctx)
    for w in itertools.permutations(range(1, n + 1)):
        perm = Permutation(w)
        sign = 1
        covered = set()
        for (i, j) in pair_set:
            a, b = perm(i), perm(j)
            if a > b:
                a, b = b, a
                sign = -sign
            covered.add((a, b))
        term = base.act_permutation(perm).scale(sign)
        for (a, b) in all_pairs:
            if (a, b) not in covered:
                term = term * (Series.gen(ctx, "x%d" % a) - Series.gen(ctx, "x%d" % b))
        total = total + term
    total = _vandermonde_divide(total, n)
    return total.scale(Fraction(1, math.factorial(n - k)))


# ---------------------------------------------------------------------------
# factorial Grothendieck polynomials (set-valued tableaux)


def _beta_sum(ctx, a, b):
    beta = Series.gen(ctx, "beta")
    return a + b + beta * a * b


def _set_valued_tableaux(shape, n):
    """Yield set-valued semistandard fillings of the Young diagram.

    Rows weakly increase and columns strictly increase in the set-valued
    sense: max of a box <= min of its right neighbour, and max of a box
    < min of the box below.
    """
    boxes = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    subsets = []
    for bits in range(1, 1 << n):
        s = tuple(i + 1 for i in range(n) if bits >> i & 1)
        subsets.append((s, min(s), max(s)))

    def rec(idx, filling):
        if idx == len(boxes):
            yield dict(filling)
            return
        r, c = boxes[idx]
        for s, lo, hi in subsets:
            if c > 0:
                left = filling[(r, c - 1)]
                if max(left) > lo:
                    continue
            if r > 0 and (r - 1, c) in filling:
                up = filling[(r - 1, c)]
                if max(up) >= lo:
                    continue
            filling[(r, c)] = s
            yield from rec(idx + 1, filling)
            del filling[(r, c)]

    yield from rec(0, {})


def factorial_grothendieck(ctx, lam, n, b_values=None):
    """Set-valued-tableau sum for the factorial Grothendieck polynomial.

    Each entry r in box (i, j) contributes the beta-sum of x_r and
    b_{r+j-i}; a filling with an excess of E extra entries carries
    beta^E.  Shapes are kept small (the enumeration grows quickly).
    """
    lam = [p for p in lam if p]
    if sum(lam) > 9 or n > 5:
        raise ValueError("instance too large for tableau enumeration")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("shape must be a partition")
    beta = Series.gen(ctx, "beta")
    size = sum(lam)
    total = Series.zero(ctx)
    for filling in _set_valued_tableaux(lam, n):
        excess = sum(len(s) for s in filling.values()) - size
        term = beta ** excess if excess else Series.const(ctx, 1)
        for (r0, c0), entries in filling.items():
            content = c0 - r0  # 0-based box (row r0, column c0)
            for r in entries:
                xr = Series.gen(ctx, "x%d" % r)
                s = r + content
                if b_values is None:
                    b = Series.gen(ctx, "b%d" % s) if 1 <= s <= ctx.n_b else Series.zero(ctx)
                else:
                    b = b_values[s - 1] if 1 <= s <= len(b_values) else Series.zero(ctx)
                term = term * _beta_sum(ctx, xr, b)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# relative Chern class determinant (degeneracy-locus reference)


def chern_difference_classes(ctx, x_count, b_count, up_to):
    """c_k of the K-class difference with roots x_1..x_f minus b_1..b_e.

    Returns the list [c_0, c_1, ..., c_up_to] of (x,b)-degree components
    of prod (1 + x_i) / prod (1 + b_j).
    """
    num = Series.const(ctx, 1)
    for i in range(1, x_count + 1):
        num = num * (1 + Series.gen(ctx, "x%d" % i))
    den = Series.const(ctx, 1)
    for j in range(1, b_count + 1):
        den = den * (1 + Series.gen(ctx, "b%d" % j))
    total = num * den.invert_unit()
    out = []
    for k in range(up_to + 1):
        kept = {key: c for key, c in total.terms.items() if ctx.key_deg(key) == k}
        out.append(Series(ctx, kept, total.bound))
    return out


def jacobi_trudi_determinant(classes, row_offsets):
    """det(c_{row_offsets[i] + j - i}) over the given class list.

    ``row_offsets[i]`` is the subscript of the diagonal entry in row i
    (0-based); subscripts outside [0, len(classes)-1] contribute 0.
    """
    size = len(row_offsets)
    if size == 0:
        return None
    ctx = classes[0].ctx
    det = Series.zero(ctx)
    for w in itertools.permutations(range(size)):
        sgn = Permutation([v + 1 for v in w]).sign()
        term = Series.const(ctx, sgn)
        ok = True
        for i in range(size):
            k = row_offsets[i] + w[i] - i
            if k < 0 or k >= len(classes):
                ok = False
                break
            term = term * classes[k]
        if ok:
            det = det + term
    return det
