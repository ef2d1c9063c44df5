"""Formal group laws in logarithm representation.

Every mode is described by the coefficients of its logarithm

    log(y) = y + sum_{i >= 1} c_i y^{i+1},

from which the exponential (compositional inverse), the two-variable
formal sum F(u, v) = exp(log u + log v), the formal inverse, and the
n- and t-series are derived.  Modes:

    universal       c_i = m_i for i <= A, the free generators (this is
                    the rational Lazard ring, truncated at index A)
    additive        c_i = 0, so F(u, v) = u + v
    multiplicative  c_i = (-beta)^i / (i+1), so F(u, v) = u + v + beta*u*v
    custom          c_i = explicit rationals supplied by the caller

Each table is built one way.  The logarithm's and the exponential's
coefficient tables live in the law's own context: the exponential is
solved from the logarithm by a power-table recursion (_exp_table).  The
coefficients of F(u, v) and of F(u, conj v) come from one expansion each
on a nested scratch law over a ring in u, v, grouped into a table
{(p, q): coefficient} over the law's context (_f_table); a_{p,q} is a
look-up in it.

All derived tables are cached on the instance and immutable afterwards,
so a FormalGroupLaw is safe to share between concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import (RingContext, Series, TruncationError, ContextMismatch,
                   MAX_DEG_BOUND)

MODES = ("universal", "additive", "multiplicative", "custom")


class FormalGroupLaw:
    def __init__(self, ctx, mode="universal", custom_log_coeffs=None):
        if mode not in MODES:
            raise ValueError("unknown mode %r" % (mode,))
        if mode == "universal" and ctx.m_order < 1:
            raise ValueError("universal mode needs m_order >= 1 in the context")
        if mode == "multiplicative" and "beta" not in ctx.scalars:
            raise ValueError("multiplicative mode needs the beta scalar")
        self.ctx = ctx
        self.mode = mode
        self._custom = dict(custom_log_coeffs or {})
        self._log = _log_table(ctx, mode, self._custom)
        self._exp = _exp_table(self._log)
        self._cache = {}

    # -- series application ---------------------------------------------

    def _apply_table(self, table, a):
        """Horner evaluation sum_k table[k] * a^k for a with no constant term."""
        if a.constant_term() != 0:
            raise TruncationError("argument must have zero constant term")
        top = min(a.bound, a.ctx.deg_bound)
        if top < 1:
            return Series.zero(a.ctx)
        acc = table[top] if top < len(table) else Series.zero(a.ctx)
        for k in range(top - 1, 0, -1):
            acc = acc * a
            c = table[k] if k < len(table) else None
            if c is not None and not c.is_zero():
                acc = acc + c
        return acc * a

    def logarithm(self, a):
        return self._apply_table(self._log, a)

    def exponential(self, a):
        return self._apply_table(self._exp, a)

    def formal_sum(self, a, b):
        """u +_L v = F(u, v) = exp(log u + log v)."""
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        return self.exponential(self.logarithm(a) + self.logarithm(b))

    def formal_inverse(self, a):
        """The unique series with a +_L inverse(a) = 0."""
        return self.exponential(-self.logarithm(a))

    def n_series(self, n, a):
        if not isinstance(n, int):
            raise ValueError("n must be an integer")
        return self.exponential(self.logarithm(a).scale(n))

    def t_series(self, a):
        """[t](x) = exp(t * log(x)) for the degree-0 parameter t."""
        if not self.ctx.has_gen("t"):
            raise ContextMismatch("context does not declare the t generator")
        t = Series.gen(self.ctx, "t")
        return self.exponential(t * self.logarithm(a))

    # -- cached per-generator data ----------------------------------------

    def x_gen(self, i):
        key = ("x", i)
        if key not in self._cache:
            self._cache[key] = Series.gen(self.ctx, "x%d" % i)
        return self._cache[key]

    def b_gen(self, i):
        key = ("b", i)
        if key not in self._cache:
            self._cache[key] = Series.gen(self.ctx, "b%d" % i)
        return self._cache[key]

    def x_inverse(self, i):
        """Cached formal inverse of the generator x_i."""
        key = ("xinv", i)
        if key not in self._cache:
            self._cache[key] = self.formal_inverse(self.x_gen(i))
        return self._cache[key]

    def pair_sum(self, i, j):
        """Cached x_i +_L conj(x_j)."""
        key = ("psum", i, j)
        if key not in self._cache:
            self._cache[key] = self.formal_sum(self.x_gen(i), self.x_inverse(j))
        return self._cache[key]

    def pair_unit(self, i, j):
        """The unit U with x_i +_L conj(x_j) = (x_i - x_j) * U."""
        key = ("punit", i, j)
        if key not in self._cache:
            self._cache[key] = self.pair_sum(i, j).exact_divide_linear(i, j)
        return self._cache[key]

    def pair_unit_inverse(self, i, j):
        key = ("puinv", i, j)
        if key not in self._cache:
            self._cache[key] = self.pair_unit(i, j).invert_unit()
        return self._cache[key]

    # -- coefficients of F ---------------------------------------------------

    def _f_table(self, conj_v=False):
        """F(u, v), or F(u, conj(v)), as {(p, q): x-free Series over this
        context}, the coefficient of u^p v^q.

        F is expanded once, on first use, by this law's scratch law over
        the ring in u, v at (u, v)-degree W + 1 (at most 60) for the weight
        cap W: a_{p,q} has weight p + q - 1, so every coefficient the cap
        keeps has p + q <= W + 1.
        """
        key = ("ftable", conj_v)
        if key not in self._cache:
            fg = self._cache.get("scratch")
            if fg is None:
                ctx = self.ctx
                sc = RingContext(
                    n_x=0, n_b=0, m_order=ctx.m_order,
                    deg_bound=min(ctx.m_weight_cap + 1, MAX_DEG_BOUND),
                    scalars=ctx.scalars, aux=("u", "v"),
                    m_weight_cap=ctx.m_weight_cap, t_bound=ctx.t_bound)
                fg = FormalGroupLaw(sc, self.mode, self._custom)
                self._cache["scratch"] = fg
            u, v = Series.gen(fg.ctx, "u"), Series.gen(fg.ctx, "v")
            if conj_v:
                v = fg.formal_inverse(v)
            F, sc = fg.formal_sum(u, v), fg.ctx
            # each coefficient is a polynomial in m/beta: move its exponent
            # fields slot by slot into this context's keys
            slots = [(sc._shifts[i], sc._slot_masks[i], self.ctx.gen_unit(nm))
                     for i, nm in enumerate(sc.gen_names)
                     if nm not in ("u", "v")]
            groups = {}
            for k, c in F.terms.items():
                base = sum(((k >> sh) & mask) * unit for sh, mask, unit in slots)
                pq = (sc.key_exp(k, "u"), sc.key_exp(k, "v"))
                groups.setdefault(pq, {})[base] = c
            self._cache[key] = {pq: Series(self.ctx, terms, self.ctx.deg_bound)
                                for pq, terms in groups.items()}
        return self._cache[key]

    def a_coefficient(self, i, j):
        """The coefficient a_{i,j} of u^i v^j in F(u, v), in this context.

        Returned as a Series in the m/beta generators (a rational for the
        explicit modes), looked up in the grouped F(u, v) table.  Requires
        i + j - 1 within the weight cap.  The first call builds that table
        for the whole cap W (see _f_table), so in a context with a large
        cap even a_{1,1} pays for it.
        """
        if i < 1 or j < 1:
            raise ValueError("a_{i,j} needs i, j >= 1")
        if i + j - 1 > self.ctx.m_weight_cap:
            raise TruncationError("a_{%d,%d} exceeds the weight cap" % (i, j))
        if i + j > MAX_DEG_BOUND:
            raise TruncationError("requested F-table degree too large")
        return self._f_table().get((i, j), Series.zero(self.ctx))

    def invariant_differential_denominator(self, var="s"):
        """1 + sum_i a_{i,1} s^i, equal to dF/dv at v = 0 and to 1/log'."""
        ctx = self.ctx
        if not ctx.has_gen(var):
            raise ContextMismatch("context must declare the auxiliary var %r" % var)
        s = Series.gen(ctx, var)
        # log'(s) = 1 + sum (i+1) c_i s^i, known to s-degree D - 1 since the
        # coefficient table stops at the context bound
        lp = Series.const(ctx, 1)
        for k in range(2, ctx.deg_bound + 1):
            c = self._log[k]
            if not c.is_zero():
                lp = lp + (s ** (k - 1) * c).scale(k)
        return lp.truncate(ctx.deg_bound - 1).invert_unit()


def _log_table(ctx, mode, custom):
    """[None, 1, c_1, ..., c_{B-1}]: the y^k coefficient of log(y) at index
    k for the context bound B.  Zero coefficients are kept so the Horner
    loops can run to the bound."""
    table = [None, Series.const(ctx, 1)]
    for i in range(1, ctx.deg_bound):
        if mode == "universal" and i <= ctx.m_order:
            c = Series.gen(ctx, "m%d" % i)
        elif mode == "multiplicative":
            c = (Series.gen(ctx, "beta") ** i).scale(Fraction((-1) ** i, i + 1))
        else:
            c = Series.const(ctx, custom.get(i, 0) if mode == "custom" else 0)
        table.append(c)
    return table


def _exp_table(log):
    """The exponential's table, e_k at index k, from the logarithm's.

    log(exp(y)) = y gives e_n = -sum_{k=2..n} c_{k-1} P[k][n] for n >= 2,
    with P[k][n] the y^n coefficient of exp(y)^k.  P[k][n] =
    sum_i e_i P[k-1][n-i] reads only e_i with i < n, and P[k] is needed
    only up to the last k with c_{k-1} nonzero.
    """
    one, B = log[1], len(log) - 1
    zero = Series.zero(one.ctx)
    top = max((k for k in range(2, B + 1) if not log[k].is_zero()), default=1)
    exp = [None, one]
    # power[k] = [P[k][0], ..., P[k][m]], with P[k][m] = 0 for m < k
    power = [None, exp] + [[zero] * k + [one] for k in range(2, top + 1)]
    for n in range(2, B + 1):
        for k in range(2, min(n - 1, top) + 1):
            prev = power[k - 1]
            power[k].append(sum((exp[i] * prev[n - i]
                                 for i in range(1, n - k + 2)), zero))
        exp.append(-sum((log[k] * power[k][n]
                         for k in range(2, min(n, top) + 1)), zero))
    return exp
