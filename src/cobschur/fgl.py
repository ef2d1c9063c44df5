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
        self._log = self._log_coefficients()
        self._exp = self._exp_coefficients()
        self._cache = {}

    # -- logarithm / exponential coefficient tables ---------------------

    def _log_coeff(self, i):
        """Coefficient of y^{i+1} in the logarithm, as a Series."""
        ctx = self.ctx
        if self.mode == "additive":
            return Series.zero(ctx)
        if self.mode == "universal":
            if i <= ctx.m_order:
                return Series.gen(ctx, "m%d" % i)
            return Series.zero(ctx)
        if self.mode == "multiplicative":
            beta = Series.gen(ctx, "beta")
            return (beta ** i).scale(Fraction((-1) ** i, i + 1))
        return Series.const(ctx, self._custom.get(i, 0))

    def _log_coefficients(self):
        # index k -> coefficient of y^k; trailing zero coefficients kept
        # so Horner loops can run to the context bound
        B = self.ctx.deg_bound
        table = [None, Series.const(self.ctx, 1)]
        for k in range(2, B + 1):
            table.append(self._log_coeff(k - 1))
        return table

    def _exp_coefficients(self):
        """Solve log(exp(y)) = y order by order (undetermined coefficients).

        Carried out on a scratch one-variable context; the y^k coefficients
        (polynomials in the m/beta generators) are then rebuilt over the
        main context.
        """
        ctx = self.ctx
        B = ctx.deg_bound
        if B < 1:
            return [None, Series.const(ctx, 1)]
        sc = RingContext(n_x=0, n_b=0, m_order=ctx.m_order, deg_bound=B,
                         scalars=ctx.scalars, aux=("y",),
                         m_weight_cap=min(ctx.m_weight_cap, 63),
                         t_bound=ctx.t_bound)
        fg = object.__new__(FormalGroupLaw)
        fg.ctx = sc
        fg.mode = self.mode
        fg._custom = self._custom
        fg._log = fg._log_coefficients()
        y = Series.gen(sc, "y")
        E = y
        for n in range(2, B + 1):
            err = fg._apply_table(fg._log, E) - y
            cn = _coefficient_of_power(err, "y", n)
            if not cn.is_zero():
                E = E - cn * y ** n
        out = [None]
        for k in range(1, B + 1):
            ck = _coefficient_of_power(E, "y", k)
            out.append(_rebuild(ck, ctx))
        return out

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
        """F(u, v), or F(u, conj(v)), over this law's scratch ring in u, v.

        The scratch ring and its law are built once, on first use, at
        (u, v)-degree W + 1 (at most 60) for the weight cap W: a_{p,q} has
        weight p + q - 1, so every coefficient the cap keeps has
        p + q <= W + 1.
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
            self._cache[key] = fg.formal_sum(u, v)
        return self._cache[key]

    def a_coefficient(self, i, j):
        """The coefficient a_{i,j} of u^i v^j in F(u, v), in this context.

        Returned as a Series in the m/beta generators (a rational for the
        explicit modes).  Requires i + j - 1 within the weight cap.  The
        first call builds F(u, v) for the whole cap W (see _f_table), so
        in a context with a large cap even a_{1,1} pays for that table.
        """
        key = ("a", i, j)
        if key not in self._cache:
            if i < 1 or j < 1:
                raise ValueError("a_{i,j} needs i, j >= 1")
            if i + j - 1 > self.ctx.m_weight_cap:
                raise TruncationError("a_{%d,%d} exceeds the weight cap" % (i, j))
            if i + j > MAX_DEG_BOUND:
                raise TruncationError("requested F-table degree too large")
            F = self._f_table()
            coeff = _coefficient_of_power(_coefficient_of_power(F, "u", i), "v", j)
            # an exact polynomial in m/beta, trusted to the full context bound
            terms = _rebuild(coeff, self.ctx).terms
            self._cache[key] = Series(self.ctx, terms, self.ctx.deg_bound)
        return self._cache[key]

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


def _coefficient_of_power(series, var, k):
    """Coefficient of var^k as a Series (var removed) over the same context."""
    ctx = series.ctx
    i = ctx._gen_index[var]
    sh, mask = ctx._shifts[i], ctx._slot_masks[i]
    unit = ctx._units[i]
    out = {}
    for key, c in series.terms.items():
        if (key >> sh) & mask == k:
            out[key - k * unit] = c
    return Series(ctx, out, series.bound)


def _rebuild(series, target_ctx):
    """Re-create a series over another context by generator names.

    Terms whose monomials exceed the target bounds are dropped, so this
    is a truncating transport; all real uses move polynomials in the
    m/beta/t generators whose weight fits the target cap.
    """
    out = {}
    for key, c in series.terms.items():
        exps = series.ctx.exps_from_key(key)
        try:
            nk = target_ctx.key_from_exps(exps)
        except TruncationError:
            continue
        out[nk] = out.get(nk, 0) + c
    return Series(target_ctx, {k: v for k, v in out.items() if v != 0},
                  min(series.bound, target_ctx.deg_bound))

