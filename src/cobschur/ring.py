"""Exact sparse arithmetic for truncated graded multivariate series over Q.

Generators and grading conventions used throughout the package:

    x1..x_nx, b1..b_nb   degree  1   (Chern-root style variables / parameters)
    auxiliary vars       degree  1   (scratch variables such as s, u, v)
    t                    degree  0   (Hall-Littlewood parameter)
    beta                 degree -1   (multiplicative / K-theoretic parameter)
    m1..m_A              degree -i   (free logarithm coefficients, m_i)

A Series stores a finite map {monomial -> nonzero rational} and an
``effective bound``: the (x,b)-degree up to which the value is trusted.
Terms above the context degree bound, above the negative-weight cap, or
above the t-exponent bound are discarded by every operation, so a Series
is always an element of the corresponding truncated quotient ring.
Coefficients are exact (Python int or Fraction); nothing here is
floating point.  Series values are treated as immutable after
construction, so they are safe to share between threads.

Monomials are packed into a single Python int: one small field per
generator exponent plus two derived fields, the (x,b)-degree and the
negative weight (sum of i * exp(m_i) + exp(beta)).  Both derived fields
are additive under monomial multiplication, which makes truncation tests
in the multiplication hot loop a couple of integer shifts.
"""

from __future__ import annotations

import json
from fractions import Fraction

SLOT_BITS = 6          # exponent field width for ordinary generators
T_SLOT_BITS = 8        # t gets a wider field (degree-0, exponents grow)
FIELD_BITS = 12        # width of the two derived fields

MAX_DEG_BOUND = 60     # keeps single-generator exponents inside 6 bits
MAX_WEIGHT_CAP = 63
MAX_T_BOUND = 127


class RingError(Exception):
    pass


class ContextMismatch(RingError):
    pass


class NotAUnit(RingError):
    pass


class RemainderError(RingError):
    """Exact division left a nonzero remainder (broken symmetrizer input)."""


class TruncationError(RingError):
    """An operation cannot be carried out faithfully at this truncation."""


class BudgetError(RingError):
    """Not enough variables declared in the context (b-budget and friends)."""


def _normalize_coeff(c):
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def coeff_from_strings(num, den):
    f = Fraction(int(num), int(den))
    return _normalize_coeff(f)


class RingContext:
    """Configuration of the truncated graded coefficient/series ring.

    Parameters
    ----------
    n_x, n_b : counts of the degree-1 variable families x_i and b_i.
    m_order : highest retained logarithm-coefficient index A (m_1..m_A).
    deg_bound : maximum retained total (x,b)-degree; a symmetrizer needs
        schur.symmetrizer_deg_bound(D, n) for a value trusted to D.
    scalars : subset of ("t", "beta") to declare.
    aux : extra named degree-1 generators (scratch variables).
    m_weight_cap : maximum retained negative weight (defaults to
        deg_bound, which is sound for all computations that stay
        homogeneous of non-negative total degree).
    t_bound : maximum retained t-exponent.
    """

    __slots__ = (
        "n_x", "n_b", "m_order", "deg_bound", "scalars", "aux",
        "m_weight_cap", "t_bound", "gen_names", "_gen_index", "_shifts",
        "_units", "_deg_shift", "_w_shift", "_deg_mask", "_w_mask",
        "_slot_masks", "_t_slot", "_x_shifts", "signature",
    )

    def __init__(self, n_x, n_b=0, m_order=0, deg_bound=6, scalars=(),
                 aux=(), m_weight_cap=None, t_bound=63):
        if deg_bound < 0 or m_order < 0 or n_x < 0 or n_b < 0:
            raise ValueError("negative context parameter")
        if deg_bound > MAX_DEG_BOUND:
            raise ValueError("deg_bound too large for packed keys")
        if m_weight_cap is None:
            m_weight_cap = deg_bound
        if m_weight_cap > MAX_WEIGHT_CAP:
            raise ValueError("m_weight_cap too large for packed keys")
        if t_bound > MAX_T_BOUND:
            raise ValueError("t_bound too large for packed keys")
        for s in scalars:
            if s not in ("t", "beta"):
                raise ValueError("unknown scalar generator %r" % (s,))
        self.n_x = n_x
        self.n_b = n_b
        self.m_order = m_order
        self.deg_bound = deg_bound
        self.scalars = tuple(scalars)
        self.aux = tuple(aux)
        self.m_weight_cap = m_weight_cap
        self.t_bound = t_bound

        for nm in self.aux:
            if nm in ("t", "beta") or (nm[0] in "xbm" and nm[1:].isdigit()):
                raise ValueError("aux name %r collides with a builtin family" % nm)
        names = ["x%d" % i for i in range(1, n_x + 1)]
        names += ["b%d" % i for i in range(1, n_b + 1)]
        names += list(self.aux)
        names += [s for s in ("t", "beta") if s in self.scalars]
        names += ["m%d" % i for i in range(1, m_order + 1)]
        self.gen_names = tuple(names)
        self._gen_index = {nm: i for i, nm in enumerate(names)}
        if len(self._gen_index) != len(names):
            raise ValueError("duplicate generator name")

        shifts, masks = [], []
        pos = 0
        t_slot = None
        for i, nm in enumerate(names):
            bits = T_SLOT_BITS if nm == "t" else SLOT_BITS
            shifts.append(pos)
            masks.append((1 << bits) - 1)
            if nm == "t":
                t_slot = i
            pos += bits
        self._shifts = tuple(shifts)
        self._slot_masks = tuple(masks)
        self._t_slot = t_slot
        self._deg_shift = pos
        self._w_shift = pos + FIELD_BITS
        self._deg_mask = (1 << FIELD_BITS) - 1
        self._w_mask = (1 << FIELD_BITS) - 1

        units = []
        for i, nm in enumerate(names):
            u = 1 << shifts[i]
            if nm == "t":
                pass                                   # degree 0
            elif nm == "beta":
                u += 1 << self._w_shift                # degree -1
            elif nm[0] == "m" and nm[1:].isdigit():
                u += int(nm[1:]) << self._w_shift      # degree -i
            else:
                u += 1 << self._deg_shift              # x, b, aux: degree 1
            units.append(u)
        self._units = tuple(units)
        self._x_shifts = tuple(shifts[:n_x])
        self.signature = (n_x, n_b, m_order, deg_bound, self.scalars,
                          self.aux, m_weight_cap, t_bound)

    def __eq__(self, other):
        return isinstance(other, RingContext) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def __repr__(self):
        return ("RingContext(n_x=%d, n_b=%d, A=%d, D=%d, scalars=%r, aux=%r)"
                % (self.n_x, self.n_b, self.m_order, self.deg_bound,
                   self.scalars, self.aux))

    # -- monomial keys ------------------------------------------------

    def gen_unit(self, name):
        try:
            return self._units[self._gen_index[name]]
        except KeyError:
            raise KeyError("generator %r not declared in %r" % (name, self))

    def has_gen(self, name):
        return name in self._gen_index

    def key_from_exps(self, exps):
        key = 0
        for name, e in exps.items():
            if e < 0:
                raise ValueError("negative exponent for %s" % name)
            if e == 0:
                continue
            i = self._gen_index.get(name)
            if i is None:
                raise KeyError("generator %r not declared" % (name,))
            if e > self._slot_masks[i]:
                raise TruncationError("exponent of %s exceeds packed field" % name)
            key += e * self._units[i]
        if self.key_deg(key) > self.deg_bound or self.key_weight(key) > self.m_weight_cap:
            raise TruncationError("monomial exceeds context bounds")
        if self._t_slot is not None:
            if (key >> self._shifts[self._t_slot]) & self._slot_masks[self._t_slot] > self.t_bound:
                raise TruncationError("t-exponent exceeds t_bound")
        return key

    def exps_from_key(self, key):
        out = {}
        for i, nm in enumerate(self.gen_names):
            e = (key >> self._shifts[i]) & self._slot_masks[i]
            if e:
                out[nm] = e
        return out

    def key_deg(self, key):
        return (key >> self._deg_shift) & self._deg_mask

    def key_weight(self, key):
        return (key >> self._w_shift) & self._w_mask

    def key_total_degree(self, key):
        """Graded total degree: (x,b)-degree minus negative weight."""
        return self.key_deg(key) - self.key_weight(key)

    def key_exp(self, key, name):
        i = self._gen_index[name]
        return (key >> self._shifts[i]) & self._slot_masks[i]

    def sort_key(self, key):
        """Graded-lexicographic order over x1<..<xn<b1<..<t<beta<m1<..."""
        exps = tuple((key >> self._shifts[i]) & self._slot_masks[i]
                     for i in range(len(self.gen_names)))
        return (self.key_deg(key), self.key_weight(key),
                tuple(-e for e in exps))

    def to_json_dict(self):
        return {
            "n_x": self.n_x, "n_b": self.n_b, "A": self.m_order,
            "deg_bound": self.deg_bound, "scalars": list(self.scalars),
            "aux": list(self.aux), "m_weight_cap": self.m_weight_cap,
            "t_bound": self.t_bound,
        }

    @staticmethod
    def from_json_dict(d):
        return RingContext(
            n_x=d["n_x"], n_b=d["n_b"], m_order=d["A"],
            deg_bound=d["deg_bound"], scalars=tuple(d.get("scalars", ())),
            aux=tuple(d.get("aux", ())), m_weight_cap=d.get("m_weight_cap"),
            t_bound=d.get("t_bound", 63),
        )


class Permutation:
    """A permutation of {1..n}, acting on the x-variables only."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("not a bijection on {1..n}: %r" % (self.images,))

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        """Composition self o other."""
        return Permutation(tuple(self.images[other.images[i] - 1]
                                 for i in range(len(self.images))))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)

    def sign(self):
        images = list(self.images)
        sgn, n = 1, len(images)
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = images[j] - 1
                clen += 1
            if clen % 2 == 0:
                sgn = -sgn
        return sgn


class Series:
    """A sparse exact-rational multivariate truncated series.

    ``terms`` maps packed monomial keys to nonzero int/Fraction
    coefficients; ``bound`` is the (x,b)-degree up to which the value is
    trusted.  Use the module-level constructors (``zero``, ``const``,
    ``gen``, ``monomial``) rather than building term dicts by hand.
    """

    __slots__ = ("ctx", "terms", "bound")

    def __init__(self, ctx, terms, bound):
        self.ctx = ctx
        self.terms = terms
        self.bound = bound

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ctx, bound=None):
        return Series(ctx, {}, ctx.deg_bound if bound is None else bound)

    @staticmethod
    def const(ctx, c, bound=None):
        c = _normalize_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        t = {} if c == 0 else {0: c}
        return Series(ctx, t, ctx.deg_bound if bound is None else bound)

    @staticmethod
    def gen(ctx, name, bound=None):
        """The generator ``name``; zero when its own weight (m_i, beta)
        exceeds the weight cap, as it does in the truncated ring."""
        bound = ctx.deg_bound if bound is None else bound
        if ctx.key_weight(ctx.gen_unit(name)) > ctx.m_weight_cap:
            return Series.zero(ctx, bound)
        return Series(ctx, {ctx.key_from_exps({name: 1}): 1}, bound)

    @staticmethod
    def monomial(ctx, exps, coeff=1, bound=None):
        coeff = _normalize_coeff(coeff)
        if coeff == 0:
            return Series.zero(ctx, bound)
        key = ctx.key_from_exps(exps)
        return Series(ctx, {key: coeff}, ctx.deg_bound if bound is None else bound)

    # -- basic queries --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(0, 0)

    def var_degree(self, name):
        i = self.ctx._gen_index[name]
        sh, mask = self.ctx._shifts[i], self.ctx._slot_masks[i]
        d = 0
        for key in self.terms:
            e = (key >> sh) & mask
            if e > d:
                d = e
        return d

    def __eq__(self, other):
        """Canonical-form equality: the term maps agree."""
        if not isinstance(other, Series):
            if other == 0:
                return not self.terms
            return self.terms == {0: _normalize_coeff(other if isinstance(other, (int, Fraction)) else Fraction(other))}
        if self.ctx.signature != other.ctx.signature:
            raise ContextMismatch("comparing series over different contexts")
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("Series is not hashable")

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx and self.ctx.signature != other.ctx.signature:
            raise ContextMismatch("series contexts differ")

    def __neg__(self):
        return Series(self.ctx, {k: -c for k, c in self.terms.items()}, self.bound)

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(self.ctx, other, self.bound)
        self._check(other)
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for k, c in small.items():
            v = out.get(k, 0) + c
            if v == 0:
                out.pop(k, None)
            else:
                out[k] = v
        return Series(self.ctx, out, min(self.bound, other.bound))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -Series.const(self.ctx, other, self.bound))

    def __rsub__(self, other):
        return Series.const(self.ctx, other, self.bound) - self

    def scale(self, c):
        c = _normalize_coeff(c)
        if c == 0:
            return Series.zero(self.ctx, self.bound)
        return Series(self.ctx, {k: _normalize_coeff(v * c) for k, v in self.terms.items()},
                      self.bound)

    def __mul__(self, other):
        """Truncated product.  The smaller operand is bucketed by
        (x,b)-degree, so each term of the bigger one skips its truncated
        products wholesale and a large cached factor is never re-bucketed."""
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
        dsh, dmask = ctx._deg_shift, ctx._deg_mask
        buckets = {}
        for k, c in a.items():
            buckets.setdefault((k >> dsh) & dmask, []).append((k, c))
        buckets = sorted(buckets.items())
        out = {}
        wcap = ctx.m_weight_cap
        wsh = ctx._w_shift
        wmask = ctx._w_mask
        tcheck = ctx._t_slot is not None and ctx.t_bound < ctx._slot_masks[ctx._t_slot]
        if tcheck:
            tsh = ctx._shifts[ctx._t_slot]
            tmask = ctx._slot_masks[ctx._t_slot]
            tb = ctx.t_bound
        for kb, cb in b.items():
            room = bound - ((kb >> dsh) & dmask)
            for da, items in buckets:
                if da > room:
                    break
                for ka, ca in items:
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
        return Series(self.ctx, {k: _normalize_coeff(v) for k, v in out.items()}, bound)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Series.const(self.ctx, 1, self.bound)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- truncation and selection ---------------------------------------

    def truncate(self, d):
        """Drop terms of (x,b)-degree above d; the bound becomes min(bound, d)."""
        ctx = self.ctx
        if d >= self.bound and all(ctx.key_deg(k) <= d for k in self.terms):
            return Series(ctx, self.terms, min(self.bound, d))
        t = {k: c for k, c in self.terms.items() if ctx.key_deg(k) <= d}
        return Series(ctx, t, min(self.bound, d))

    def is_homogeneous(self, d=None):
        degs = {self.ctx.key_total_degree(k) for k in self.terms}
        return len(degs) <= 1 and (d is None or degs <= {d})

    # -- structural operations -------------------------------------------

    def act_permutation(self, w):
        """Move every x_i exponent to x_{w(i)}; all other generators fixed."""
        ctx = self.ctx
        images = w.images if isinstance(w, Permutation) else tuple(w)
        if len(images) != ctx.n_x:
            raise ValueError("permutation length disagrees with n_x")
        if all(images[i] == i + 1 for i in range(len(images))):
            return self
        shifts = ctx._x_shifts
        units = ctx._units
        mask = (1 << SLOT_BITS) - 1
        out = {}
        for key, c in self.terms.items():
            nk = key
            for i in range(len(images)):
                j = images[i]
                if j == i + 1:
                    continue
                e = (key >> shifts[i]) & mask
                if e:
                    nk += e * (units[j - 1] - units[i])
            out[nk] = c
        return Series(ctx, out, self.bound)

    def substitute_gen(self, name, value):
        """Replace the generator ``name`` by ``value`` (rational or Series).

        For a Series value with a nonzero constant term the substitution
        cannot be truncated faithfully, so it is rejected.
        """
        ctx = self.ctx
        i = ctx._gen_index[name]
        sh, mask = ctx._shifts[i], ctx._slot_masks[i]
        unit = ctx._units[i]
        top = 0
        layers = {}
        for key, c in self.terms.items():
            e = (key >> sh) & mask
            base = key - e * unit
            layers.setdefault(e, {})
            v = layers[e].get(base, 0) + c
            if v == 0:
                layers[e].pop(base, None)
            else:
                layers[e][base] = v
            if e > top:
                top = e
        if isinstance(value, Series):
            self._check(value)
            if top > 0 and value.constant_term() != 0:
                raise TruncationError(
                    "substituting a series with nonzero constant term")
            val = value
        else:
            val = Series.const(ctx, value, self.bound)
        result = Series(ctx, dict(layers.get(top, {})), self.bound)
        for e in range(top - 1, -1, -1):
            result = result * val
            layer = layers.get(e)
            if layer:
                result = result + Series(ctx, dict(layer), self.bound)
        return result

    def invert_unit(self):
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.constant_term()
        if c0 == 0:
            raise NotAUnit("zero constant term")
        g = self.scale(Fraction(1, 1) / c0) - 1
        acc = Series.const(self.ctx, 1, self.bound)
        result = Series.const(self.ctx, 1, self.bound)
        neg = -g
        guard = 0
        while not acc.is_zero():
            acc = acc * neg
            result = result + acc
            guard += 1
            if guard > 4 * (self.ctx.deg_bound + self.ctx.m_weight_cap + self.ctx.t_bound + 2):
                raise NotAUnit("inversion failed to terminate")
        return result.scale(Fraction(1, 1) / c0)

    def exact_divide_linear(self, i, j):
        """Exact quotient by (x_i - x_j); raises RemainderError otherwise.

        The terms are grouped by their image r = x_j^d R under x_i -> x_j.
        Since c x_i^a x_j^(d-a) R = (x_i - x_j) c sum_{k<a} x_i^k x_j^(d-1-k) R
        + c r, a group sum_a c_a x_i^a x_j^(d-a) R has the quotient
        coefficient sum_{a>k} c_a at x_i^k x_j^(d-1-k) R, a suffix sum
        over its exponents in descending order, and leaves the remainder
        sum_a c_a r, which must vanish.  The error names the first nonzero
        remainder term found.  The quotient is trusted one degree lower
        than the input.
        """
        if i == j:
            raise ValueError("indices must differ")
        ctx = self.ctx
        ui = ctx._units[ctx._gen_index["x%d" % i]]
        uj = ctx._units[ctx._gen_index["x%d" % j]]
        shi = ctx._shifts[ctx._gen_index["x%d" % i]]
        mask = (1 << SLOT_BITS) - 1
        step = ui - uj
        groups = {}
        for key, c in self.terms.items():
            a = (key >> shi) & mask
            r = key - a * step
            groups.setdefault(r, []).append((a, c))
        q = {}
        for r, items in groups.items():
            # exponents are distinct within a group, so the sort never
            # compares coefficients
            items.sort(reverse=True)
            base = r - uj
            s = 0
            top = 0
            for a, c in items:
                if s:
                    for k in range(a, top):
                        q[base + k * step] = s
                s += c
                top = a
            if s:
                raise RemainderError(
                    "nonzero remainder %s dividing by (x%d - x%d)"
                    % (Series(ctx, {r: s}, self.bound).text(), i, j))
        return Series(ctx, q, self.bound - 1)

    def divided_difference(self, i, j):
        """The divided difference (f - s f) / (x_i - x_j), s swapping x_i, x_j.

        c x_i^a x_j^b R has the quotient c (or -c when a < b) times the sum
        of x_i^k x_j^(d-1-k) R over min(a, b) <= k < max(a, b), d = a + b.
        These ranges are nested around the middle of the group of terms
        with one image x_j^d R under x_i -> x_j, so one running sum over
        the lower ends gives each stretch of k and its mirror d - 1 - k.
        The quotient is exact and trusted one degree lower than the input.
        """
        if i == j:
            raise ValueError("indices must differ")
        ctx = self.ctx
        gi, gj = ctx._gen_index["x%d" % i], ctx._gen_index["x%d" % j]
        ui, uj = ctx._units[gi], ctx._units[gj]
        shi, shj = ctx._shifts[gi], ctx._shifts[gj]
        mask = (1 << SLOT_BITS) - 1
        step = ui - uj
        groups = {}
        for key, c in self.terms.items():
            a = (key >> shi) & mask
            b = (key >> shj) & mask
            if a > b:
                r = key - a * step
                g = groups.get(r)
                if g is None:
                    groups[r] = {b: c}
                else:
                    g[b] = g.get(b, 0) + c
            elif a < b:
                r = key - a * step
                g = groups.get(r)
                if g is None:
                    groups[r] = {a: -c}
                else:
                    g[a] = g.get(a, 0) - c
        q = {}
        for r, g in groups.items():
            d = (r >> shj) & mask
            base = r - uj
            s = 0
            lo = 0
            for k in sorted(g):
                if s:
                    v = s if type(s) is int else _normalize_coeff(s)
                    for m in range(lo, k):
                        q[base + m * step] = v
                        q[base + (d - 1 - m) * step] = v
                s += g[k]
                lo = k
            if s:
                v = s if type(s) is int else _normalize_coeff(s)
                for m in range(lo, d - lo):
                    q[base + m * step] = v
        return Series(ctx, q, self.bound - 1)

    def specialize(self, assignment):
        """Substitute several generators at once (rationals or Series)."""
        out = self
        for name, value in assignment.items():
            out = out.substitute_gen(name, value)
        return out

    # -- serialization ----------------------------------------------------

    def sorted_items(self):
        ctx = self.ctx
        return sorted(self.terms.items(), key=lambda kv: ctx.sort_key(kv[0]))

    def to_json_dict(self):
        ctx = self.ctx
        terms = []
        for key, c in self.sorted_items():
            f = Fraction(c)
            terms.append({"exps": ctx.exps_from_key(key),
                          "num": str(f.numerator), "den": str(f.denominator)})
        return {"context": ctx.to_json_dict(), "bound": self.bound, "terms": terms}

    def to_json(self, indent=None):
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json_dict(d, ctx=None):
        if ctx is None:
            ctx = RingContext.from_json_dict(d["context"])
        terms = {}
        for item in d["terms"]:
            key = ctx.key_from_exps(item["exps"])
            c = coeff_from_strings(item["num"], item["den"])
            if c != 0:
                terms[key] = c
        return Series(ctx, terms, d.get("bound", ctx.deg_bound))

    @staticmethod
    def from_json(s, ctx=None):
        return Series.from_json_dict(json.loads(s), ctx=ctx)

    def text(self):
        """Human-readable canonical form, e.g. ``1 - 2*m1*x1^2``."""
        if not self.terms:
            return "0"
        ctx = self.ctx
        scalar_first = [nm for nm in ctx.gen_names
                        if nm in ("t", "beta")
                        or (nm[0] == "m" and nm[1:].isdigit())]
        others = [nm for nm in ctx.gen_names if nm not in scalar_first]
        order = scalar_first + others
        pieces = []
        for key, c in self.sorted_items():
            exps = ctx.exps_from_key(key)
            factors = []
            for nm in order:
                e = exps.get(nm, 0)
                if e == 1:
                    factors.append(nm)
                elif e > 1:
                    factors.append("%s^%d" % (nm, e))
            f = Fraction(c)
            neg = f < 0
            a = abs(f)
            cs = str(a.numerator) if a.denominator == 1 else "%d/%d" % (a.numerator, a.denominator)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            pieces.append(("- " if neg else "+ ") + body)
        s = " ".join(pieces)
        if s.startswith("+ "):
            s = s[2:]
        elif s.startswith("- "):
            s = "-" + s[2:]
        return s

    def __repr__(self):
        t = self.text()
        if len(t) > 120:
            t = t[:117] + "..."
        return "<Series %s (bound %d)>" % (t, self.bound)


def series_sum(ctx, items):
    """Exact left-fold sum of the items, in order."""
    acc = Series.zero(ctx)
    for s in items:
        acc = acc + s
    return acc
