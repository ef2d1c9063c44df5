"""Partitions, coset symmetrizers, and the universal Schur-type families.

The families are all of the shape

    sum over the permutations w of a spec of
        w . [ numerator / prod_{(i,j) in pairs} (x_i +_L conj(x_j)) ]

and are evaluated by one engine.  Split every denominator factor as
(x_i - x_j) * unit.  Since w.V = sign(w) V for the Vandermonde V, a sum
over all of S_n is V^{-1} sum_w sign(w) w.(numerator * K) = d_w0(numerator
* K), the divided difference of the longest element (Macdonald, Notes on
Schubert polynomials, ch. II), with K the inverse pair units times the
Vandermonde factors of the other pairs.  For a Young subgroup S_J, the sum
over S_J with the pairs inside the blocks is d_(w0_J)(numerator * K), and
the sum over S_n / S_J with the pairs across blocks is d_(w^J)(numerator
* K), w^J = w0 w0_J, for an S_J-invariant numerator: the full sum counts
each coset |S_J| times and d_w0(f V_J) = |S_J| d_(w^J) f.  In both, K is
just the inverse pair units.  So the engine forms one product and applies
d_p = (1 - s_p) / (x_p - x_(p+1)) along a reduced word that the spec
fixes; a quotient numerator that S_J does not fix raises NotInvariant.

Each divided difference is exact and lowers the trusted degree by one.
With B the least of the numerator's bound, the context's degree bound and
the pair units' bounds, the product is formed to B minus the degree of
the Vandermonde factors neither kept in K nor divided out, so the value is
trusted to B - |all pairs|.  symmetrizer_deg_bound turns that rule into
the context degree bound a caller needs for a target degree.
"""

from __future__ import annotations

import functools
import itertools

from .ring import Series, Permutation, BudgetError


class Partition:
    """A partition padded to a fixed number of parts n.

    Carries the interval decomposition of [n] into maximal blocks where
    the parts are constant: block sizes m_r, prefix sums nu(r), the
    block index n(i), and the distinct values n_r.
    """

    def __init__(self, parts, n=None):
        parts = [int(p) for p in parts]
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be non-negative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        core = list(parts)
        while core and core[-1] == 0:
            core.pop()
        if n is None:
            n = len(core)
        if len(core) > n:
            raise ValueError("partition longer than n")
        self.n = n
        self.parts = tuple(core) + (0,) * (n - len(core))
        self.length = len(core)
        self.size = sum(core)

        blocks = []
        values = []
        for v, grp in itertools.groupby(self.parts):
            blocks.append(len(list(grp)))
            values.append(v)
        self.block_sizes = tuple(blocks)          # m_r
        self.block_values = tuple(values)          # n_r, strictly decreasing
        nu = [0]
        for m in blocks:
            nu.append(nu[-1] + m)
        self.nu = tuple(nu)                        # nu(0) = 0, ..., nu(d) = n
        idx = []
        for r, m in enumerate(blocks, start=1):
            idx.extend([r] * m)
        self.block_of = tuple(idx)                 # n(i), 1-based position i

    def __repr__(self):
        return "Partition(%r, n=%d)" % (list(self.parts[:self.length]), self.n)

    def __eq__(self, other):
        return (isinstance(other, Partition) and self.parts == other.parts
                and self.n == other.n)

    def __hash__(self):
        return hash((self.parts, self.n))

    def is_strict(self):
        core = self.parts[:self.length]
        return all(core[i] > core[i + 1] for i in range(len(core) - 1))

    def pair_positions(self):
        """All (i, j), i < j, with n(i) < n(j) (strictly separated blocks)."""
        return tuple((i, j)
                     for i in range(1, self.n + 1)
                     for j in range(i + 1, self.n + 1)
                     if self.block_of[i - 1] < self.block_of[j - 1])


def partitions_up_to(max_size, max_length):
    """All partitions with |lambda| <= max_size and length <= max_length."""
    out = [()]
    def rec(prefix, remaining, cap):
        for p in range(min(remaining, cap), 0, -1):
            nxt = prefix + (p,)
            if len(nxt) <= max_length:
                out.append(nxt)
                rec(nxt, remaining - p, p)
    rec((), max_size, max_size)
    return [list(p) for p in out]


def coset_reps(n, blocks):
    """Minimal-length representatives of S_n / (S_{m_1} x ... x S_{m_d}):
    the permutations increasing on each block, in lexicographic order."""
    if sum(blocks) != n:
        raise ValueError("block sizes must sum to n")
    return _rising(subgroup_elements(n, (n,)), _inner_positions(blocks))


def subgroup_elements(n, blocks):
    """All elements of S_{m_1} x ... x S_{m_d} embedded block-diagonally,
    in lexicographic order."""
    if sum(blocks) != n:
        raise ValueError("block sizes must sum to n")
    per_block = [itertools.permutations(range(end - m + 1, end + 1))
                 for m, end in zip(blocks, itertools.accumulate(blocks))]
    return [Permutation([v for piece in combo for v in piece])
            for combo in itertools.product(*per_block)]


def _inner_positions(blocks):
    """The positions p with p and p + 1 in the same block."""
    ends = set(itertools.accumulate(blocks))
    return [p for p in range(1, sum(blocks)) if p not in ends]


def _rising(perms, positions):
    """The permutations w with w(p) < w(p + 1) at every given position."""
    return [w for w in perms if all(w(p) < w(p + 1) for p in positions)]


class NotInvariant(ValueError):
    """The input fails the stabilizer-invariance hypothesis."""


class SymmetrizerSpec:
    """Denominator pairs, the permutations summed over, and how to sum.

    Pairs, permutations and word letters refer to positions in
    ``var_ids``, the symmetrized x-variable indices, so the engine serves
    operators on a subset of the variables.  ``word`` lists the positions
    p of the divided differences d_p in the order they apply, ``kept`` the
    non-pair position pairs whose factor stays in the kernel, and
    ``invariant`` the positions p whose swap must fix the numerator.  Build
    specs with the constructors (see the module docstring): ``quotient``
    and ``subgroup`` of a block composition, and ``full``.
    """

    def __init__(self, var_ids, pair_set, word, kept=(), invariant=()):
        self.var_ids = tuple(var_ids)
        self.pair_set = tuple(sorted(pair_set))
        if len(set(self.pair_set)) != len(self.pair_set):
            raise ValueError("pair set lists a pair twice: %r" % (self.pair_set,))
        n = len(self.var_ids)
        for (i, j) in self.pair_set:
            if not (1 <= i < j <= n):
                raise ValueError("pair (%d, %d) out of range" % (i, j))
        self.word = tuple(word)
        self.kept = tuple(kept)
        self.invariant = tuple(invariant)

    @classmethod
    def quotient(cls, blocks, var_ids=None):
        """Cosets of S_n / Young(blocks), pairs whose positions lie in
        different blocks; zero-size blocks are dropped."""
        blocks, pairs = _block_pairs(blocks, across=True)
        n = sum(blocks)
        var_ids = range(1, n + 1) if var_ids is None else var_ids
        w_J = [n + 1 - v for v in _longest_in_blocks(blocks)]
        return cls(var_ids, pairs, _reduced_word(w_J),
                   invariant=_inner_positions(blocks))

    @classmethod
    def subgroup(cls, blocks):
        """Every element of Young(blocks), pairs inside each block."""
        blocks, pairs = _block_pairs(blocks, across=False)
        n = sum(blocks)
        return cls(range(1, n + 1), pairs,
                   _reduced_word(_longest_in_blocks(blocks)))

    @classmethod
    def full(cls, n, pairs):
        """Every element of S_n with the given pairs."""
        kept = sorted(set(_all_pairs(n)) - set(pairs))
        return cls(range(1, n + 1), pairs, _reduced_word(range(n, 0, -1)),
                   kept=kept)

    @functools.cached_property
    def reps(self):
        """The permutations summed over, in lexicographic order: the
        elements of the Young subgroup that the word and ``invariant``
        generate that rise across every ``invariant`` swap (one per coset).
        symmetrize never reads them; checks and tracing do."""
        n, letters = len(self.var_ids), set(self.word) | set(self.invariant)
        ends = [p for p in range(1, n + 1) if p not in letters]
        blocks = [b - a for a, b in zip([0] + ends, ends)]
        return _rising(subgroup_elements(n, blocks), self.invariant)

    def all_pairs(self):
        return _all_pairs(len(self.var_ids))


def _all_pairs(n):
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _block_pairs(blocks, across):
    """Nonzero blocks and the position pairs across (or inside) them."""
    if any(m < 0 for m in blocks):
        raise ValueError("block sizes must be non-negative: %r" % (tuple(blocks),))
    blocks = tuple(m for m in blocks if m)
    block_of = [r for r, m in enumerate(blocks) for _ in range(m)]
    pairs = tuple((i, j) for (i, j) in _all_pairs(len(block_of))
                  if (block_of[i - 1] != block_of[j - 1]) == across)
    return blocks, pairs


def _longest_in_blocks(blocks):
    """w0_J in one-line notation: every block reversed."""
    images = []
    for end in itertools.accumulate(blocks):
        images.extend(range(end, len(images), -1))
    return images


def _reduced_word(images):
    """A reduced word of the permutation, in the order its divided
    differences apply: bubble sort, where each swap of a descent p is
    w = w' s_p with l(w') = l(w) - 1, so d_w = d_w' d_p."""
    w, word = list(images), []
    for top in range(len(w) - 1, 0, -1):
        for p in range(top):
            if w[p] > w[p + 1]:
                w[p], w[p + 1] = w[p + 1], w[p]
                word.append(p + 1)
    return word


def _coset_kernel(fgl, spec, bound):
    """The kernel prod over kept pairs (p, q) of (y_p - y_q) times prod over
    pairs (i, j) of unit(y_i, y_j)^{-1}, y_p = x_{var_ids[p]}, to degree
    ``bound``; x_i +_L conj(x_j) = (x_i - x_j) * unit(x_i, x_j)."""
    var = spec.var_ids
    kernel = Series.const(fgl.ctx, 1, bound)
    for (i, j) in spec.kept:
        kernel = kernel * (fgl.x_gen(var[i - 1]) - fgl.x_gen(var[j - 1]))
    for (i, j) in spec.pair_set:
        kernel = kernel * fgl.pair_unit_inverse(var[i - 1], var[j - 1])
    return kernel


def symmetrizer_deg_bound(D, n):
    """The context deg_bound at which a symmetrizer on n variables returns
    a value trusted to x-degree >= D: each of the n(n-1)/2 pairs costs one
    degree and the pair units, trusted to deg_bound - 1, one more (see the
    module docstring).  Apply it twice for a value that passes through two
    symmetrizers."""
    return D + n * (n - 1) // 2 + 1


def symmetrize(fgl, numerator, spec):
    """d_w(numerator * K) for the spec's word w and kernel K, trusted to
    B - |all pairs| (see the module docstring), so a context of
    symmetrizer_deg_bound(D, n) returns a value trusted to D; raises
    NotInvariant for a quotient numerator that the Young subgroup does not
    fix."""
    ctx = fgl.ctx
    var = spec.var_ids
    for p in spec.invariant:
        i, j = var[p - 1], var[p]
        images = list(range(1, ctx.n_x + 1))
        images[i - 1], images[j - 1] = j, i
        if not numerator.act_permutation(images) == numerator:
            raise NotInvariant(
                "input is not invariant under swapping x%d, x%d" % (i, j))
    bound = min([numerator.bound, ctx.deg_bound]
                + [fgl.pair_unit_inverse(var[i - 1], var[j - 1]).bound
                   for (i, j) in spec.pair_set])
    bound -= len(spec.all_pairs()) - len(spec.word)
    cache = fgl._cache.setdefault("kernels", {})
    ck = (var, spec.pair_set, spec.kept, bound)
    kernel = cache.get(ck)
    if kernel is None:
        kernel = cache[ck] = _coset_kernel(fgl, spec, bound)
    total = numerator * kernel
    for p in spec.word:
        total = total.divided_difference(var[p - 1], var[p])
    return total


# ---------------------------------------------------------------------------
# factorial-power building blocks


def _check_b_budget(fgl, budget):
    """Raise BudgetError unless the context declares b_1, ..., b_budget."""
    if fgl.ctx.n_b < budget:
        raise BudgetError("needs n_b >= %d for this family (have %d)"
                          % (budget, fgl.ctx.n_b))


def b_generators(fgl, count, shift=0, b_values=None):
    """The parameter series b_{shift+1}, ..., b_{shift+count}.

    ``b_values`` overrides the generators (e.g. formal inverses or a
    zero-padded tail); entries beyond the list are zero.
    """
    ctx = fgl.ctx
    out = []
    for s in range(shift + 1, shift + count + 1):
        if b_values is not None:
            if s <= len(b_values):
                out.append(b_values[s - 1])
            else:
                out.append(Series.zero(ctx))
        else:
            if s > ctx.n_b:
                raise BudgetError(
                    "needs b-variables up to b%d but the context declares n_b=%d"
                    % (s, ctx.n_b))
            out.append(fgl.b_gen(s))
    return out


def factorial_power(fgl, i, k, shift=0, b_values=None):
    """[x_i | b[+shift]]^k = prod_{s=1..k} (x_i +_L b_{shift+s}); 1 for k=0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    acc = Series.const(fgl.ctx, 1)
    if k == 0:
        return acc
    xi = fgl.x_gen(i)
    for b in b_generators(fgl, k, shift, b_values):
        acc = acc * (fgl.formal_sum(xi, b) if not b.is_zero() else xi)
    return acc


def double_factorial_power(fgl, i, k, b_values=None):
    """[[x_i | b]]^k = (x_i +_L x_i) [x_i | b]^{k-1}; 1 for k=0."""
    if k == 0:
        return Series.const(fgl.ctx, 1)
    xi = fgl.x_gen(i)
    return fgl.formal_sum(xi, xi) * factorial_power(fgl, i, k - 1, 0, b_values)


def bracket_monomial(fgl, lam, b_values=None):
    """The block-shaped product (x|b)^[lambda].

    prod over blocks r of prod_{nu(r-1) < i <= nu(r)} [x_i|b]^{n_r + n - nu(r)}.
    """
    acc = Series.const(fgl.ctx, 1)
    for r, (m, v) in enumerate(zip(lam.block_sizes, lam.block_values), start=1):
        k = v + lam.n - lam.nu[r]
        for i in range(lam.nu[r - 1] + 1, lam.nu[r] + 1):
            acc = acc * factorial_power(fgl, i, k, 0, b_values)
    return acc


def rho(n):
    """The staircase (n, n-1, ..., 1)."""
    return list(range(n, 0, -1))


# ---------------------------------------------------------------------------
# the universal families


def universal_schur_s(fgl, lam, n, use_b=False, var_ids=None, b_shift=0,
                      b_values=None):
    """The factorial Schur-type series: full symmetrization of [x|b]^{lam+rho}.

    ``lam`` may be a Partition, a list (weakly decreasing), or an
    arbitrary sequence of non-negative integers (the raw, unstraightened
    case); entries beyond position n are not allowed.
    """
    if isinstance(lam, Partition):
        entries = list(lam.parts[:lam.n])
    else:
        entries = [int(v) for v in lam]
    if len(entries) > n:
        raise ValueError("sequence longer than n")
    entries = entries + [0] * (n - len(entries))
    if use_b and b_values is None and n:
        _check_b_budget(fgl, b_shift + max(e + n - 1 - i
                                           for i, e in enumerate(entries)))
    numerator = Series.const(fgl.ctx, 1)
    for pos in range(1, n + 1):
        k = entries[pos - 1] + n - pos
        i = pos if var_ids is None else var_ids[pos - 1]
        if use_b or b_values is not None:
            numerator = numerator * factorial_power(fgl, i, k, b_shift, b_values)
        else:
            numerator = numerator * fgl.x_gen(i) ** k
    return symmetrize(fgl, numerator,
                      SymmetrizerSpec.quotient((1,) * n, var_ids))


def _pq_series(fgl, nu, n, use_b, doubled):
    nu = nu if isinstance(nu, Partition) else Partition(nu, n=n)
    if not nu.is_strict():
        raise ValueError("P/Q needs a strict partition, got %r" % (nu,))
    k = nu.length
    if use_b:
        _check_b_budget(fgl, nu.parts[0] - (1 if doubled else 0))
    numerator = Series.const(fgl.ctx, 1)
    for i in range(1, k + 1):
        p = nu.parts[i - 1]
        if doubled:
            numerator = numerator * double_factorial_power(
                fgl, i, p, None if use_b else [])
        else:
            numerator = numerator * factorial_power(
                fgl, i, p, 0, None if use_b else [])
    for i in range(1, k + 1):
        xi = fgl.x_gen(i)
        for j in range(i + 1, n + 1):
            numerator = numerator * fgl.formal_sum(xi, fgl.x_gen(j))
    # the numerator is invariant under S_{n-k} on the last block, so the
    # full S_n sum is (n-k)! times this coset sum
    return symmetrize(fgl, numerator,
                      SymmetrizerSpec.quotient((1,) * k + (n - k,)))


def universal_schur_p(fgl, nu, n, use_b=False):
    return _pq_series(fgl, nu, n, use_b, doubled=False)


def universal_schur_q(fgl, nu, n, use_b=False):
    return _pq_series(fgl, nu, n, use_b, doubled=True)


def universal_hall_littlewood(fgl, lam, n):
    """The t-deformed coset symmetrizer interpolating the S- and P-families."""
    lam = lam if isinstance(lam, Partition) else Partition(lam, n=n)
    numerator = Series.const(fgl.ctx, 1)
    for pos in range(1, n + 1):
        p = lam.parts[pos - 1]
        if p:
            numerator = numerator * fgl.x_gen(pos) ** p
    cache = fgl._cache.setdefault("t_inv", {})
    for (i, j) in lam.pair_positions():
        tj = cache.get(j)
        if tj is None:
            tj = fgl.t_series(fgl.x_inverse(j))
            cache[j] = tj
        numerator = numerator * fgl.formal_sum(fgl.x_gen(i), tj)
    return symmetrize(fgl, numerator, SymmetrizerSpec.quotient(lam.block_sizes))


def new_universal_schur(fgl, lam, n, use_b=False, b_values=None):
    """Damon-type symmetrizer of the block monomial (x|b)^[lambda]."""
    lam = lam if isinstance(lam, Partition) else Partition(lam, n=n)
    if use_b and b_values is None and n:
        # bracket_monomial reads b up to the first block's exponent
        _check_b_budget(fgl, lam.parts[0] + n - lam.block_sizes[0])
    vals = b_values if (use_b or b_values is not None) else []
    numerator = bracket_monomial(fgl, lam, vals)
    return symmetrize(fgl, numerator, SymmetrizerSpec.quotient(lam.block_sizes))


def new_universal_schur_one_row(fgl, k, n):
    """One-row case with the extended range k >= 1 - n: sym(x_1^{k+n-1})."""
    if k < 1 - n:
        raise ValueError("one-row index must satisfy k >= 1 - n")
    numerator = fgl.x_gen(1) ** (k + n - 1) if k + n - 1 > 0 else Series.const(fgl.ctx, 1)
    return symmetrize(fgl, numerator, SymmetrizerSpec.quotient((1, n - 1)))


def universal_schur_kl(fgl, lam, n, use_b=False, b_values=None):
    """Kempf-Laksov-type symmetrizer over S_n / ((S_1)^r x S_{n-r})."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    r = lam.length
    if r > n:
        raise ValueError("length of lambda exceeds n")
    if use_b and b_values is None and r:
        _check_b_budget(fgl, lam.parts[0] + n - 1)
    vals = b_values if (use_b or b_values is not None) else []
    numerator = Series.const(fgl.ctx, 1)
    for i in range(1, r + 1):
        k = lam.parts[i - 1] + n - i
        numerator = numerator * factorial_power(fgl, i, k, 0, vals)
    return symmetrize(fgl, numerator,
                      SymmetrizerSpec.quotient((1,) * r + (n - r,)))
