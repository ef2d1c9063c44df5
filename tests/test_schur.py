import math
from fractions import Fraction

import pytest

from cobschur import (RingContext, Series, FormalGroupLaw, Partition,
                      Permutation, RemainderError, NotInvariant, SymmetrizerSpec,
                      coset_reps, subgroup_elements, symmetrize,
                      symmetrizer_deg_bound,
                      factorial_power, double_factorial_power,
                      bracket_monomial, universal_schur_s, universal_schur_p,
                      universal_schur_q, universal_hall_littlewood,
                      new_universal_schur, new_universal_schur_one_row,
                      universal_schur_kl, BudgetError, oracles, series_match,
                      partitions_up_to, pushforward_full_flag,
                      pushforward_partial_flag, pushforward_between_flags,
                      grassmannian_pushforward)
from cobschur.schur import _coset_kernel
from conftest import sympy_exp_coefficients, to_sympy


def setup(mode, n, n_b=0, A=2, D=4, scalars=()):
    sc = list(scalars)
    if mode == "multiplicative":
        sc.append("beta")
    ctx = RingContext(n_x=n, n_b=n_b, m_order=A if mode == "universal" else 0,
                      deg_bound=symmetrizer_deg_bound(D, n), scalars=tuple(sc))
    return ctx, FormalGroupLaw(ctx, mode)


class TestPartition:
    def test_interval_decomposition(self):
        lam = Partition([3, 3, 1, 0], n=4)
        assert lam.block_sizes == (2, 1, 1)
        assert lam.block_values == (3, 1, 0)
        assert lam.nu == (0, 2, 3, 4)
        assert lam.block_of == (1, 1, 2, 3)

    def test_pair_positions(self):
        lam = Partition([2, 1, 1], n=3)
        assert lam.pair_positions() == ((1, 2), (1, 3))

    def test_strictness(self):
        assert Partition([3, 1], n=3).is_strict()
        assert not Partition([2, 2], n=3).is_strict()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])


class TestCosetReps:
    def test_counts(self):
        assert len(coset_reps(3, (2, 1))) == 3
        assert len(coset_reps(4, (1, 1, 2))) == 12
        assert len(coset_reps(4, (4,))) == 1

    def test_minimal_length_property(self):
        for w in coset_reps(4, (2, 2)):
            assert w(1) < w(2) and w(3) < w(4)

    def test_distinct_cosets_cover(self):
        reps = coset_reps(3, (2, 1))
        images = {tuple(sorted((w(1), w(2)))) for w in reps}
        assert len(images) == 3


class TestFactorialPowers:
    def test_zeroth_power_is_one(self):
        ctx, fgl = setup("universal", 2, n_b=3)
        assert factorial_power(fgl, 1, 0) == Series.const(ctx, 1)
        assert double_factorial_power(fgl, 1, 0) == Series.const(ctx, 1)

    def test_additive_shape(self):
        ctx, fgl = setup("additive", 2, n_b=2)
        x1 = Series.gen(ctx, "x1")
        b1, b2 = Series.gen(ctx, "b1"), Series.gen(ctx, "b2")
        assert factorial_power(fgl, 1, 2) == (x1 + b1) * (x1 + b2)

    def test_zero_parameters_give_plain_power(self):
        ctx, fgl = setup("universal", 2)
        assert factorial_power(fgl, 1, 3, b_values=[]) == Series.gen(ctx, "x1") ** 3

    def test_budget_overflow(self):
        ctx, fgl = setup("universal", 2, n_b=1)
        with pytest.raises(BudgetError):
            factorial_power(fgl, 1, 2)

    def test_double_additive(self):
        ctx, fgl = setup("additive", 1)
        assert double_factorial_power(fgl, 1, 1, b_values=[]) == \
            Series.gen(ctx, "x1").scale(2)

    def test_double_multiplicative(self):
        ctx, fgl = setup("multiplicative", 1)
        x1, beta = Series.gen(ctx, "x1"), Series.gen(ctx, "beta")
        assert double_factorial_power(fgl, 1, 1, b_values=[]) == \
            2 * x1 + beta * x1 ** 2


class TestBracketMonomial:
    def test_rectangle_times_tail(self):
        # lam = (a^q, b^{n-q}) with zero parameters gives
        # x_1^{a+n-q} ... x_q^{a+n-q} x_{q+1}^b ... x_n^b
        ctx, fgl = setup("additive", 3, D=8)
        lam = Partition([2, 2, 1], n=3)
        got = bracket_monomial(fgl, lam, [])
        want = Series.monomial(ctx, {"x1": 3, "x2": 3, "x3": 1})
        assert got == want

    def test_distinct_partition_matches_staircase_powers(self):
        ctx, fgl = setup("additive", 3, n_b=4, D=8)
        lam = Partition([2, 1, 0], n=3)
        got = bracket_monomial(fgl, lam)
        want = Series.const(ctx, 1)
        for i in range(1, 4):
            want = want * factorial_power(fgl, i, lam.parts[i - 1] + 3 - i)
        assert got == want

    def test_empty_partition(self):
        ctx, fgl = setup("universal", 3)
        assert bracket_monomial(fgl, Partition([], n=3)) == Series.const(ctx, 1)


class TestSymmetrizeEngine:
    def test_two_variable_telescoping(self):
        ctx, fgl = setup("additive", 2)
        spec = SymmetrizerSpec.quotient((1, 1))
        assert symmetrize(fgl, Series.gen(ctx, "x1"), spec) == \
            Series.const(ctx, 1, bound=ctx.deg_bound - 2)

    def test_vandermonde_over_vandermonde(self):
        # every w in S_3 contributes w.(V / V) = 1
        ctx, fgl = setup("additive", 3)
        v = Series.const(ctx, 1)
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            v = v * (Series.gen(ctx, "x%d" % i) - Series.gen(ctx, "x%d" % j))
        spec = SymmetrizerSpec.full(3, ((1, 2), (1, 3), (2, 3)))
        assert symmetrize(fgl, v, spec) == Series.const(ctx, 6, bound=v.bound - 4)

    def test_empty_partition_series_leading_term(self):
        ctx, fgl = setup("universal", 2, n_b=1, A=3, D=4)
        s = universal_schur_s(fgl, [], 2, use_b=True)
        assert s.constant_term() == 1

    def test_empty_partition_expansion_coefficients(self):
        # frozen against two independent computations: the x1x2 and
        # b1x1x2 coefficients are a_{1,2} and 2 a_{1,1} a_{1,2} + 2 a_{1,3}
        ctx, fgl = setup("universal", 2, n_b=1, A=3, D=4)
        s = universal_schur_s(fgl, [], 2, use_b=True)

        def coeff(exps):
            out = {}
            for key, c in s.terms.items():
                e = ctx.exps_from_key(key)
                xb = {k: v for k, v in e.items() if k[0] in "xb"}
                if xb == exps:
                    rest = {k: v for k, v in e.items() if k[0] not in "xb"}
                    out[ctx.key_from_exps(rest)] = c
            return Series(ctx, out, s.bound)

        a11 = fgl.a_coefficient(1, 1)
        a12 = fgl.a_coefficient(1, 2)
        a13 = fgl.a_coefficient(1, 3)
        assert coeff({"x1": 1, "x2": 1}) == a12
        assert coeff({"b1": 1, "x1": 1, "x2": 1}) == \
            (a11 * a12).scale(2) + a13.scale(2)


def external_b1x1x2_coefficient():
    """The b1*x1*x2 coefficient of the n = 2 empty-partition S-function,
    F(x1, b1) / F(x1, conj x2) + (x1 <-> x2), from that definition alone.

    Sympy polynomials over Q[m1, m2, m3] for log(y) = y + m1 y^2 + m2 y^3
    + m3 y^4 and exp(y) = sum_k e_k y^k.  Every variable is scaled by eps,
    and products are cut above eps^4.  With log u - log v = (u - v) H,
    F(u, conj v) = exp(log u - log v) = (u - v) U for the unit
    U = H sum_k e_k L^(k-1), L = (u - v) H, inverted by its geometric
    series.  The sum over x1 <-> x2 is then divided by x1 - x2 once.
    """
    import sympy
    from sympy.polys.rings import ring
    top = 4
    K = sympy.QQ["m1", "m2", "m3"]
    R, eps, x1, x2, b1 = ring("eps,x1,x2,b1", K)
    log_c = [R(0), R(1)] + [R(m) for m in K.gens]
    exp_c = [R(K.from_sympy(c)) for c in sympy_exp_coefficients(top)]

    def cut(a, order=top):
        return R({mon: c for mon, c in a.items() if mon[0] <= order})

    def power_series(coeffs, a):
        acc, power = R(0), R(1)
        for k in range(1, top + 1):
            power = cut(power * a)
            acc += coeffs[k] * power
        return acc

    def F(u, v):
        return power_series(exp_c, power_series(log_c, u)
                            + power_series(log_c, v))

    def inverse_pair_unit(u, v):
        H = sum((log_c[k] * sum(u ** i * v ** (k - 1 - i) for i in range(k))
                 for k in range(1, top + 1)), R(0))
        L = cut((u - v) * H)
        U = cut(H * sum((exp_c[k] * L ** (k - 1)
                         for k in range(1, top + 1)), R(0)))
        return sum((cut((1 - U) ** k) for k in range(top + 1)), R(0))

    def drop_eps(a):
        return R({(mon[0] - 1,) + mon[1:]: c for mon, c in a.items()})

    # S = N1 / (eps (x1 - x2) U1) + N2 / (eps (x2 - x1) U2) with
    # N_i = F(eps x_i, eps b1); its eps^3 part needs N_i to eps^4
    u1, u2, b = eps * x1, eps * x2, eps * b1
    T = cut(drop_eps(F(u1, b)) * inverse_pair_unit(u1, u2)
            - drop_eps(F(u2, b)) * inverse_pair_unit(u2, u1), top - 1)
    S, remainder = T.div(x1 - x2)
    assert remainder == 0
    return K.to_sympy(S.coeff(eps ** 3 * b1 * x1 * x2))


class TestEmptyPartitionExternalCheck:
    def test_b1x1x2_coefficient_from_the_definition(self):
        # the evidence on criterion 02b: this value, not the literature's
        # a_{1,1} a_{1,2}, is what the definition gives
        import sympy
        m1, m2, m3 = sympy.symbols("m1:4")
        want = external_b1x1x2_coefficient()
        assert sympy.expand(want - (-32 * m1 ** 3 + 36 * m1 * m2 - 8 * m3)) == 0
        _, fgl = setup("universal", 2, n_b=1, A=3, D=4)
        x1, x2, b1 = sympy.symbols("x1 x2 b1")
        s = to_sympy(universal_schur_s(fgl, [], 2, use_b=True))
        got = sympy.Poly(s, x1, x2, b1).coeff_monomial(x1 * x2 * b1)
        assert sympy.expand(got - want) == 0


def reference_kernel(fgl, spec, w, bound):
    """The kernel of one coset, built literally for that coset.

    sign * prod over position pairs a < b not covered by w(pairs) of
             (y_a - y_b)
         * prod over pairs of unit(y_{w(i)}, y_{w(j)})^{-1},
    y_p = x_{var_ids[p]}, where sign counts the pairs that w maps onto a
    decreasing pair of positions.
    """
    var = spec.var_ids
    sign, covered = 1, set()
    kernel = Series.const(fgl.ctx, 1, bound)
    for (i, j) in spec.pair_set:
        a, b = w(i), w(j)
        kernel = kernel * fgl.pair_unit_inverse(var[a - 1], var[b - 1]).truncate(bound)
        if a > b:
            a, b, sign = b, a, -sign
        covered.add((a, b))
    for (a, b) in spec.all_pairs():
        if (a, b) not in covered:
            kernel = kernel * (fgl.x_gen(var[a - 1]) - fgl.x_gen(var[b - 1]))
    return kernel if sign == 1 else -kernel


def on_all_x(ctx, var_ids, w):
    """The permutation of all x-variables that w induces on var_ids."""
    images = list(range(1, ctx.n_x + 1))
    for pos, target in enumerate(w.images, start=1):
        images[var_ids[pos - 1] - 1] = var_ids[target - 1]
    return Permutation(images)


def reference_symmetrize(fgl, numerator, spec):
    """The coset sum term by term: a kernel and a product for every coset."""
    ctx = fgl.ctx
    var = spec.var_ids
    bound = min(numerator.bound, ctx.deg_bound)
    total = Series.zero(ctx, bound)
    for w in spec.reps:
        wn = numerator.act_permutation(on_all_x(ctx, var, w))
        total = total + wn * reference_kernel(fgl, spec, w, bound)
    for (i, j) in spec.all_pairs():
        total = total.exact_divide_linear(var[i - 1], var[j - 1])
    return total


ORBIT_MODES = {
    "universal": ("universal", ()),
    "universal-t": ("universal", ("t",)),
    "multiplicative": ("multiplicative", ()),
    "additive": ("additive", ()),
}


def orbit_cases(fgl):
    """(name, spec, numerator, valid) for every spec shape on n <= 3."""
    ctx = fgl.ctx
    x1, x2, x3 = (fgl.x_gen(i) for i in (1, 2, 3))
    t = Series.gen(ctx, "t") if ctx.has_gen("t") else Series.const(ctx, 3)
    b1 = fgl.b_gen(1)
    generic = x1 ** 2 * x2 + t * x3 * x1 - b1 * x2.scale(3) + fgl.formal_sum(x1, x3)
    sym12 = x1 * x2 * (x3 + t) + fgl.formal_sum(x1, x2) * x3
    sym23 = x1 ** 2 * (x2 + x3) + t * x2 * x3
    all3 = ((1, 2), (1, 3), (2, 3))
    Q, S, F = SymmetrizerSpec.quotient, SymmetrizerSpec.subgroup, SymmetrizerSpec.full
    full = F(3, all3)
    subset = Q((1, 1), var_ids=(2, 3))
    partial = Q(Partition([1, 1, 0], n=3).block_sizes)
    between = S((1, 2))
    grassmannian = Q((1, 2))
    kl = F(3, Q((1, 2)).pair_set)
    return [
        ("full", full, generic, True),
        ("var_ids subset", subset, generic, True),
        ("partial", partial, sym12, True),
        ("partial, not invariant", partial, x1 * t + x2 ** 2, False),
        ("between", between, generic, True),
        ("grassmannian", grassmannian, sym23, True),
        ("grassmannian, not invariant", grassmannian, x2 + x1 * x3, False),
        ("kl certificate", kl, factorial_power(fgl, 1, 3) * factorial_power(fgl, 2, 1),
         True),
        ("p/q coset form", grassmannian, x1 ** 2 * fgl.formal_sum(x1, x2)
         * fgl.formal_sum(x1, x3), True),
    ]


def dropped_vandermonde(fgl, spec):
    """The Vandermonde factors neither kept in the kernel nor divided out."""
    var = spec.var_ids
    out = Series.const(fgl.ctx, 1)
    for (i, j) in spec.all_pairs():
        if (i, j) not in spec.pair_set and (i, j) not in spec.kept:
            out = out * (fgl.x_gen(var[i - 1]) - fgl.x_gen(var[j - 1]))
    return out


class TestCosetOrbitEngine:
    """symmetrize (one kernel, one product, divided differences along the
    spec's word) against the literal per-coset sum."""

    @pytest.mark.parametrize("mode_name", sorted(ORBIT_MODES))
    def test_matches_per_coset_reference(self, mode_name):
        mode, scalars = ORBIT_MODES[mode_name]
        ctx, fgl = setup(mode, 3, n_b=3, D=3, scalars=scalars)
        for name, spec, numerator, valid in orbit_cases(fgl):
            if valid:
                want = reference_symmetrize(fgl, numerator, spec)
                got = symmetrize(fgl, numerator, spec)
                assert got.terms == want.terms, name
                assert got.bound == want.bound, name
            else:
                with pytest.raises(RemainderError):
                    reference_symmetrize(fgl, numerator, spec)
                with pytest.raises(NotInvariant):
                    symmetrize(fgl, numerator, spec)

    @pytest.mark.parametrize("mode_name", sorted(ORBIT_MODES))
    def test_coset_kernel_is_signed_image(self, mode_name):
        # with the dropped Vandermonde factors put back, the kernel of
        # coset w is sign(w) w.K
        mode, scalars = ORBIT_MODES[mode_name]
        ctx, fgl = setup(mode, 3, n_b=3, D=3, scalars=scalars)
        bound = ctx.deg_bound
        for name, spec, _, valid in orbit_cases(fgl):
            kernel = _coset_kernel(fgl, spec, bound) * dropped_vandermonde(fgl, spec)
            for w in spec.reps:
                image = kernel.act_permutation(on_all_x(ctx, spec.var_ids, w))
                assert reference_kernel(fgl, spec, w, bound) == \
                    image.scale(w.sign()), (name, w)


def compositions(n):
    """Every composition of n into positive parts."""
    if n == 0:
        return [()]
    return [(m,) + rest for m in range(1, n + 1) for rest in compositions(n - m)]


def block_invariant(fgl, blocks, var_ids):
    """A numerator invariant under Young(blocks) acting on var_ids but
    not under any larger Young subgroup: per block r, a power sum of
    degree r times (1 + b1 e_top), e_top the block's top elementary
    symmetric function."""
    numerator = Series.const(fgl.ctx, 1)
    start = 0
    for r, m in enumerate(blocks, start=1):
        xs = [fgl.x_gen(v) for v in var_ids[start:start + m]]
        power_sum, top = Series.zero(fgl.ctx), Series.const(fgl.ctx, 1)
        for x in xs:
            power_sum = power_sum + x ** r
            top = top * x
        numerator = numerator * power_sum * (1 + fgl.b_gen(1) * top)
        start += m
    return numerator


class TestEveryConstructor:
    """Every constructor against the literal per-coset sum at n <= 4."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quotient_and_subgroup(self, n):
        ctx, fgl = setup("universal", 4, n_b=1, D=1, scalars=("t",))
        x = [fgl.x_gen(i) for i in range(1, 5)]
        generic = x[0] ** 2 * x[1] + fgl.b_gen(1) * x[n - 1] + x[0] * x[n - 1] ** 3
        for var_ids in (tuple(range(1, n + 1)), tuple(range(5 - n, 5))[::-1]):
            for blocks in compositions(n):
                case = (var_ids, blocks)
                spec = SymmetrizerSpec.quotient(blocks, var_ids=var_ids)
                f = block_invariant(fgl, blocks, var_ids)
                got = symmetrize(fgl, f, spec)
                want = reference_symmetrize(fgl, f, spec)
                assert (got.terms, got.bound) == (want.terms, want.bound), case
                if var_ids[0] == 1:
                    spec = SymmetrizerSpec.subgroup(blocks)
                    got = symmetrize(fgl, generic, spec)
                    want = reference_symmetrize(fgl, generic, spec)
                    assert (got.terms, got.bound) == (want.terms, want.bound), case

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full(self, n):
        ctx, fgl = setup("multiplicative", n, n_b=1, D=1)
        x = [fgl.x_gen(i) for i in range(1, n + 1)]
        f = x[0] ** 3 * x[-1] + fgl.b_gen(1) * x[0] + Series.const(ctx, 2)
        every = SymmetrizerSpec.quotient((1,) * n).pair_set
        for pairs in ((), every, every[:1], every[::2],
                      SymmetrizerSpec.quotient((1, n - 1)).pair_set):
            spec = SymmetrizerSpec.full(n, pairs)
            got = symmetrize(fgl, f, spec)
            want = reference_symmetrize(fgl, f, spec)
            assert (got.terms, got.bound) == (want.terms, want.bound), pairs

    def test_quotient_needs_an_invariant_numerator(self):
        ctx, fgl = setup("universal", 4, n_b=1, D=1)
        f = block_invariant(fgl, (2, 2), (4, 3, 2, 1))
        assert not symmetrize(fgl, f, SymmetrizerSpec.quotient(
            (2, 2), var_ids=(4, 3, 2, 1))).is_zero()
        with pytest.raises(NotInvariant, match="x1, x3"):
            symmetrize(fgl, f, SymmetrizerSpec.quotient((2, 2), var_ids=(1, 3, 2, 4)))
        with pytest.raises(NotInvariant):
            symmetrize(fgl, f, SymmetrizerSpec.quotient((1, 3), var_ids=(4, 3, 2, 1)))


def pq_numerator(fgl, nu, n, use_b, doubled):
    """The P/Q numerator [x|b]^nu (or its doubled-head form) times
    prod_{i <= k, i < j <= n} (x_i +_L x_j), built term by term."""
    vals = None if use_b else []
    numerator = Series.const(fgl.ctx, 1)
    for i, p in enumerate(nu, start=1):
        if doubled:
            numerator = numerator * double_factorial_power(fgl, i, p, vals)
        else:
            numerator = numerator * factorial_power(fgl, i, p, 0, vals)
    for i in range(1, len(nu) + 1):
        for j in range(i + 1, n + 1):
            numerator = numerator * fgl.formal_sum(fgl.x_gen(i), fgl.x_gen(j))
    return numerator


class TestPQCosetForm:
    """P/Q sum over S_n / S_{n-k}; the full S_n sum counts each coset
    (n-k)! times, so it is the reference once scaled by 1/(n-k)!."""

    @pytest.mark.parametrize("mode_name", sorted(ORBIT_MODES))
    def test_matches_scaled_full_sum(self, mode_name):
        mode, scalars = ORBIT_MODES[mode_name]
        for n in (1, 2, 3):
            ctx, fgl = setup(mode, n, n_b=3, D=3, scalars=scalars)
            for nu in ([], [1], [3], [2, 1], [3, 1]):
                if len(nu) > n:
                    continue
                k = len(nu)
                pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, n + 1)]
                full = SymmetrizerSpec.full(n, pairs)
                for use_b in (False, True):
                    for doubled, family in ((False, universal_schur_p),
                                            (True, universal_schur_q)):
                        case = (n, nu, use_b, doubled)
                        want = reference_symmetrize(
                            fgl, pq_numerator(fgl, nu, n, use_b, doubled), full
                        ).scale(Fraction(1, math.factorial(n - k)))
                        got = family(fgl, nu, n, use_b=use_b)
                        assert got.terms == want.terms, case
                        assert got.bound == want.bound, case


class TestSpecConstructors:
    """quotient and subgroup against the literal pair lists and
    permutation lists of every spec shape."""

    @staticmethod
    def literal_specs(n):
        """(name, spec, pairs, reps) with pairs and reps written out."""
        Q, S = SymmetrizerSpec.quotient, SymmetrizerSpec.subgroup
        out = [("full", Q((1,) * n),
                [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
                coset_reps(n, (1,) * n)),
               ("one-row", Q((1, n - 1)), [(1, j) for j in range(2, n + 1)],
                coset_reps(n, (1, n - 1) if n > 1 else (1,)))]
        for q in range(1, n + 1):
            out.append(("grassmannian(%d)" % q, Q((q, n - q)),
                        [(i, j) for i in range(1, q + 1) for j in range(q + 1, n + 1)],
                        coset_reps(n, (q, n - q) if q < n else (n,))))
        for r in range(0, n + 1):
            out.append(("kl(%d)" % r, Q((1,) * r + (n - r,)),
                        [(i, j) for i in range(1, r + 1) for j in range(i + 1, n + 1)],
                        coset_reps(n, (1,) * r + ((n - r,) if n > r else ()))))
        for parts in partitions_up_to(3, n):
            lam = Partition(parts, n=n)
            out.append(("partial(%r)" % parts, Q(lam.block_sizes),
                        lam.pair_positions(), coset_reps(n, lam.block_sizes)))
            inside = [(i, j) for r in range(1, len(lam.block_sizes) + 1)
                      for i in range(lam.nu[r - 1] + 1, lam.nu[r] + 1)
                      for j in range(i + 1, lam.nu[r] + 1)]
            out.append(("between(%r)" % parts, S(lam.block_sizes), inside,
                        subgroup_elements(n, lam.block_sizes)))
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_literal_specs(self, n):
        for name, spec, pairs, reps in self.literal_specs(n):
            assert spec.var_ids == tuple(range(1, n + 1)), name
            assert spec.pair_set == tuple(sorted(pairs)), name
            assert [w.images for w in spec.reps] == \
                [w.images for w in reps], name

    @staticmethod
    def word_product(n, word):
        """The permutation s_(p_l) ... s_(p_1) of a word listed in the
        order its divided differences apply, in one-line notation."""
        images = list(range(1, n + 1))
        for p in reversed(word):
            images[p - 1], images[p] = images[p], images[p - 1]
        return tuple(images)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_words_factor_the_longest_element(self, n):
        # d_(w0) = d_(w^J) d_(w0_J) with lengths adding, w^J the longest
        # minimal coset representative
        longest = tuple(range(n, 0, -1))
        assert SymmetrizerSpec.full(n, ()).word == \
            SymmetrizerSpec.quotient((1,) * n).word
        for blocks in compositions(n):
            Q, S = SymmetrizerSpec.quotient(blocks), SymmetrizerSpec.subgroup(blocks)
            word = S.word + Q.word
            assert len(word) == n * (n - 1) // 2, blocks
            assert self.word_product(n, word) == longest, blocks
            assert len(Q.word) == len(Q.pair_set), blocks
            assert len(S.word) == len(S.pair_set), blocks
            assert self.word_product(n, Q.word) in [w.images for w in Q.reps], blocks

    def test_quotient_on_a_variable_subset(self):
        spec = SymmetrizerSpec.quotient((1, 1), var_ids=(2, 3))
        assert spec.var_ids == (2, 3) and spec.pair_set == ((1, 2),)
        assert len(spec.reps) == 2

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError):
            SymmetrizerSpec.quotient((1, -1))

class TestSchurFamilies:
    def test_additive_matches_classical(self):
        ctx, fgl = setup("additive", 3, D=4)
        got = universal_schur_s(fgl, [2, 1], 3)
        assert series_match(got, oracles.classical_schur(ctx, [2, 1], 3))[0]

    def test_symmetry_and_homogeneity(self):
        ctx, fgl = setup("universal", 3, D=4)
        s = universal_schur_s(fgl, [2, 1], 3)
        assert s.is_homogeneous(3)
        from cobschur import Permutation
        assert s.act_permutation(Permutation((3, 1, 2))) == s

    def test_sequence_is_raw(self):
        # unstraightened sequences are computed as-is; (0, 1) on two
        # variables collapses additively to either 0 or +-Schur
        ctx, fgl = setup("additive", 2, D=4)
        got = universal_schur_s(fgl, [0, 1], 2)
        assert got.is_zero() or series_match(
            got, oracles.classical_schur(ctx, [1], 2))[0]

    def test_p_single_variable_no_denominator(self):
        ctx, fgl = setup("universal", 1, n_b=3, D=4)
        assert universal_schur_p(fgl, [3], 1, use_b=True) == \
            factorial_power(fgl, 1, 3)

    def test_q_head_factor(self):
        ctx, fgl = setup("universal", 1, D=4)
        x1 = Series.gen(ctx, "x1")
        assert universal_schur_q(fgl, [1], 1) == fgl.formal_sum(x1, x1)

    def test_pq_reject_non_strict(self):
        ctx, fgl = setup("universal", 2, D=3)
        with pytest.raises(ValueError):
            universal_schur_p(fgl, [2, 2], 2)

    def test_prefactor_is_exact(self):
        # the coset-form evaluation is exact on a k < n strict partition
        ctx, fgl = setup("additive", 3, D=3)
        got = universal_schur_p(fgl, [1], 3)
        assert got == oracles.monomial_symmetric(ctx, [1], 3).truncate(got.bound)


class TestHallLittlewood:
    def test_t_one_gives_monomial(self):
        ctx, fgl = setup("universal", 3, D=4, scalars=("t",))
        H = universal_hall_littlewood(fgl, [2, 1], 3)
        want = oracles.monomial_symmetric(ctx, [2, 1], 3)
        assert H.substitute_gen("t", 1) == want.truncate(H.bound)

    def test_t_zero_gives_damon_type(self):
        ctx, fgl = setup("universal", 3, D=4, scalars=("t",))
        H = universal_hall_littlewood(fgl, [2, 2], 3)
        assert H.substitute_gen("t", 0) == new_universal_schur(fgl, [2, 2], 3)

    def test_t_minus_one_gives_p(self):
        ctx, fgl = setup("universal", 3, D=4, scalars=("t",))
        H = universal_hall_littlewood(fgl, [2, 1], 3)
        assert H.substitute_gen("t", -1) == universal_schur_p(fgl, [2, 1], 3)


class TestDamonType:
    def test_empty_is_one(self):
        ctx, fgl = setup("universal", 3, D=3)
        assert new_universal_schur(fgl, [], 3) == Series.const(
            ctx, 1, bound=ctx.deg_bound - 1 - 0)

    def test_distinct_partition_agrees_with_plain(self):
        ctx, fgl = setup("universal", 2, n_b=3, D=4)
        lam = [2, 1]
        a = new_universal_schur(fgl, lam, 2, use_b=True)
        b = universal_schur_s(fgl, lam, 2, use_b=True)
        assert series_match(a, b)[0]

    def test_repeated_parts_differ_from_plain(self):
        ctx, fgl = setup("universal", 2, n_b=3, D=4)
        a = new_universal_schur(fgl, [1, 1], 2, use_b=True)
        b = universal_schur_s(fgl, [1, 1], 2, use_b=True)
        assert not series_match(a, b)[0]

    def test_b_budget_is_what_the_block_monomial_reads(self):
        # (x|b)^[2,2] on two variables is [x1|b]^2 [x2|b]^2: b1, b2 only
        _, tight = setup("universal", 2, n_b=2, D=4)
        _, roomy = setup("universal", 2, n_b=3, D=4)
        assert series_match(new_universal_schur(tight, [2, 2], 2, use_b=True),
                            new_universal_schur(roomy, [2, 2], 2, use_b=True))[0]
        _, short = setup("universal", 2, n_b=1, D=4)
        with pytest.raises(BudgetError, match="n_b >= 2"):
            new_universal_schur(short, [2, 2], 2, use_b=True)

    def test_one_row_extended_range(self):
        ctx, fgl = setup("universal", 2, D=4)
        assert series_match(new_universal_schur_one_row(fgl, 1, 2),
                            new_universal_schur(fgl, [1], 2))[0]
        low = new_universal_schur_one_row(fgl, -1, 2)
        assert not low.is_zero()  # nonzero negative-index value


class TestKempfLaksovType:
    def test_full_length_agrees_with_plain(self):
        ctx, fgl = setup("universal", 2, n_b=3, D=4)
        a = universal_schur_kl(fgl, [2, 1], 2, use_b=True)
        b = universal_schur_s(fgl, [2, 1], 2, use_b=True)
        assert series_match(a, b)[0]

    def test_one_row_agrees_with_damon_type(self):
        ctx, fgl = setup("universal", 3, n_b=4, D=4)
        a = universal_schur_kl(fgl, [2], 3, use_b=True)
        b = new_universal_schur(fgl, [2], 3, use_b=True)
        assert series_match(a, b)[0]

    def test_additive_is_factorial_schur(self):
        ctx, fgl = setup("additive", 3, n_b=4, D=3)
        got = universal_schur_kl(fgl, [2, 1], 3, use_b=True)
        assert series_match(got, oracles.factorial_schur(ctx, [2, 1], 3))[0]


class TestSymmetrizerDegBound:
    """symmetrizer_deg_bound(D, n) against the engine's trust rule, on
    every family and every pushforward at n <= 4, D <= 3."""

    @staticmethod
    def universal(bound, n):
        ctx = RingContext(n_x=n, m_order=2, deg_bound=bound, scalars=("t",))
        return ctx, FormalGroupLaw(ctx, "universal")

    @staticmethod
    def values(ctx, fgl, n):
        """(name, value, the spec its symmetrizer runs) for each family and
        pushforward; [1] and the empty shape give both pair and no-pair
        block shapes."""
        Q, S = SymmetrizerSpec.quotient, SymmetrizerSpec.subgroup
        one = Series.const(ctx, 1)
        row = Partition([1], n=n)
        out = [("schur-s", universal_schur_s(fgl, [1], n), Q((1,) * n)),
               ("schur-p", universal_schur_p(fgl, [1], n), Q((1, n - 1))),
               ("schur-q", universal_schur_q(fgl, [1], n), Q((1, n - 1))),
               ("hl", universal_hall_littlewood(fgl, row, n), Q(row.block_sizes)),
               ("new-schur", new_universal_schur(fgl, row, n), Q(row.block_sizes)),
               ("one-row", new_universal_schur_one_row(fgl, 1, n), Q((1, n - 1))),
               ("schur-kl", universal_schur_kl(fgl, [1], n), Q((1, n - 1))),
               ("full-flag", pushforward_full_flag(fgl, one, n), Q((1,) * n)),
               ("grassmannian", grassmannian_pushforward(fgl, one, 1, n),
                Q((1, n - 1)))]
        for lam in (row, Partition([], n=n)):
            out.append(("partial%r" % (lam,), pushforward_partial_flag(
                fgl, one, lam, n), Q(lam.block_sizes)))
            out.append(("between%r" % (lam,), pushforward_between_flags(
                fgl, one, lam, n), S(lam.block_sizes)))
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("D", [0, 1, 2, 3])
    def test_every_symmetrizer_is_trusted_to_D(self, n, D):
        ctx, fgl = self.universal(symmetrizer_deg_bound(D, n), n)
        for name, value, spec in self.values(ctx, fgl, n):
            assert value.bound >= D, name
            # each pair costs its degree; the pair units cost one more
            assert value.bound == (D if spec.pair_set else D + 1), name

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("D", [0, 1, 2, 3])
    def test_applied_twice_covers_partial_after_between(self, n, D):
        bound = symmetrizer_deg_bound(symmetrizer_deg_bound(D, n), n)
        ctx, fgl = self.universal(bound, n)
        f = Series.const(ctx, 1)
        for lam in (Partition([1], n=n), Partition([], n=n)):
            mid = pushforward_between_flags(fgl, f, lam, n)
            assert pushforward_partial_flag(fgl, mid, lam, n).bound >= D, lam
