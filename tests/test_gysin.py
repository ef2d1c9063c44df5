import pytest

from cobschur import (RingContext, Series, FormalGroupLaw, Partition,
                      pushforward_full_flag, pushforward_partial_flag,
                      pushforward_between_flags, grassmannian_pushforward,
                      projective_residue, segre_series, required_weight_cap,
                      thom_porteous_class, kempf_laksov_class,
                      darondeau_pragacz_pushforward, LaurentWindow,
                      WindowExhausted, NotInvariant, universal_schur_s,
                      new_universal_schur, new_universal_schur_one_row,
                      universal_schur_kl, universal_hall_littlewood,
                      symmetrizer_deg_bound, oracles, series_match)


def setup(mode, n, n_b=0, A=2, D=4, scalars=()):
    ctx = RingContext(n_x=n, n_b=n_b, m_order=A if mode == "universal" else 0,
                      deg_bound=symmetrizer_deg_bound(D, n), scalars=scalars)
    return ctx, FormalGroupLaw(ctx, mode)


class TestFullFlag:
    def test_additive_two_variables(self):
        ctx, fgl = setup("additive", 2)
        got = pushforward_full_flag(fgl, Series.gen(ctx, "x1"), 2)
        assert got == Series.const(ctx, 1, bound=got.bound)

    def test_staircase_monomial_gives_schur(self):
        ctx, fgl = setup("universal", 3, D=3)
        f = Series.monomial(ctx, {"x1": 3, "x2": 2})
        got = pushforward_full_flag(fgl, f, 3)
        want = universal_schur_s(fgl, [1, 1], 3)
        assert got == want

    def test_factorial_staircase_gives_factorial_schur(self):
        from cobschur import factorial_power
        ctx, fgl = setup("universal", 2, n_b=3, D=3)
        f = factorial_power(fgl, 1, 3) * factorial_power(fgl, 2, 1)
        got = pushforward_full_flag(fgl, f, 2)
        want = universal_schur_s(fgl, [2, 1], 2, use_b=True)
        assert got == want


class TestPartialFlag:
    def test_block_monomial_gives_damon_type(self):
        from cobschur import bracket_monomial
        ctx, fgl = setup("universal", 3, n_b=4, D=3)
        lam = Partition([2, 2], n=3)
        got = pushforward_partial_flag(fgl, bracket_monomial(fgl, lam), lam, 3)
        assert got == new_universal_schur(fgl, lam, 3, use_b=True)

    def test_hl_numerator_gives_hl(self):
        ctx, fgl = setup("universal", 3, D=3, scalars=("t",))
        lam = Partition([1, 1], n=3)
        num = Series.monomial(ctx, {"x1": 1, "x2": 1})
        for (i, j) in lam.pair_positions():
            num = num * fgl.formal_sum(fgl.x_gen(i),
                                       fgl.t_series(fgl.x_inverse(j)))
        got = pushforward_partial_flag(fgl, num, lam, 3)
        assert got == universal_hall_littlewood(fgl, lam, 3)

    def test_staircase_type_agrees_with_full_flag(self):
        ctx, fgl = setup("universal", 3, D=3)
        f = Series.monomial(ctx, {"x1": 2, "x2": 1})
        lam = Partition([2, 1, 0], n=3)
        assert pushforward_partial_flag(fgl, f, lam, 3) == \
            pushforward_full_flag(fgl, f, 3)

    def test_invariance_enforced(self):
        ctx, fgl = setup("universal", 3, D=3)
        lam = Partition([1, 1], n=3)  # stabilizer S_2 x S_1
        with pytest.raises(NotInvariant):
            pushforward_partial_flag(fgl, Series.gen(ctx, "x1"), lam, 3)


class TestBetweenFlags:
    def test_empty_partition_gives_full_flag(self):
        ctx, fgl = setup("universal", 3, D=3)
        f = Series.monomial(ctx, {"x1": 2, "x2": 1})
        lam = Partition([], n=3)
        assert pushforward_between_flags(fgl, f, lam, 3) == \
            pushforward_full_flag(fgl, f, 3)

    def test_composition(self):
        # the partial pushforward runs on the output of between-flags
        ctx, fgl = setup("universal", 3, D=symmetrizer_deg_bound(2, 3))
        lam = Partition([1, 1], n=3)
        f = Series.monomial(ctx, {"x1": 2, "x2": 2, "x3": 1})
        lhs = pushforward_full_flag(fgl, f, 3)
        rhs = pushforward_partial_flag(
            fgl, pushforward_between_flags(fgl, f, lam, 3), lam, 3)
        b = min(lhs.bound, rhs.bound)
        assert lhs.truncate(b) == rhs.truncate(b)


class TestBetweenFlagsClosedForm:
    def test_three_block_parameter_shift(self):
        # lam = (2,2,1,0): blocks (2,1,1); the relative pushforward of
        # [x|b]^{lam+rho} is the block monomial times empty-shape
        # S-values with per-block shifted parameters
        from cobschur import factorial_power, bracket_monomial, universal_schur_s
        n, D = 4, 2
        lam = Partition([2, 2, 1, 0], n=n)
        n_b = max(lam.block_values[r] + n - lam.nu[r + 1]
                  + lam.block_sizes[r] - 1
                  for r in range(len(lam.block_sizes)))
        n_b = max(n_b, lam.parts[0] + n - 1)
        ctx = RingContext(n_x=n, n_b=n_b, m_order=2,
                          deg_bound=symmetrizer_deg_bound(D, n))
        fgl = FormalGroupLaw(ctx, "universal")
        num = Series.const(ctx, 1)
        for i in range(1, n + 1):
            num = num * factorial_power(fgl, i, lam.parts[i - 1] + n - i)
        lhs = pushforward_between_flags(fgl, num, lam, n)
        rhs = bracket_monomial(fgl, lam)
        for r in range(1, len(lam.block_sizes) + 1):
            shift = lam.block_values[r - 1] + n - lam.nu[r]
            block = tuple(range(lam.nu[r - 1] + 1, lam.nu[r] + 1))
            rhs = rhs * universal_schur_s(fgl, [0] * len(block), len(block),
                                          use_b=True, var_ids=block,
                                          b_shift=shift)
        b = min(lhs.bound, rhs.bound)
        assert lhs.truncate(b) == rhs.truncate(b)


class TestGrassmannian:
    def test_identity_operator_at_q_equals_n(self):
        ctx, fgl = setup("universal", 3, D=3)
        f = (Series.gen(ctx, "x1") + Series.gen(ctx, "x2")
             + Series.gen(ctx, "x3"))
        got = grassmannian_pushforward(fgl, f, 3, 3)
        assert series_match(got, f, deg=got.bound)[0]

    def test_classical_two_factor_formula(self):
        # additive: push(s_lam(Q) s_mu(S)) = s_{lam-r..., mu...}(E)
        # the pushforward runs on S-values on one and two variables
        ctx, fgl = setup("additive", 3, D=symmetrizer_deg_bound(4, 2))
        lam, mu = [2], [1, 1]
        q, n, r = 1, 3, 2
        f = (universal_schur_s(fgl, lam, q, var_ids=(1,))
             * universal_schur_s(fgl, mu, n - q, var_ids=(2, 3)))
        got = grassmannian_pushforward(fgl, f, q, n)
        want = oracles.classical_schur(ctx, [lam[0] - r] + mu, n)
        assert series_match(got, want.truncate(got.bound), deg=got.bound)[0]

    def test_non_invariant_rejected(self):
        ctx, fgl = setup("universal", 3, D=3)
        with pytest.raises(NotInvariant):
            grassmannian_pushforward(fgl, Series.gen(ctx, "x2"), 1, 3)

    def test_projection_formula(self):
        # fully symmetric factors pass through the pushforward
        ctx, fgl = setup("universal", 3, D=3)
        g = (Series.gen(ctx, "x1") + Series.gen(ctx, "x2")
             + Series.gen(ctx, "x3"))
        f = Series.monomial(ctx, {"x1": 2})
        lhs = grassmannian_pushforward(fgl, g * f, 1, 3)
        rhs = g * grassmannian_pushforward(fgl, f, 1, 3)
        b = min(lhs.bound, rhs.bound)
        assert lhs.truncate(b) == rhs.truncate(b)

    def test_p_family_pushforward(self):
        # the stabilizer-quotient pushforward of x^nu prod (x_i +_L x_j)
        # over the staircase-type quotient is the P-function
        from cobschur import universal_schur_p
        ctx, fgl = setup("universal", 3, D=3)
        nu = Partition([2, 1], n=3)
        k = nu.length
        num = Series.monomial(ctx, {"x1": 2, "x2": 1})
        for i in range(1, k + 1):
            for j in range(i + 1, 4):
                num = num * fgl.formal_sum(fgl.x_gen(i), fgl.x_gen(j))
        got = pushforward_partial_flag(fgl, num, nu, 3)
        assert got == universal_schur_p(fgl, nu, 3)

    def test_three_block_juxtaposition(self):
        # the d-block refinement of the juxtaposition identity: on three
        # singleton blocks the glued one-variable values recover the
        # full sequence function
        # the pushforward runs on one-variable S-values
        ctx, fgl = setup("universal", 3, D=symmetrizer_deg_bound(3, 1))
        n = 3
        lam = Partition([2, 1, 0], n=n)
        f = Series.const(ctx, 1)
        I_blocks = ([1], [0], [1])
        for r, Ir in enumerate(I_blocks, start=1):
            shift = n - lam.nu[r]
            f = f * universal_schur_s(fgl, [Ir[0] + shift], 1,
                                      var_ids=(r,))
        got = pushforward_partial_flag(fgl, f, lam, n)
        want = universal_schur_s(fgl, [e for (e,) in
                                       ((I[0],) for I in I_blocks)], n)
        b = min(got.bound, want.bound)
        assert got.truncate(b) == want.truncate(b)


class TestResidueAndSegre:
    def test_additive_residue_reproduces_h(self):
        n = 2
        ctx = RingContext(n_x=n, m_order=0, deg_bound=5)
        fgl = FormalGroupLaw(ctx, "additive")
        for k in range(0, 4):
            got = projective_residue(fgl, {k + n - 1: Series.const(ctx, 1)}, n)
            want = oracles.classical_schur(ctx, [k], n)
            assert got == want.truncate(got.bound)

    def test_additive_unit_residue(self):
        n = 3
        ctx = RingContext(n_x=n, m_order=0, deg_bound=4)
        fgl = FormalGroupLaw(ctx, "additive")
        got = projective_residue(fgl, {n - 1: Series.const(ctx, 1)}, n)
        assert got == Series.const(ctx, 1, bound=got.bound)

    def test_series_input_equivalent_to_dict(self):
        n = 2
        ctx = RingContext(n_x=n, m_order=2, deg_bound=4, aux=("s",),
                          m_weight_cap=min(required_weight_cap(n, 4, 0), 63))
        fgl = FormalGroupLaw(ctx, "universal")
        s = Series.gen(ctx, "s")
        assert projective_residue(fgl, s ** 2, n) == \
            projective_residue(fgl, {2: Series.const(ctx, 1)}, n)

    def test_x_dependent_coefficients_rejected(self):
        ctx = RingContext(n_x=2, m_order=2, deg_bound=4, aux=("s",))
        fgl = FormalGroupLaw(ctx, "universal")
        with pytest.raises(ValueError):
            projective_residue(fgl, Series.gen(ctx, "x1"), 2)

    def test_window_bounds_enforced(self):
        ctx = RingContext(n_x=2, m_order=2, deg_bound=3,
                          m_weight_cap=min(required_weight_cap(2, 3, 0), 63))
        fgl = FormalGroupLaw(ctx, "universal")
        with pytest.raises(WindowExhausted):
            segre_series(fgl, 2, 0, 5)
        w = segre_series(fgl, 2, 0, 2)
        with pytest.raises(WindowExhausted):
            w.coeff(3)

    def test_universal_window_matches_one_row(self):
        n, D = 2, 4
        cap = min(required_weight_cap(n, D, 1 - n), 63)
        wctx = RingContext(n_x=n, m_order=2, deg_bound=D, m_weight_cap=cap)
        wf = FormalGroupLaw(wctx, "universal")
        seg = segre_series(wf, n, 1 - n, 3)
        sctx, sf = setup("universal", n, D=D)
        for k in range(1 - n, 4):
            direct = new_universal_schur_one_row(sf, k, n)
            assert series_match(seg.coeff(k), direct, deg=min(D, direct.bound),
                                wcap=sctx.m_weight_cap)[0]

    def test_window_json_round_trip_fields(self):
        ctx = RingContext(n_x=1, m_order=0, deg_bound=3)
        fgl = FormalGroupLaw(ctx, "additive")
        w = segre_series(fgl, 1, -1, 2)
        doc = w.to_json_dict()
        assert doc["k_min"] == -1 and doc["k_max"] == 2 and doc["var"] == "u"


class TestThomPorteous:
    def test_full_rank_rectangle_is_one(self):
        ctx, fgl = setup("universal", 2, n_b=2, D=2)
        rep = thom_porteous_class(fgl, 2, 2, 2)
        assert rep.ok and rep.value == Series.const(ctx, 1, rep.value.bound)

    def test_internal_assertion_small(self):
        ctx, fgl = setup("universal", 2, n_b=2, D=2)
        rep = thom_porteous_class(fgl, 2, 2, 1)
        assert rep.ok
        assert rep.value == rep.alternates["damon-rectangle"]

    def test_additive_matches_relative_determinant(self):
        e = f = 2
        r = 1
        ctx, fga = setup("additive", f, n_b=e, D=1)
        rep = thom_porteous_class(fga, e, f, r)
        classes = oracles.chern_difference_classes(ctx, f, e, 2)
        det = oracles.jacobi_trudi_determinant(classes, [f - r])
        assert series_match(rep.value, det.truncate(rep.value.bound))[0]


class TestKempfLaksov:
    def test_paths_agree_and_full_length_is_plain(self):
        ctx, fgl = setup("universal", 2, n_b=3, D=3)
        kappa, damon = kempf_laksov_class(fgl, [2, 1], 2, 3)
        assert kappa.ok and damon.ok

    def test_damon_variant_equals_family(self):
        ctx, fgl = setup("universal", 3, n_b=4, D=3)
        kappa, damon = kempf_laksov_class(fgl, [2], 3, 4)
        want = new_universal_schur(
            fgl, Partition([2], n=3), 3,
            b_values=[fgl.b_gen(j) for j in range(1, 5)])
        assert damon.value == want


class TestDarondeauPragacz:
    def test_r_one_reduces_to_segre_extraction(self):
        n, D = 2, 3
        cap = min(required_weight_cap(n, D, 1 - n - D - 2), 63)
        ctx = RingContext(n_x=n, m_order=2, deg_bound=D, m_weight_cap=cap)
        fgl = FormalGroupLaw(ctx, "universal")
        k = 1
        got = darondeau_pragacz_pushforward(
            fgl, {(k + n - 1,): Series.const(ctx, 1)}, 1, n)
        seg = segre_series(fgl, n, 1 - n, D)
        assert got == seg.coeff(k)

    @pytest.mark.parametrize("form", ["series", "dict"])
    def test_x_dependent_coefficients_rejected(self, form):
        n, D = 2, 3
        cap = required_weight_cap(n, D, 1 - n - D - 2)
        ctx = RingContext(n_x=n, m_order=2, deg_bound=D, m_weight_cap=cap,
                          aux=("s", "s1"))
        fgl = FormalGroupLaw(ctx, "universal")
        x1 = Series.gen(ctx, "x1")
        f = x1 * Series.gen(ctx, "s") if form == "series" else {1: x1}
        with pytest.raises(ValueError, match="x-free"):
            projective_residue(fgl, f, n)
        f = x1 * Series.gen(ctx, "s1") if form == "series" else {(1,): x1}
        with pytest.raises(ValueError, match="x-free"):
            darondeau_pragacz_pushforward(fgl, f, 1, n)

    @staticmethod
    def _against_symmetrizer(n, rr, D, exps):
        from cobschur import SymmetrizerSpec, symmetrize
        cap = min(required_weight_cap(n, D, 1 - n - D - 2), 63)
        wctx = RingContext(n_x=n, m_order=2, deg_bound=D, m_weight_cap=cap)
        wf = FormalGroupLaw(wctx, "universal")
        got = darondeau_pragacz_pushforward(
            wf, {exps: Series.const(wctx, 1)}, rr, n)
        sctx, sf = setup("universal", n, D=D)
        num = Series.monomial(sctx, {"x%d" % (i + 1): e
                                     for i, e in enumerate(exps)})
        pairs = tuple((i, j) for i in range(1, rr + 1)
                      for j in range(i + 1, n + 1))
        spec = SymmetrizerSpec.full(n, pairs)
        direct = symmetrize(sf, num, spec)
        assert series_match(got, direct, deg=min(D, direct.bound),
                            wcap=sctx.m_weight_cap)[0]

    def test_extraction_matches_symmetrizer(self):
        self._against_symmetrizer(3, 2, 3, (3, 1))

    @pytest.mark.parametrize("n, D, exps", [
        (3, 3, (2, 1, 0)), (3, 3, (3, 1, 0)), (4, 2, (3, 2, 1))])
    def test_three_variable_extraction_matches_symmetrizer(self, n, D, exps):
        self._against_symmetrizer(n, 3, D, exps)

    def test_multi_term_polynomial_with_parameters(self):
        # f = 3 t1^3 t2 - (1/2) b1 t1^2 t2^2 pushes forward linearly and
        # the parameter coefficient rides along as a scalar
        from fractions import Fraction
        from cobschur import SymmetrizerSpec, symmetrize
        n, rr, D = 3, 2, 3
        cap = min(required_weight_cap(n, D, 1 - n - D - 2), 63)
        wctx = RingContext(n_x=n, n_b=1, m_order=2, deg_bound=D,
                           m_weight_cap=cap)
        wf = FormalGroupLaw(wctx, "universal")
        fdict = {(3, 1): Series.const(wctx, 3),
                 (2, 2): Series.gen(wctx, "b1").scale(Fraction(-1, 2))}
        got = darondeau_pragacz_pushforward(wf, fdict, rr, n)
        sctx = RingContext(n_x=n, n_b=1, m_order=2,
                           deg_bound=symmetrizer_deg_bound(D, n))
        sf = FormalGroupLaw(sctx, "universal")
        num = (Series.monomial(sctx, {"x1": 3, "x2": 1}, coeff=3)
               + Series.monomial(sctx, {"x1": 2, "x2": 2, "b1": 1},
                                 coeff=Fraction(-1, 2)))
        pairs = tuple((i, j) for i in range(1, rr + 1)
                      for j in range(i + 1, n + 1))
        spec = SymmetrizerSpec.full(n, pairs)
        direct = symmetrize(sf, num, spec)
        assert series_match(got, direct, deg=min(D, direct.bound),
                            wcap=sctx.m_weight_cap)[0]


# ---------------------------------------------------------------------------
# Reference: the window functions as they were before the weight cap
# bounded the windows, each clipped to explicit x-degree extents.  They
# stay as an independent check of segre_series and projective_residue,
# most of all for k < 1 - n, where no symmetrizer value exists to compare.


def _wmul(ctx, A, B, lo, hi):
    out = {}
    for ja, a in A.items():
        for jb, b in B.items():
            j = ja + jb
            if j < lo or j > hi:
                continue
            p = a * b
            if p.is_zero():
                continue
            if j in out:
                out[j] = out[j] + p
            else:
                out[j] = p
    return {j: c for j, c in out.items() if not c.is_zero()}


def _inverse_x_powers(fgl, i, top):
    """Powers 1..top of the formal inverse of x_i."""
    xb = fgl.x_inverse(i)
    out = [None, xb]
    for q in range(2, top + 1):
        out.append(out[-1] * xb)
    return out


def _pair_factor_window(fgl, i, lo):
    """r_i with t +_L conj(x_i) = t * (1 + r_i), as a u-window on [lo, 1].

    r_i = u * (conj(x_i) + sum_{p,q >= 1} a_{p,q} t^p conj(x_i)^q); each
    term carries positive x-degree, so geometric inversion terminates.
    """
    ctx = fgl.ctx
    D = ctx.deg_bound
    pmax = max(0, 1 - lo)
    powers = _inverse_x_powers(fgl, i, D)
    out = {1: powers[1]}
    for p in range(1, pmax + 1):
        j = 1 - p
        acc = Series.zero(ctx)
        for q in range(1, D + 1):
            if p + q - 1 > ctx.m_weight_cap:
                break
            a = fgl.a_coefficient(p, q)
            if not a.is_zero():
                acc = acc + a * powers[q]
        if not acc.is_zero():
            out[j] = acc
    return out


def _inv_pair_window(fgl, i, lo, hi):
    """Window of 1 / (t +_L conj(x_i)) on [lo, hi].

    Partial powers of r keep their natural tops (the s-th power reaches
    u^s): later factors with negative keys pull high terms back into the
    requested window, so truncating partials at ``hi`` would lose terms.
    """
    ctx = fgl.ctx
    D = ctx.deg_bound
    r = _pair_factor_window(fgl, i, lo - 1 - D)
    acc = {0: Series.const(ctx, 1)}
    total = {0: Series.const(ctx, 1)}
    neg_r = {j: -c for j, c in r.items()}
    for s in range(1, D + 1):
        acc = _wmul(ctx, acc, neg_r, lo - 1 - (D - s), s)
        if not acc:
            break
        for j, c in acc.items():
            total[j] = total.get(j, Series.zero(ctx)) + c
    return {j + 1: c for j, c in total.items()
            if lo <= j + 1 <= hi and not c.is_zero()}


def _omega_inverse_window(fgl, lo):
    """Window of 1 / (1 + sum_{p>=1} a_{p,1} u^{-p}) on [lo, 0]."""
    ctx = fgl.ctx
    g = {}
    for p in range(1, max(0, -lo) + 1):
        if p > ctx.m_weight_cap:
            break
        a = fgl.a_coefficient(p, 1)
        if not a.is_zero():
            g[-p] = -a
    total = {0: Series.const(ctx, 1)}
    acc = {0: Series.const(ctx, 1)}
    for s in range(1, max(0, -lo) + 1):
        acc = _wmul(ctx, acc, g, lo, 0)
        if not acc:
            break
        for j, c in acc.items():
            total[j] = total.get(j, Series.zero(ctx)) + c
    return total


def _denominator_inverse_window(fgl, n, lo, hi):
    """Window of 1 / (omega-denominator * prod_i (t +_L conj(x_i))).

    Each inverse pair factor has natural top D + 1 (a term at u^j carries
    x-degree >= j - 1) and the omega factor has top 0.  Partial products
    keep their accumulated natural top; the lower margin of a partial is
    the request minus the tops still to come.
    """
    ctx = fgl.ctx
    D = ctx.deg_bound
    factors = [_omega_inverse_window(fgl, lo - n * (D + 1))]
    for i in range(1, n + 1):
        factors.append(_inv_pair_window(fgl, i, lo - (n - 1) * (D + 1), D + 1))
    acc = factors[0]
    tops = [0] + [D + 1] * n
    top_so_far = 0
    for idx in range(1, len(factors)):
        remaining = sum(tops[idx + 1:])
        top_so_far += tops[idx]
        acc = _wmul(ctx, acc, factors[idx], lo - remaining,
                    top_so_far if remaining else hi)
    return acc


def _reference_window(fgl, n, k_min, k_max):
    inv = _denominator_inverse_window(fgl, n, k_min + n, k_max + n)
    return {j - n: c for j, c in inv.items()}


def _reference_residue(fgl, layers, n):
    ctx = fgl.ctx
    fw = {-e: c for e, c in layers.items() if not c.is_zero()}
    top = max(layers) if layers else 0
    inv = _denominator_inverse_window(fgl, n, 1 - top, 1 + top)
    out = _wmul(ctx, fw, inv, 1, 1)
    return out.get(1, Series.zero(ctx))


class TestWindowsAgainstExtentReference:
    @pytest.mark.parametrize("mode", ["universal", "multiplicative", "additive"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_windows_and_residues(self, mode, n):
        for D in (2, 3, 4):
            for k_min in (-4, -1, 2):
                cap = required_weight_cap(n, D, k_min)
                ctx = RingContext(
                    n_x=n, m_order=2 if mode == "universal" else 0,
                    deg_bound=D, m_weight_cap=cap,
                    scalars=("beta",) if mode == "multiplicative" else ())
                fgl = FormalGroupLaw(ctx, mode)
                seg = segre_series(fgl, n, k_min, D)
                want = _reference_window(fgl, n, k_min, D)
                for k in range(k_min, D + 1):
                    got = seg.coeff(k)
                    assert got == want.get(k, Series.zero(ctx)), (D, k_min, k)
                    if k + n - 1 >= 0:
                        layers = {k + n - 1: Series.const(ctx, 1)}
                        assert projective_residue(fgl, layers, n) == got
                        assert _reference_residue(fgl, layers, n) == got
                # a two-term numerator with a weighted coefficient
                scalar = {"universal": "m1", "multiplicative": "beta"}.get(mode)
                c = Series.gen(ctx, scalar) if scalar else Series.const(ctx, 5)
                layers = {n: c, n + 1: Series.const(ctx, -3)}
                assert projective_residue(fgl, layers, n) == \
                    _reference_residue(fgl, layers, n)


class TestCustomLawRejected:
    def test_window_functions_reject_custom_law(self):
        from fractions import Fraction
        ctx = RingContext(n_x=2, deg_bound=3)
        fgl = FormalGroupLaw(ctx, "custom", {1: Fraction(1), 2: Fraction(0)})
        one = Series.const(ctx, 1)
        with pytest.raises(ValueError, match="graded"):
            segre_series(fgl, 2, 0, 2)
        with pytest.raises(ValueError, match="graded"):
            projective_residue(fgl, {1: one}, 2)
        with pytest.raises(ValueError, match="graded"):
            darondeau_pragacz_pushforward(fgl, {(1,): one}, 1, 2)


class TestWindowCapLimit:
    def test_cap_above_window_maximum_rejected(self):
        # windows need F(u, v) to degree W + 1, at most MAX_DEG_BOUND
        from cobschur.gysin import MAX_WINDOW_CAP
        ctx = RingContext(n_x=2, deg_bound=3, m_order=2,
                          m_weight_cap=MAX_WINDOW_CAP + 1)
        fgl = FormalGroupLaw(ctx, "universal")
        one = Series.const(ctx, 1)
        with pytest.raises(WindowExhausted, match="m_weight_cap <= %d"
                           % MAX_WINDOW_CAP):
            segre_series(fgl, 2, 0, 2)
        with pytest.raises(WindowExhausted):
            projective_residue(fgl, {1: one}, 2)
        with pytest.raises(WindowExhausted):
            darondeau_pragacz_pushforward(fgl, {(1,): one}, 1, 2)
        # nothing was built before the rejection
        assert "scratch" not in fgl._cache
