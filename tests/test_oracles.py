from fractions import Fraction

import pytest

from cobschur import RingContext, Series, oracles
from conftest import graded_component


@pytest.fixture
def ctx3():
    return RingContext(n_x=3, n_b=4, m_order=0, deg_bound=9,
                       scalars=("t", "beta"))


class TestClassicalSchur:
    def test_empty(self, ctx3):
        assert oracles.classical_schur(ctx3, [], 3) == Series.const(ctx3, 1, 6)

    def test_one_box_is_e1(self, ctx3):
        got = oracles.classical_schur(ctx3, [1], 3)
        want = sum((Series.gen(ctx3, "x%d" % i) for i in (1, 2, 3)),
                   Series.zero(ctx3))
        assert got == want.truncate(got.bound)

    def test_two_one_tableau_count(self, ctx3):
        # semistandard tableaux of shape (2,1), entries <= 3: the monomial
        # expansion is m_(2,1) + 2 m_(1,1,1)
        got = oracles.classical_schur(ctx3, [2, 1], 3)
        want = (oracles.monomial_symmetric(ctx3, [2, 1], 3)
                + oracles.monomial_symmetric(ctx3, [1, 1, 1], 3).scale(2))
        assert got == want.truncate(got.bound)


class TestFactorialSchur:
    def test_zero_parameters_reduce_to_schur(self, ctx3):
        got = oracles.factorial_schur(ctx3, [2, 1], 3, b_values=[])
        assert got == oracles.classical_schur(ctx3, [2, 1], 3)

    def test_empty_is_one(self, ctx3):
        assert oracles.factorial_schur(ctx3, [], 3) == Series.const(ctx3, 1, 6)

    def test_single_row_single_variable(self):
        ctx = RingContext(n_x=1, n_b=2, deg_bound=4)
        got = oracles.factorial_schur(ctx, [2], 1)
        x1 = Series.gen(ctx, "x1")
        assert got == (x1 + Series.gen(ctx, "b1")) * (x1 + Series.gen(ctx, "b2"))


class TestHallLittlewood:
    def test_t_zero_is_schur(self, ctx3):
        got = oracles.classical_hall_littlewood(ctx3, [2, 1], 3)
        assert got.substitute_gen("t", 0) == oracles.classical_schur(ctx3, [2, 1], 3)

    def test_t_one_is_monomial(self, ctx3):
        got = oracles.classical_hall_littlewood(ctx3, [2, 1], 3)
        want = oracles.monomial_symmetric(ctx3, [2, 1], 3)
        assert got.substitute_gen("t", 1) == want.truncate(got.bound)

    def test_two_variable_row(self):
        ctx = RingContext(n_x=2, deg_bound=5, scalars=("t",))
        got = oracles.classical_hall_littlewood(ctx, [2], 2)
        t = Series.gen(ctx, "t")
        want = (oracles.monomial_symmetric(ctx, [2], 2)
                + (1 - t) * oracles.monomial_symmetric(ctx, [1, 1], 2))
        assert got == want.truncate(got.bound)


class TestSchurPQ:
    def test_p_one_box(self):
        ctx = RingContext(n_x=2, deg_bound=4, scalars=("t",))
        got = oracles.schur_p_polynomial(ctx, [1], 2)
        assert got == Series.gen(ctx, "x1") + Series.gen(ctx, "x2")

    def test_q_one_box_single_variable(self):
        ctx = RingContext(n_x=1, deg_bound=4, scalars=("t",))
        assert oracles.schur_q_polynomial(ctx, [1], 1) == \
            Series.gen(ctx, "x1").scale(2)

    def test_q_is_power_of_two_times_p(self, ctx3):
        P = oracles.schur_p_polynomial(ctx3, [2, 1], 3)
        Q = oracles.schur_q_polynomial(ctx3, [2, 1], 3)
        assert Q == P.scale(4)

    def test_rejects_non_strict(self, ctx3):
        with pytest.raises(ValueError):
            oracles.schur_p_polynomial(ctx3, [2, 2], 3)


class TestGrothendieck:
    def test_empty_is_one(self, ctx3):
        assert oracles.factorial_grothendieck(ctx3, [], 3) == \
            Series.const(ctx3, 1, 9)

    def test_single_box_two_variables(self):
        ctx = RingContext(n_x=2, deg_bound=5, scalars=("beta",))
        got = oracles.factorial_grothendieck(ctx, [1], 2, b_values=[])
        x1, x2 = Series.gen(ctx, "x1"), Series.gen(ctx, "x2")
        beta = Series.gen(ctx, "beta")
        assert got == x1 + x2 + beta * x1 * x2

    def test_beta_zero_degenerates_to_factorial_schur(self, ctx3):
        got = oracles.factorial_grothendieck(ctx3, [2, 1], 3)
        assert got.substitute_gen("beta", 0) == \
            oracles.factorial_schur(ctx3, [2, 1], 3).truncate(got.bound)

    def test_guards_large_instances(self, ctx3):
        with pytest.raises(ValueError):
            oracles.factorial_grothendieck(ctx3, [4, 4, 4], 3)


class TestMonomialSymmetric:
    def test_values(self):
        ctx = RingContext(n_x=2, deg_bound=5)
        assert oracles.monomial_symmetric(ctx, [], 2) == Series.const(ctx, 1)
        got = oracles.monomial_symmetric(ctx, [2, 1], 2)
        assert got == (Series.monomial(ctx, {"x1": 2, "x2": 1})
                       + Series.monomial(ctx, {"x1": 1, "x2": 2}))

    def test_one_row(self, ctx3):
        got = oracles.monomial_symmetric(ctx3, [1], 3)
        want = sum((Series.gen(ctx3, "x%d" % i) for i in (1, 2, 3)),
                   Series.zero(ctx3))
        assert got == want


class TestChernDeterminant:
    def test_rank_one_case(self):
        # f = e = 1, r = 0: the locus class is x1 - b1 and the 1x1
        # determinant is c_1(F - E)
        ctx = RingContext(n_x=1, n_b=1, deg_bound=4)
        classes = oracles.chern_difference_classes(ctx, 1, 1, 2)
        det = oracles.jacobi_trudi_determinant(classes, [1])
        assert graded_component(det, 1) == \
            Series.gen(ctx, "x1") - Series.gen(ctx, "b1")

    def test_empty_determinant_is_none(self):
        ctx = RingContext(n_x=1, n_b=1, deg_bound=3)
        classes = oracles.chern_difference_classes(ctx, 1, 1, 1)
        assert oracles.jacobi_trudi_determinant(classes, []) is None
