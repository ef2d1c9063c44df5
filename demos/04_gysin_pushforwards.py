"""Pushforwards along flag bundles as coset symmetrizers.

Shows the full-flag operator producing the S-family from staircase
monomials, the stabilizer-quotient operator producing the Damon-type
family from block monomials, the factorization through an intermediate
flag, and the juxtaposition identity for the Grassmannian operator.
"""

from cobschur import (RingContext, Series, FormalGroupLaw, Partition,
                      pushforward_full_flag, pushforward_partial_flag,
                      pushforward_between_flags, grassmannian_pushforward,
                      bracket_monomial, universal_schur_s, new_universal_schur,
                      symmetrizer_deg_bound, series_match)

print(__doc__)

n = 3
ctx = RingContext(n_x=n, m_order=2, deg_bound=symmetrizer_deg_bound(3, n))
fgl = FormalGroupLaw(ctx, "universal")

f = Series.monomial(ctx, {"x1": 3, "x2": 1})  # staircase + (1, 0, 0)
print("full-flag pushforward of x1^3 x2 equals the S-function for (1):",
      pushforward_full_flag(fgl, f, n) == universal_schur_s(fgl, [1], n))

lam = Partition([2, 2], n=n)
block = bracket_monomial(fgl, lam, [])
print("stabilizer-quotient pushforward of the block monomial is Damon-type:",
      pushforward_partial_flag(fgl, block, lam, n)
      == new_universal_schur(fgl, lam, n))

# factorization through the intermediate flag: the partial pushforward
# runs on the output of between-flags, so the margin is applied twice
ctx2 = RingContext(n_x=n, m_order=2,
                   deg_bound=symmetrizer_deg_bound(symmetrizer_deg_bound(2, n), n))
fgl2 = FormalGroupLaw(ctx2, "universal")
g = Series.monomial(ctx2, {"x1": 2, "x2": 2, "x3": 1})
lhs = pushforward_full_flag(fgl2, g, n)
rhs = pushforward_partial_flag(
    fgl2, pushforward_between_flags(fgl2, g, lam, n), lam, n)
b = min(lhs.bound, rhs.bound)
print("full = partial o between on x1^2 x2^2 x3:",
      lhs.truncate(b) == rhs.truncate(b))

# juxtaposition: the Grassmannian operator glues S-functions on
# complementary variable blocks
q = 1
I, J = [1], [1, 0]
sI = universal_schur_s(fgl, [I[0] + (n - q)], q, var_ids=(1,))
sJ = universal_schur_s(fgl, J, n - q, var_ids=(2, 3))
lhs = grassmannian_pushforward(fgl, sI * sJ, q, n)
rhs = universal_schur_s(fgl, I + J, n)
b = min(lhs.bound, rhs.bound)
print("juxtaposition identity for I=%r, J=%r:" % (I, J),
      series_match(lhs.truncate(b), rhs.truncate(b), deg=b)[0])
