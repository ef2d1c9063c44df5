"""The t-deformation: one family interpolating three.

The deformed coset symmetrizer H_lam(x; t) collapses at t = 1 to the
monomial symmetric polynomial, at t = 0 to the Damon-type function, and
at t = -1 (strict shapes) to the P-family.
"""

from cobschur import (RingContext, FormalGroupLaw, universal_hall_littlewood,
                      universal_schur_p, new_universal_schur,
                      symmetrizer_deg_bound, oracles)

print(__doc__)

n, lam = 3, [2, 1]
bound = symmetrizer_deg_bound(4, n)
ctx = RingContext(n_x=n, m_order=2, deg_bound=bound, scalars=("t",))
fgl = FormalGroupLaw(ctx, "universal")

H = universal_hall_littlewood(fgl, lam, n)
print("H_%r(x_%d; t), low order:" % (lam, n))
print(" ", H.truncate(3).text())
print()

m = oracles.monomial_symmetric(ctx, lam, n)
print("t = 1  -> monomial symmetric:",
      H.substitute_gen("t", 1) == m.truncate(H.bound))
print("t = 0  -> Damon-type function:",
      H.substitute_gen("t", 0) == new_universal_schur(fgl, lam, n))
print("t = -1 -> P-family (strict shape):",
      H.substitute_gen("t", -1) == universal_schur_p(fgl, lam, n))
print()

# additively the same object is the classical Hall-Littlewood polynomial
actx = RingContext(n_x=n, m_order=0, deg_bound=bound, scalars=("t",))
afgl = FormalGroupLaw(actx, "additive")
Ha = universal_hall_littlewood(afgl, lam, n)
classical = oracles.classical_hall_littlewood(actx, lam, n)
print("additive collapse equals the normalized full-sum oracle:",
      Ha == classical.truncate(Ha.bound))
