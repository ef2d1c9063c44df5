"""The universal Schur-type families and their classical degenerations.

Computes the factorial S-family, the P/Q-families and the Damon-type
family over the truncated universal law, then collapses the law to the
additive and multiplicative ones and compares with the classical
polynomials computed by entirely independent oracles.
"""

from cobschur import (RingContext, Series, FormalGroupLaw, universal_schur_s,
                      universal_schur_p, universal_schur_q,
                      new_universal_schur, symmetrizer_deg_bound, oracles,
                      series_match)

print(__doc__)

n, lam = 2, [2, 1]

ctx = RingContext(n_x=n, n_b=3, m_order=2, deg_bound=symmetrizer_deg_bound(3, n))
fgl = FormalGroupLaw(ctx, "universal")
s = universal_schur_s(fgl, lam, n, use_b=True)
print("universal factorial S, lam=%r, n=%d (low order):" % (lam, n))
print(" ", s.truncate(3).text())
print()

# additive collapse: the same symmetrizer over F(u,v) = u+v gives the
# classical factorial Schur polynomial exactly
actx = RingContext(n_x=n, n_b=3, m_order=0, deg_bound=symmetrizer_deg_bound(3, n))
afgl = FormalGroupLaw(actx, "additive")
sa = universal_schur_s(afgl, lam, n, use_b=True)
oracle = oracles.factorial_schur(actx, lam, n)
print("additive collapse equals the bialternant oracle:",
      series_match(sa, oracle)[0])

Pa = universal_schur_p(afgl, lam, n)
Qa = universal_schur_q(afgl, lam, n)
print("P-family additive = Hall-Littlewood at t=-1:",
      series_match(Pa, oracles.schur_p_polynomial(
          RingContext(n_x=n, m_order=0, deg_bound=symmetrizer_deg_bound(3, n),
                      scalars=("t",)),
          lam, n))[0])
print("Q-family additive = 2^l * P:", Qa == Pa.scale(4))
print()

# multiplicative collapse: set-valued tableaux
mctx = RingContext(n_x=n, n_b=3, m_order=0, deg_bound=symmetrizer_deg_bound(5, n),
                   scalars=("beta",))
mfgl = FormalGroupLaw(mctx, "multiplicative")
sm = new_universal_schur(mfgl, lam, n, use_b=True)
G = oracles.factorial_grothendieck(mctx, lam, n)
print("multiplicative Damon-type family equals the set-valued tableau sum:",
      series_match(sm.truncate(5), G.truncate(5), deg=5)[0])

# the S- and Damon-type families agree exactly when the parts are
# distinct, and differ once parts repeat (the difference is a factor of
# empty-shape S-values, which starts two degrees above |lam|)
wctx = RingContext(n_x=n, n_b=3, m_order=2, deg_bound=symmetrizer_deg_bound(4, n))
wfgl = FormalGroupLaw(wctx, "universal")
d1 = universal_schur_s(wfgl, [2, 1], n, use_b=True)
d2 = new_universal_schur(wfgl, [2, 1], n, use_b=True)
print("distinct parts (2,1): S equals Damon-type:", series_match(d1, d2)[0])
e1 = universal_schur_s(wfgl, [1, 1], n, use_b=True)
e2 = new_universal_schur(wfgl, [1, 1], n, use_b=True)
print("repeated parts (1,1): S equals Damon-type:", series_match(e1, e2)[0])
diff = e1 - e2
print("  leading difference terms:", diff.text()[:72], "+ ...")
