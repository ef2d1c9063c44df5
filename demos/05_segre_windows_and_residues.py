"""Residue formula and the two-sided Segre generating series.

The projective-bundle pushforward is a residue at the origin; expanding
at infinity (u = 1/t) packages all one-row values, including the
negative-index ones, into a doubly-infinite series whose windows this
demo prints and cross-checks against the direct symmetrizer.
"""

from cobschur import (RingContext, Series, FormalGroupLaw, segre_series,
                      projective_residue, required_weight_cap,
                      new_universal_schur_one_row, symmetrizer_deg_bound,
                      series_match)

print(__doc__)

n, D = 2, 4
cap = required_weight_cap(n, D, 1 - n)
wctx = RingContext(n_x=n, m_order=2, deg_bound=D, m_weight_cap=cap)
wf = FormalGroupLaw(wctx, "universal")

window = segre_series(wf, n, 1 - n, 3)
print("Segre window for n = %d (trusted to degree %d):" % (n, D))
for k in range(1 - n, 4):
    print("  u^%+d: %s" % (k, window.coeff(k).truncate(2).text() or "0"), "+ ...")
print()

# the residue of t^{k+n-1} picks out the same coefficients
for k in (0, 2):
    res = projective_residue(wf, {k + n - 1: Series.const(wctx, 1)}, n)
    print("residue of t^%d equals the u^%d window coefficient:"
          % (k + n - 1, k), res == window.coeff(k))

# and both agree with the one-row coset symmetrizer where it is defined
sctx = RingContext(n_x=n, m_order=2, deg_bound=symmetrizer_deg_bound(D, n))
sf = FormalGroupLaw(sctx, "universal")
for k in (1 - n, 1):
    direct = new_universal_schur_one_row(sf, k, n)
    ok = series_match(window.coeff(k), direct, deg=min(D, direct.bound))[0]
    print("one-row symmetrizer agrees at k = %+d:" % k, ok)
print()

# additive collapse: positive coefficients are the complete homogeneous
# polynomials and every negative coefficient vanishes
actx = RingContext(n_x=n, m_order=0, deg_bound=D)
af = FormalGroupLaw(actx, "additive")
aw = segre_series(af, n, -3, 3)
print("additive negative coefficients all vanish:",
      all(aw.coeff(k).is_zero() for k in range(-3, 0)))
print("additive u^2 coefficient:", aw.coeff(2).text())
