"""Degeneracy-locus classes: rectangles, resolutions, extractions.

The rank-r locus class of a bundle map is a rectangle-shaped Damon-type
function with inverted parameters; resolution classes over Grassmann
bundles come with two computation paths that must agree; and the
coefficient-extraction formula reproduces the direct symmetrizer.
"""

from cobschur import (RingContext, Series, FormalGroupLaw,
                      thom_porteous_class, kempf_laksov_class,
                      darondeau_pragacz_pushforward, required_weight_cap,
                      SymmetrizerSpec, symmetrize, symmetrizer_deg_bound,
                      series_match, oracles)

print(__doc__)

# rank <= 1 locus of a map between rank-2 bundles
e = f = 2
r = 1
ctx = RingContext(n_x=f, n_b=e, m_order=2, deg_bound=symmetrizer_deg_bound(1, f))
fgl = FormalGroupLaw(ctx, "universal")
rep = thom_porteous_class(fgl, e, f, r)
print("rank<=%d locus class for e=f=2 (leading terms):" % r)
print(" ", rep.value.truncate(1).text())
print("  certified against the Damon-type rectangle:", rep.ok)
print()

# additive collapse against the relative Chern-class determinant
actx = RingContext(n_x=f, n_b=e, m_order=0, deg_bound=symmetrizer_deg_bound(1, f))
afgl = FormalGroupLaw(actx, "additive")
arep = thom_porteous_class(afgl, e, f, r)
classes = oracles.chern_difference_classes(actx, f, e, 2)
det = oracles.jacobi_trudi_determinant(classes, [f - r])
print("additive class equals det(c_{f-r-i+j}):",
      series_match(arep.value, det.truncate(arep.value.bound))[0])
print()

# resolution classes over a Grassmann bundle: both paths and the
# Damon variant
d, n = 2, 3
kctx = RingContext(n_x=d, n_b=n, m_order=2, deg_bound=symmetrizer_deg_bound(3, d))
kfgl = FormalGroupLaw(kctx, "universal")
kappa, damon = kempf_laksov_class(kfgl, [2, 1], d, n)
print("resolution class paths agree (lam=(2,1), d=2, n=3):", kappa.ok)
print("Damon variant equals the Damon-type function:", damon.ok)
print()

# coefficient extraction vs direct symmetrizer, r = 2 rows on n = 3
n, rr, D = 3, 2, 3
cap = required_weight_cap(n, D, 1 - n - D - 2)
wctx = RingContext(n_x=n, m_order=2, deg_bound=D, m_weight_cap=cap)
wf = FormalGroupLaw(wctx, "universal")
exps = (3, 1)
got = darondeau_pragacz_pushforward(wf, {exps: Series.const(wctx, 1)}, rr, n)
sctx = RingContext(n_x=n, m_order=2, deg_bound=symmetrizer_deg_bound(D, n))
sf = FormalGroupLaw(sctx, "universal")
num = Series.monomial(sctx, {"x1": exps[0], "x2": exps[1]})
spec = SymmetrizerSpec.quotient((1,) * rr + (n - rr,))
direct = symmetrize(sf, num, spec)
print("coefficient extraction of x1^3 x2 equals the direct symmetrizer:",
      series_match(got, direct, deg=min(D, direct.bound))[0])
