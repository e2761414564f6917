"""From recursion coefficients to series data.

Starts with geometrically decaying Verblunsky coefficients alpha_n = C R^-n,
builds the inverse Szego function 1/D, the first-order approximation S, and
the boundary phase series r, then reads the decay rate back off each
coefficient sequence.  The decay rates land where the theory puts them:
alpha and 1/D share the rate 1/R, and r - S decays three times faster.
"""

import numpy as np

from szegojost.analysis import decay_rate, radius_estimate
from szegojost.jost import geronimus_deltas
from szegojost.opuc import VerblunskyCoeffs
from szegojost.szego import dinv_from_alphas, r_series, s_series

C, R, ORDER = 0.5, 2.0, 96

alphas = VerblunskyCoeffs(alpha=C * R ** -np.arange(ORDER + 1, dtype=float))
print(f"alpha_n = {C} * {R}^-n, first entries {np.round(alphas.alpha[:4].real, 4)}")

# the inverse Szego function as a Taylor series
dinv = dinv_from_alphas(alphas, order=ORDER)
print(f"1/D coefficients start {np.round(dinv.coeffs[:4].real, 6)}")

est_alpha = decay_rate(alphas.alpha)
est_dinv = radius_estimate(dinv)
print(f"decay radius of alpha: {est_alpha.radius:.4f}")
print(f"decay radius of 1/D:   {est_dinv.radius:.4f}   (both should be near {R})")

# S keeps only the first-order alpha contribution; r is the full phase.
# Their difference decays at rate R^-3 and soon cancels down to rounding
# noise.  The product method keeps r accurate deep into its tail, and the
# fit window ends where the r-minus-s suite ends it: at the last index of
# the run that clears 64 times a 20-eps rounding floor.
s = s_series(alphas, order=ORDER)
r = r_series(dinv, order=ORDER, method="product")
r_pos = np.concatenate(([r.coeff(0)], r.positive_tail()))
diff = r_pos - s.coeffs
floor = 64 * 20 * np.finfo(float).eps * (np.abs(r_pos) + np.abs(s.coeffs))
hi = 4
while hi + 1 < len(diff) and abs(diff[hi + 1]) > floor[hi + 1]:
    hi += 1
est_diff = decay_rate(np.abs(diff), window=(4, hi))
print(f"decay radius of the positive tail of r - S: {est_diff.radius:.3f}"
      f"   (should be near R^3 = {R**3:.0f})")

# mapping the circle coefficients to Jacobi deltas squares the rate
b, asq1 = geronimus_deltas(alphas)
est_map = decay_rate(np.abs(b) + np.abs(asq1))
print(f"mapped Jacobi deltas decay radius: {est_map.radius:.4f}"
      f"   (should be near R^2 = {R**2:.0f})")
