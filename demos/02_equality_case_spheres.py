"""The equality case: coordinate spheres are exactly extremal.

Along the totally umbilic foliation by coordinate spheres, the
scale-normalized functional Q sits exactly at its flow limit
(n-1) omega^(1/(n-1)) for every radius, every mass (sign included) and
every dimension, and the Minkowski-type deficit vanishes identically.
Sphere slices are evaluated through closed forms written so that the
r^(n-2) terms never cancel, so the identities survive radii where the
naive float64 formulas would lose them.
"""

import numpy as np

import imcflab as L

print("Q - limit and deficit on coordinate spheres (should all be ~0):\n")
print(f"{'n':>2} {'m':>6} {'r':>7}   {'Q - limit':>12}   {'deficit':>12}")
for n in (3, 5, 7):
    for m in (-0.5, 1.0, 2.0):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        f = L.sqrt_potential(spec)
        target = L.limit_target(n)
        lo = 1.1 * spec.r_min if m > 0 else 0.5
        for r in np.geomspace(lo, 50.0, 3):
            sq = L.slice_quantities(
                L.sphere_geometry(L.CoordinateSphere(float(r), spec)), f, m)
            print(f"{n:>2} {m:>6.1f} {r:>7.2f}   {sq.q - target:>12.3e}   "
                  f"{sq.minkowski_deficit:>12.3e}")

print("\nA whole sphere flow keeps Q pinned at the limit:")
spec = L.ManifoldSpec.schwarzschild(3, 1.0)
f = L.sqrt_potential(spec)
trace = L.flow_sphere(L.CoordinateSphere(4.0, spec), 3.0)
quantities = L.attach_quantities(trace, f, 1.0)
verdict = L.monotonicity_verdict(trace, quantities, eps_mono=1e-6)
print(f"  worst increase of Q:  {verdict.worst_increase:.3e}")
print(f"  gap to the limit:     {verdict.limit_gap:.3e}")
print(f"  area law residual:    {L.area_law_residual(trace):.3e}")
print(f"  Hawking mass at t=0:  {trace.geometries[0].hawking_mass:.12f}")
