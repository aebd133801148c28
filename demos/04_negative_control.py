"""Why staticity matters: break the weight, lose the monotonicity.

Replacing the static potential sqrt(V) by the profile V itself keeps all
the asymptotics (V -> 1 at infinity) but violates the static equation.
Along the very same flow, Q with the broken weight increases, which is
exactly the failure mode the diagnostics and exit codes are built to
catch.
"""

import numpy as np

import imcflab as L

spec = L.ManifoldSpec.schwarzschild(3, 1.0)
good = L.sqrt_potential(spec)
bad = L.profile_weight(spec)
m = L.adm_mass_flux(spec, good, spec.r_max)

grid = np.geomspace(2.2, 1000.0, 50)
rr, tt = L.static_residual(spec, bad, grid)
print(f"static residual of the broken weight (sup): "
      f"{max(np.max(np.abs(rr)), np.max(np.abs(tt))):.3e}")

trace = L.flow_sphere(L.CoordinateSphere(4.0, spec), 3.0)
for name, weight in (("sqrt(V)", good), ("V (broken)", bad)):
    quantities = L.attach_quantities(trace, weight, m)
    qs = [sq.q for sq in quantities]
    verdict = L.monotonicity_verdict(trace, quantities, eps_mono=1e-6)
    print(f"\nweight = {name}")
    print(f"  Q(0) = {qs[0]:.6f}   Q(end) = {qs[-1]:.6f}")
    print(f"  worst increase = {verdict.worst_increase:.3e}   "
          f"monotone = {verdict.monotone}")
