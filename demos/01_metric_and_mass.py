"""Tour of the metric core: curvature, staticity, and two routes to the mass.

A rotationally symmetric ambient space is fixed by one radial profile
V(r).  For the Schwarzschild family the square root of the profile is a
static potential, the scalar curvature vanishes identically, and both
the flux integral and the far-field tail fit must recover the same mass
parameter.  A generic profile (here a charged-black-hole-like one) shows
what the diagnostics report when staticity genuinely fails.
"""

import numpy as np

import imcflab as L

spec = L.ManifoldSpec.schwarzschild(3, 1.0)
f = L.sqrt_potential(spec)

print("== Schwarzschild family, n=3, m=1 ==")
print(f"horizon radius:        {L.horizon_radius(spec):.12f}")
grid = np.geomspace(2.2, 1000.0, 7)
print(f"scalar curvature on a log grid: {np.max(np.abs(L.scalar_curvature(spec, grid))):.3e}")
rr, tt = L.static_residual(spec, f, grid)
print(f"static residual (sup):          {max(np.max(np.abs(rr)), np.max(np.abs(tt))):.3e}")
print(f"harmonicity residual (sup):     {np.max(np.abs(L.harmonicity_residual(spec, f, grid))):.3e}")

print("\nmass from the flux integral, at several radii (should not move):")
for r in (2.5, 10.0, 100.0, 1000.0):
    print(f"  r = {r:7.1f}:  m = {L.adm_mass_flux(spec, f, r):.15f}")
m_fit = L.adm_mass_fit(spec, f, (100.0, 1000.0))
print(f"mass from the tail fit on [100, 1000]: {m_fit:.6f} "
      f"(bias is the next order of the expansion)")

print("\n== negative mass works too ==")
neg = L.ManifoldSpec.schwarzschild(3, -0.5)
print(f"horizon: {L.horizon_radius(neg)}  (none expected)")
print(f"flux mass: {L.adm_mass_flux(neg, L.sqrt_potential(neg), 500.0):.12f}")

print("\n== a non-static profile for contrast ==")
profile = L.RadialProfile(
    lambda r: 1.0 - 2.0 / r + 0.25 / r**2,
    lambda r: 2.0 / r**2 - 0.5 / r**3,
    lambda r: -4.0 / r**3 + 1.5 / r**4)
rn = L.ManifoldSpec.custom(profile, 3, r_min=2.0)
print(f"scalar curvature at r=2 (2 q^2 / r^4 = 1/32): {L.scalar_curvature(rn, 2.0 + 1e-12):.6f}")
rr, tt = L.static_residual(rn, L.sqrt_potential(rn), 4.0)
print(f"static residual of sqrt(V) at r=4: ({rr:.3e}, {tt:.3e})  -- not static")
