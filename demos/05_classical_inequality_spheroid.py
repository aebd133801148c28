"""The classical strict inequality on a flat-space spheroid.

In Euclidean space (mass zero, weight one) the total mean curvature of a
convex surface dominates the area term with equality only for round
spheres.  The 2:1 prolate spheroid gives a strictly positive deficit,
a negative Hawking mass (its bending energy exceeds the round minimum),
and flowing it shrinks the deficit back toward the sphere value.
"""

import numpy as np

import imcflab as L

flat = L.ManifoldSpec.schwarzschild(3, 0.0)  # flat space is m = 0
one = L.sqrt_potential(flat)                   # f = sqrt(V) = 1


def spheroid(theta):
    # polar form of x^2 + y^2 + (z/2)^2 = 1
    return 2.0 / np.sqrt(1.0 + 3.0 * np.sin(theta) ** 2)


surface = L.AxisymmetricGraph.from_function(spheroid, flat, 400)
geom = L.graph_geometry(surface)
sq = L.slice_quantities(geom, one, 0.0)

print("prolate spheroid, semi-axes (1, 1, 2):")
print(f"  area                 {geom.area:.10f}")
print(f"  total mean curvature {sq.weighted_total_h:.10f}")
print(f"  minkowski deficit    {sq.minkowski_deficit:.10f}  (> 0, strict)")
print(f"  hawking mass         {geom.hawking_mass:.10f}  (< 0 for non-spheres)")
print(f"  umbilicity deficit   {geom.umbilicity_deficit:.6f}  (16/27 at sin^2 u = 2/3)")

print("\nround spheres for comparison (deficit identically zero):")
for r in (0.5, 1.0, 5.0):
    s = L.sphere_geometry(L.CoordinateSphere(r, flat))
    d = L.slice_quantities(s, one, 0.0).minkowski_deficit
    print(f"  r = {r:4.1f}: deficit = {d:.3e}, hawking = {s.hawking_mass:.3e}")

print("\nflowing the spheroid rounds it off and shrinks the deficit:")
trace = L.flow_graph(surface, 1.0, dt_out=0.25)
for t, g, sq in zip(trace.times, trace.geometries,
                    L.attach_quantities(trace, one, 0.0)):
    print(f"  t = {t:4.2f}: deficit = {sq.minkowski_deficit:.6f}, "
          f"umbilicity = {g.umbilicity_deficit:.3e}")
