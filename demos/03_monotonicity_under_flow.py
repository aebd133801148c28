"""Strict monotonicity on a genuinely non-umbilic flow.

A quadrupole-perturbed sphere in the positive-mass ambient is not
umbilic, so the theory predicts the functional Q strictly decreases
along inverse mean curvature flow and relaxes to its universal limit as
the surface rounds off and escapes outward.  The run prints the per-slice
table and writes it as CSV next to this script.
"""

from pathlib import Path

import numpy as np

import imcflab as L

spec = L.ManifoldSpec.schwarzschild(3, 1.0)
f = L.sqrt_potential(spec)
m = L.adm_mass_flux(spec, f, spec.r_max)

theta = np.linspace(0.0, np.pi, 201)
rho0 = 4.0 + 0.3 * (1.5 * np.cos(theta) ** 2 - 0.5)
surface = L.AxisymmetricGraph(theta, rho0, spec)

print("flowing rho0 = 4 + 0.3 P2(cos theta), N=200, t_end=2 ...")
trace = L.flow_graph(surface, 2.0, dt_out=0.2)
quantities = L.attach_quantities(trace, f, m)

print(f"\n{'t':>5} {'area':>12} {'Q':>12} {'umbilicity':>11} {'area residual':>13}")
area0 = trace.geometries[0].area
for t, g, sq in zip(trace.times, trace.geometries, quantities):
    res = abs(g.area * np.exp(-t) / area0 - 1.0)
    print(f"{t:>5.2f} {g.area:>12.4f} {sq.q:>12.9f} "
          f"{g.umbilicity_deficit:>11.3e} {res:>13.3e}")

# eps_mono is the scenario parser's 1e-6 (200/N)^2 at N = 200
verdict = L.monotonicity_verdict(trace, quantities, eps_mono=1e-6)
print(f"\nworst increase of Q:    {verdict.worst_increase:.3e}  "
      f"(monotone: {verdict.monotone})")
print(f"exact target:           {L.limit_target(3):.9f}")
print(f"gap to the limit:       {verdict.limit_gap:.3e}  (Q at t = 2 minus target)")
print(f"steps taken:            {trace.stats['steps']}")

out = Path(__file__).with_name("out")
out.mkdir(exist_ok=True)
rows = ["t,area,Q,umb_deficit"]
for t, g, sq in zip(trace.times, trace.geometries, quantities):
    rows.append(f"{t!r},{g.area!r},{sq.q!r},{g.umbilicity_deficit!r}")
(out / "monotonicity_demo.csv").write_text("\n".join(rows) + "\n")
print(f"\nwrote {out / 'monotonicity_demo.csv'}")
