"""Per-slice functionals and monotonicity verdicts.

The central object is the scale-normalized weighted total mean curvature

    Q = area^{-(n-2)/(n-1)} * ( 2 (n-1) omega_{n-1} m + integral_Sigma f H )

which is non-increasing along smooth inverse mean curvature flow when f
is a static potential (constant exactly on totally umbilic foliations)
and tends to Q_inf = (n-1) omega_{n-1}^{1/(n-1)} as the flow escapes to
infinity.  The Minkowski deficit is Q rearranged,

    deficit = integral(f H) / ((n-1) omega) - (area/omega)^((n-2)/(n-1)) + 2m
            = (area/omega)^((n-2)/(n-1)) * (Q / Q_inf - 1),

so it is nonnegative exactly when Q >= Q_inf, the Minkowski-like
inequality; the verdicts read its scale-free form Q / Q_inf - 1.  The
area, the Hawking mass and the umbilicity deficit need neither f nor m:
their one owner is the slice's geometry record.

Numerical note: on coordinate spheres every one of these functionals is a
closed form in the slice radius, and the equality cases are exact
cancellations between terms that grow like r^{n-2}.  Evaluated as written
above they lose about r^{n-2} * 1e-16 (about 1e-7 at n = 7, r = 50),
which would swamp the identities the package exists to verify.  Sphere
slices therefore use the equivalent cancellation-free float64 forms

    deficit = r^{n-2} (f sqrt(V) - 1) + 2m
    int f H = (n-1) omega_{n-1} r^{n-2} (1 + (f sqrt(V) - 1))
    Q       = limit_target(n) (1 + deficit / r^{n-2})

where the weight excess f sqrt(V) - 1 is formed from the profile's exact
mass aspect 1 - V without cancellation (:meth:`StaticPotential.excess`).
Graph slices form Q in ordinary float64 vector math and the deficit from Q.

A trace holds geometry only: :func:`attach_quantities` returns the records
of one weight and mass, and :func:`monotonicity_verdict` reads that list.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .flow import FlowTrace
from .metrics import StaticPotential, unit_sphere_area
from .surfaces import SurfaceGeometry, surface_integral

__all__ = [
    "SliceQuantities",
    "MonotonicityVerdict",
    "limit_target",
    "slice_quantities",
    "attach_quantities",
    "monotonicity_verdict",
]


def limit_target(n: int) -> float:
    """The flow limit (n-1) * omega_{n-1}^(1/(n-1)) of the Q functional."""
    return (n - 1) * unit_sphere_area(n - 1) ** (1.0 / (n - 1))


class SliceQuantities(NamedTuple):
    """What one weight and mass decide on a slice; the rest is its geometry's."""

    weighted_total_h: float
    q: float
    minkowski_deficit: float


def slice_quantities(geom: SurfaceGeometry, f: StaticPotential,
                     m: float) -> SliceQuantities:
    """Evaluate the functionals of weight f and mass m once.  The Minkowski deficit

        (area/omega)^((n-2)/(n-1)) * (Q / limit_target(n) - 1)

    is predicted nonnegative for outer-minimizing slices when f is static,
    zero exactly on the umbilic (coordinate-sphere) equality case.
    """
    n = geom.ambient.n
    om = unit_sphere_area(n - 1)
    if geom.kind == "sphere":
        r = float(geom.radii[0])
        excess = float(f.excess(r, geom.ambient.profile))
        if not math.isfinite(excess):
            raise DomainError("weight not finite on the slice")
        rk = r ** (n - 2)
        deficit = rk * excess + 2.0 * m
        wth = (n - 1) * om * rk * (1.0 + excess)
        q = limit_target(n) * (1.0 + deficit / rk)
    else:
        fv = np.asarray(f.value(geom.radii), dtype=float)
        if not np.isfinite(fv).all():
            raise DomainError("weight not finite at some node of the slice")
        wth = surface_integral(geom, fv * geom.mean_curvature)
        q = geom.area ** (-(n - 2) / (n - 1)) * (2 * (n - 1) * om * m + wth)
        deficit = (geom.area / om) ** ((n - 2) / (n - 1)) * (q / limit_target(n) - 1.0)
    return SliceQuantities(wth, q, deficit)


def attach_quantities(trace: FlowTrace, f: StaticPotential,
                      m: float) -> list[SliceQuantities]:
    """One :func:`slice_quantities` record per emitted slice of ``trace``,
    for weight ``f`` and mass ``m``; the trace itself is left as it was."""
    return [slice_quantities(g, f, m) for g in trace.geometries]


class MonotonicityVerdict(NamedTuple):
    """Monotonicity and limit assessment of Q along one trace."""

    monotone: bool
    worst_increase: float
    limit_gap: float


def monotonicity_verdict(trace: FlowTrace, quantities: list[SliceQuantities],
                         eps_mono: float) -> MonotonicityVerdict:
    """Assess Q along the emitted slices of a trace, from ``quantities``,
    the :func:`attach_quantities` list of one weight and mass on it.

    ``worst_increase`` is the largest jump between consecutive outputs
    (negative when Q strictly decreases everywhere); the trace is monotone
    when it does not exceed ``eps_mono``.  ``limit_gap`` is Q at the final
    slice minus the exact flow limit.  ValueError unless ``quantities``
    holds one record per slice, and at least two.
    """
    if len(quantities) != len(trace.times):
        raise ValueError(f"{len(quantities)} quantity records for "
                         f"{len(trace.times)} slices: need one per slice")
    if len(quantities) < 2:
        raise ValueError("insufficient data: need at least 2 slices with quantities")
    qs = np.array([sq.q for sq in quantities])
    worst = float(np.max(np.diff(qs)))
    return MonotonicityVerdict(
        monotone=bool(worst <= eps_mono),
        worst_increase=worst,
        limit_gap=float(qs[-1] - limit_target(trace.ambient.n)))
