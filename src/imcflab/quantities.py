"""Per-slice functionals and monotonicity verdicts.

The central object is the scale-normalized weighted total mean curvature

    Q = area^{-(n-2)/(n-1)} * ( 2 (n-1) omega_{n-1} m + integral_Sigma f H )

which is non-increasing along smooth inverse mean curvature flow when f
is a static potential (constant exactly on totally umbilic foliations)
and tends to (n-1) omega_{n-1}^{1/(n-1)} as the flow escapes to infinity.
The Minkowski deficit is the same information arranged as
LHS - RHS >= 0 of the area/mass lower bound on the weighted curvature
integral, and the Hawking mass is reported for n = 3 slices.

Numerical note: on coordinate spheres every one of these functionals is a
closed form in the slice radius, and the equality cases are exact
cancellations between terms that grow like r^{n-2}.  Evaluated as written
above they lose about r^{n-2} * 1e-16 (about 1e-7 at n = 7, r = 50),
which would swamp the identities the package exists to verify.  Sphere
slices therefore use the equivalent cancellation-free float64 forms

    deficit = r^{n-2} (f sqrt(V) - 1) + 2m
    int f H = (n-1) omega_{n-1} r^{n-2} (1 + (f sqrt(V) - 1))
    Q       = limit_target(n) (1 + deficit / r^{n-2})
    Hawking = sqrt(area / 16 pi) (1 - V)                      (n = 3)

where 1 - V is the profile's exact mass aspect and the weight excess
f sqrt(V) - 1 is formed from it without cancellation
(:meth:`RadialProfile.mass_aspect`, :meth:`StaticPotential.excess`).
Graph slices use ordinary float64 vector math.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, UnsupportedDimensionError
from .flow import FlowTrace
from .metrics import StaticPotential, unit_sphere_area
from .surfaces import SurfaceGeometry, surface_integral, umbilicity_deficit

__all__ = [
    "SliceQuantities",
    "MonotonicityVerdict",
    "limit_target",
    "weighted_total_mean_curvature",
    "monotone_quantity",
    "minkowski_deficit",
    "hawking_mass",
    "slice_quantities",
    "attach_quantities",
    "monotonicity_verdict",
]


def limit_target(n: int) -> float:
    """The flow limit (n-1) * omega_{n-1}^(1/(n-1)) of the Q functional."""
    return (n - 1) * unit_sphere_area(n - 1) ** (1.0 / (n - 1))


def _curvature_terms(geom: SurfaceGeometry, f: StaticPotential,
                     m: float) -> tuple[float, float, float]:
    """(integral of f H, Q, Minkowski deficit) of one slice, with the
    integral evaluated once."""
    n = geom.ambient.n
    om = unit_sphere_area(n - 1)
    if geom.kind == "sphere":
        r = float(geom.radii[0])
        excess = float(f.excess(r, geom.ambient.profile))
        if not math.isfinite(excess):
            raise DomainError("weight not finite on the slice")
        rk = r ** (n - 2)
        deficit = rk * excess + 2.0 * m
        return ((n - 1) * om * rk * (1.0 + excess),
                limit_target(n) * (1.0 + deficit / rk), deficit)
    fv = np.asarray(f.value(geom.radii), dtype=float)
    if not np.isfinite(fv).all():
        raise DomainError("weight not finite at some node of the slice")
    wth = surface_integral(geom, fv * geom.mean_curvature)
    q = geom.area ** (-(n - 2) / (n - 1)) * (2 * (n - 1) * om * m + wth)
    deficit = wth / ((n - 1) * om) - (geom.area / om) ** ((n - 2) / (n - 1)) + 2 * m
    return wth, q, deficit


def weighted_total_mean_curvature(geom: SurfaceGeometry,
                                  f: StaticPotential) -> float:
    """The surface integral of f H over the slice."""
    return _curvature_terms(geom, f, 0.0)[0]


def monotone_quantity(geom: SurfaceGeometry, f: StaticPotential,
                      m: float) -> float:
    """Evaluate Q on one slice; depends on the slice only, never on flow time."""
    return _curvature_terms(geom, f, m)[1]


def minkowski_deficit(geom: SurfaceGeometry, f: StaticPotential,
                      m: float) -> float:
    """Weighted-curvature lower bound surplus,

        integral(f H) / ((n-1) omega) - (area/omega)^((n-2)/(n-1)) + 2m,

    predicted nonnegative for outer-minimizing slices when f is static,
    zero exactly on the umbilic (coordinate-sphere) equality case.
    """
    return _curvature_terms(geom, f, m)[2]


def hawking_mass(geom: SurfaceGeometry) -> float:
    """sqrt(area/16 pi) (1 - integral(H^2)/16 pi); three dimensions only."""
    if geom.ambient.n != 3:
        raise UnsupportedDimensionError(
            f"Hawking mass is defined for n = 3, got n = {geom.ambient.n}")
    if geom.kind == "sphere":
        # integral(H^2)/16 pi is V on a coordinate sphere
        u = geom.ambient.profile.mass_aspect(float(geom.radii[0]))
        return math.sqrt(geom.area / (16 * math.pi)) * float(u)
    wth2 = surface_integral(geom, geom.mean_curvature**2)
    return math.sqrt(geom.area / (16 * math.pi)) * (1.0 - wth2 / (16 * math.pi))


class SliceQuantities(NamedTuple):
    """All per-slice functionals, as one record."""

    area: float
    weighted_total_h: float
    q: float
    minkowski_deficit: float
    hawking_mass: Optional[float]
    umbilicity_deficit: float


def slice_quantities(geom: SurfaceGeometry, f: StaticPotential,
                     m: float) -> SliceQuantities:
    """Evaluate every slice functional once."""
    wth, q, deficit = _curvature_terms(geom, f, m)
    return SliceQuantities(
        area=geom.area,
        weighted_total_h=wth,
        q=q,
        minkowski_deficit=deficit,
        hawking_mass=hawking_mass(geom) if geom.ambient.n == 3 else None,
        umbilicity_deficit=umbilicity_deficit(geom))


def attach_quantities(trace: FlowTrace, f: StaticPotential,
                      m: float) -> FlowTrace:
    """Fill ``trace.quantities`` with one record per emitted slice."""
    trace.quantities = [slice_quantities(g, f, m) for g in trace.geometries]
    return trace


class MonotonicityVerdict(NamedTuple):
    """Monotonicity and limit assessment of Q along one trace."""

    monotone: bool
    worst_increase: float
    limit_gap: float
    q_extrapolated: float


def _extrapolate_q(times: np.ndarray, qs: np.ndarray, n: int) -> float:
    """Linear Richardson extrapolation of Q in h = exp(-t/(n-1)) -> 0.

    Convergence of Q to its limit is only polynomial in the slice radius,
    so extrapolation from the last two outputs replaces an impractically
    long integration.
    """
    h = np.exp(-times / (n - 1))
    if len(qs) < 2 or abs(h[-2] - h[-1]) < 1e-14:
        return float(qs[-1])
    return float((qs[-1] * h[-2] - qs[-2] * h[-1]) / (h[-2] - h[-1]))


def monotonicity_verdict(trace: FlowTrace, f: StaticPotential, m: float,
                         eps_mono: float = 1e-6) -> MonotonicityVerdict:
    """Assess Q along the emitted slices of a trace.

    ``worst_increase`` is the largest jump between consecutive outputs
    (negative when Q strictly decreases everywhere); the trace is monotone
    when it does not exceed ``eps_mono``.  ``limit_gap`` is Q at the final
    slice minus the exact flow limit.  Q comes from ``f`` and ``m`` alone:
    attached quantities that do not reproduce it on slice 0 raise ValueError.
    """
    if trace.quantities is None:
        attach_quantities(trace, f, m)
    elif not np.array_equal(slice_quantities(trace.geometries[0], f, m).q,
                            trace.quantities[0].q, equal_nan=True):
        raise ValueError("attached quantities were computed for another weight or mass")
    if len(trace.quantities) < 2:
        raise ValueError("insufficient data: need at least 2 slices with quantities")
    n = trace.ambient.n
    qs = np.array([sq.q for sq in trace.quantities])
    worst = float(np.max(np.diff(qs)))
    return MonotonicityVerdict(
        monotone=bool(worst <= eps_mono),
        worst_increase=worst,
        limit_gap=float(qs[-1] - limit_target(n)),
        q_extrapolated=_extrapolate_q(trace.times, qs, n))
