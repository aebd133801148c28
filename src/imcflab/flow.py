"""Smooth inverse mean curvature flow of slices.

Surfaces are evolved with outward normal speed 1/H.  For coordinate
spheres the flow is exact, r(t) = r0 exp(t/(n-1)), independent of the
profile (the sqrt(V) factors in the speed and in H cancel).  For radial
graphs the flow reduces to the scalar quasilinear parabolic equation

    d rho / dt = W / H,      W = sqrt(V + rho'^2/rho^2),

advanced by the method of lines on the uniform theta grid with an
adaptive embedded Runge-Kutta pair (Bogacki-Shampine 3(2)).  The step
size is capped by the parabolic stability bound of the explicit scheme,

    dt <= 0.9 * cfl_safety * dtheta^2 * min_nodes(H^2 E),

with 1/(H^2 E) the local diffusion coefficient of the graph equation;
the embedded error estimate (relative tolerance ``rel_tol``) acts as a
backstop.  Steps land exactly on the requested output times, so emitted
slices carry no interpolation error.

Smoothness is assumed, not manufactured: losing mean convexity or
touching the inner boundary halts the trace with a reason instead of
regularizing, and step-size underflow raises a solver failure with
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, MeanConvexityError, SolverFailureError
from .metrics import ManifoldSpec
from .surfaces import (AxisymmetricGraph, CoordinateSphere, SurfaceGeometry,
                       graph_frame, graph_geometry, sphere_geometry)

__all__ = [
    "SolverParams",
    "FlowTrace",
    "flow_sphere",
    "flow_graph",
    "require_reach",
    "require_mean_convex",
    "output_times",
    "area_residual",
    "area_law_residual",
]

MAX_SLICES = 10_000  # cap on t_end / dt_out; every slice stays in memory


@dataclass(frozen=True)
class SolverParams:
    """Tuning knobs of the graph time stepper; each must be positive and
    finite, else ``ValueError`` names it."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-12
    dt_out: float = 0.1
    cfl_safety: float = 0.5
    max_steps: int = 5_000_000

    def __post_init__(self):
        for key in ("rel_tol", "abs_tol", "dt_out", "cfl_safety", "max_steps"):
            _require_positive(key, getattr(self, key))


def _require_positive(key: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{key} must be positive and finite, got {value!r}")


@dataclass
class FlowTrace:
    """Time-indexed slices of one flow, plus room for attached quantities.

    ``quantities`` stays None until the monotone-quantities module fills it;
    everything else is fixed once the flow returns.
    """

    times: np.ndarray
    surfaces: list
    geometries: list
    status: str                      # "completed" | "halted"
    halt_reason: Optional[str] = None
    quantities: Optional[list] = None
    stats: dict = field(default_factory=dict)

    @property
    def ambient(self) -> ManifoldSpec:
        return self.surfaces[0].ambient

    @property
    def initial_area(self) -> float:
        return self.geometries[0].area


def require_reach(spec: ManifoldSpec, r_outer: float, t_end: float) -> None:
    """Require t_end > 0 (else ValueError) and, for a slice reaching out to
    ``r_outer``, r_outer e^(t_end/(n-1)) <= r_max (else DomainError): the
    strict rule that the slices built at each output obey.  A growth
    t_end/(n-1) beyond 709 is rejected before math.exp can overflow."""
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    growth = t_end / (spec.n - 1)
    if not (growth <= 709.0 and r_outer * math.exp(growth) <= spec.r_max):
        raise DomainError(
            f"t_end = {t_end:g} flows the slice from r = {r_outer:g} beyond "
            f"r_max = {spec.r_max:g}; enlarge r_max or shorten the flow")


def output_times(t_end: float, dt_out: float) -> np.ndarray:
    """0, dt_out, 2 dt_out, ..., t_end; a last multiple within rounding of
    t_end (never t = 0) is snapped onto it.  ValueError unless dt_out is
    positive and finite and t_end / dt_out is at most ``MAX_SLICES``."""
    _require_positive("dt_out", dt_out)
    if not t_end / dt_out <= MAX_SLICES:
        raise ValueError(f"dt_out = {dt_out:g} asks for more than {MAX_SLICES} slices")
    k_max = int(math.floor(t_end / dt_out + 1e-9))
    ts = dt_out * np.arange(0, k_max + 1)
    if k_max > 0 and t_end - ts[-1] <= 1e-9 * max(1.0, t_end):
        ts[-1] = t_end
    else:
        ts = np.append(ts, t_end)
    return ts


def flow_sphere(sphere: CoordinateSphere, t_end: float,
                dt_out: float = 0.1) -> FlowTrace:
    """Flow a coordinate sphere by the exact law r(t) = r0 exp(t/(n-1)).

    Spheres stay round and mean convex forever, so the only failure mode is
    outgrowing the working domain, which is rejected up front.
    """
    spec = sphere.ambient
    n = spec.n
    require_reach(spec, sphere.radius, t_end)
    times = output_times(t_end, dt_out)
    surfaces = []
    geometries = []
    for t in times:
        s = CoordinateSphere(sphere.radius * math.exp(t / (n - 1)), spec)
        surfaces.append(s)
        geometries.append(sphere_geometry(s))
    return FlowTrace(times=times, surfaces=surfaces, geometries=geometries,
                     status="completed", stats={"steps": 0, "rejected": 0})


def require_mean_convex(graph: AxisymmetricGraph) -> SurfaceGeometry:
    """The geometry of a graph that may start a flow: MeanConvexityError
    unless it is strictly mean convex (min H > 1e-6)."""
    geom = graph_geometry(graph)
    min_h = float(np.min(geom.mean_curvature))
    if min_h <= 1e-6:
        raise MeanConvexityError(
            f"initial slice is not strictly mean convex (min H = {min_h:.3e})")
    return geom


def flow_graph(graph: AxisymmetricGraph, t_end: float,
               params: SolverParams = SolverParams()) -> FlowTrace:
    """Method-of-lines IMCF for an axisymmetric radial graph.

    The initial slice must pass :func:`require_mean_convex`.  The trace
    halts with reason "H<=0" or "horizon" if smoothness or the domain
    is lost mid-flow; both are reported, not raised.
    """
    spec = graph.ambient
    require_reach(spec, float(np.max(graph.rho)), t_end)
    grid = graph.grid
    geom0 = require_mean_convex(graph)

    times = output_times(t_end, params.dt_out)
    dth2 = grid.dtheta**2
    cfl = 0.9 * params.cfl_safety * dth2
    horizon_guard = spec.r_min * (1.0 + 1e-9)

    def rhs(y):
        return graph_frame(y, spec, grid)

    y = graph.rho.copy()
    t = 0.0
    frame = rhs(y)
    out_surfaces = [graph]
    out_geoms = [geom0]
    emitted = 1
    status, reason = "completed", None
    nsteps = nrej = 0
    h2e_min = float(np.min(frame.h**2 * frame.e))
    dt = cfl * h2e_min

    while emitted < len(times):
        min_h = float(np.min(frame.h))
        if min_h <= 0.0:
            status, reason = "halted", "H<=0"
            break
        if float(np.min(y)) <= horizon_guard:
            status, reason = "halted", "horizon"
            break
        if nsteps + nrej > params.max_steps:
            raise SolverFailureError(
                "step budget exhausted",
                diagnostics={"t": t, "steps": nsteps, "rejected": nrej,
                             "dt": dt, "min_H": min_h})

        h2e_min = float(np.min(frame.h**2 * frame.e))
        dt = min(dt, cfl * h2e_min)
        t_next = times[emitted]
        at_output = t + dt >= t_next - 1e-14
        if at_output:
            dt = t_next - t
        if dt < 1e-13 * max(1.0, t):
            raise SolverFailureError(
                "step size underflow",
                diagnostics={"t": t, "dt": dt, "steps": nsteps,
                             "rejected": nrej, "min_H": min_h})

        k1 = frame.w / frame.h
        f2 = rhs(y + 0.5 * dt * k1)
        f3 = rhs(y + 0.75 * dt * f2.w / f2.h)
        k2 = f2.w / f2.h
        k3 = f3.w / f3.h
        y_new = y + dt * (2.0 * k1 + 3.0 * k2 + 4.0 * k3) / 9.0
        if not np.all(np.isfinite(y_new)):
            nrej += 1
            dt *= 0.25
            continue
        frame_new = rhs(y_new)
        k4 = frame_new.w / frame_new.h
        err = dt * (-5.0 * k1 / 72.0 + k2 / 12.0 + k3 / 9.0 - k4 / 8.0)
        scale = params.abs_tol + params.rel_tol * np.abs(y_new)
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if not math.isfinite(enorm):
            nrej += 1
            dt *= 0.25
            continue
        if enorm <= 1.0:
            nsteps += 1
            t = t_next if at_output else t + dt
            y = y_new
            frame = frame_new
            if at_output:
                surf = AxisymmetricGraph(grid.theta, y.copy(), spec)
                geom = graph_geometry(surf)
                if not geom.mean_convex:
                    status, reason = "halted", "H<=0"
                    break
                out_surfaces.append(surf)
                out_geoms.append(geom)
                emitted += 1
            dt = dt * min(5.0, 0.9 / max(enorm, 1e-10) ** (1.0 / 3.0))
        else:
            nrej += 1
            dt = dt * max(0.2, 0.9 / enorm ** (1.0 / 3.0))

    return FlowTrace(times=times[:emitted].copy(), surfaces=out_surfaces,
                     geometries=out_geoms, status=status, halt_reason=reason,
                     stats={"steps": nsteps, "rejected": nrej})


def area_residual(t: float, area: float, area0: float) -> float:
    """| area e^{-t} / area0 - 1 | at flow time t: smooth IMCF grows area
    exactly exponentially whatever the shape, so this gauges accuracy."""
    return abs(area * float(np.exp(-t)) / area0 - 1.0)


def area_law_residual(trace: FlowTrace) -> float:
    """Max of :func:`area_residual` over the emitted slices of a trace."""
    if len(trace.geometries) == 0:
        raise ValueError("empty trace")
    return max(area_residual(t, g.area, trace.initial_area)
               for t, g in zip(trace.times, trace.geometries))
