"""Flow slices and their extrinsic geometry.

Two kinds of hypersurface are supported inside the warped ambient metric
V^-1 dr^2 + r^2 dOmega^2:

* coordinate spheres r = const, where the geometry is closed form and
  totally umbilic, and
* radial graphs r = rho(theta) over [0, pi], symmetric about the polar
  axis, the workhorse for genuinely non-umbilic flows, both in 3 <= n <= 7.

Graphs are discretized on a uniform theta grid with second-order central
differences for the curvatures, even-reflection ghost nodes at the poles
(rho'(0) = rho'(pi) = 0), and composite Simpson quadrature for surface
integrals; the rho' inside the area element alone uses a fourth-order
stencil so quadrature accuracy is not capped by the derivative.  Terms
with cot(theta) are replaced by their pole limits (rho' cot(theta) ->
rho'' at theta in {0, pi}).

The principal-curvature formulas for graphs,

    W   = sqrt(V + rho'^2/rho^2)          (gradient norm of r - rho)
    E   = rho'^2/V + rho^2                (meridian metric coefficient)
    k_m = (-rho'' + rho'^2 V'/(2V) + rho V + 2 rho'^2/rho) / (W E)
    k_p = (V/rho - rho' cot(theta)/rho^2) / W

were checked symbolically against a raw Christoffel computation of the
second fundamental form; the mixed component vanishes, so these are the
principal curvatures: k_m along the meridian and k_p, n - 2 times, along
the orbit sphere of radius rho sin(theta), so H = k_m + (n-2) k_p and
|A|^2 = k_m^2 + (n-2) k_p^2.  A :class:`SurfaceGeometry` also carries the
two per-slice numbers that need no weight or mass, and the per-node area
weights w that integrate any g over the slice as w . g.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import InsideHorizonError
from .metrics import ManifoldSpec, unit_sphere_area

__all__ = [
    "CoordinateSphere",
    "AxisymmetricGraph",
    "SurfaceGeometry",
    "GraphGrid",
    "sphere_geometry",
    "graph_geometry",
    "surface_integral",
    "save_graph",
    "load_graph",
    "read_columns",
]


class _SphereFields(NamedTuple):
    radius: float
    ambient: ManifoldSpec


class CoordinateSphere(_SphereFields):
    """The level set r = radius of the radial coordinate."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.ambient.require_in_domain(self.radius, "sphere radius")
        self.ambient.require_resolved(self.radius, "sphere radius")
        return self


class GraphGrid(NamedTuple):
    """Precomputed uniform theta grid machinery shared by geometry and flow;
    :meth:`make` owns the grid rules (uniform over [0, pi], N even in [8, MAX_INTERVALS])
    and caches its last few grids, so callers of one N share read-only arrays."""

    MAX_INTERVALS = 10_000  # caps what a config allocates; refinement needs 3200

    theta: np.ndarray
    dtheta: float
    sin_t: np.ndarray
    cot_t: np.ndarray       # pole entries set to 0; pole limits handled separately
    simpson_w: np.ndarray   # composite Simpson weights including dtheta/3

    @classmethod
    @functools.lru_cache(maxsize=8, typed=True)
    def make(cls, n_intervals: int) -> "GraphGrid":
        if not 8 <= n_intervals <= cls.MAX_INTERVALS or n_intervals % 2:
            raise ValueError(f"grid needs an even number of intervals from 8 "
                             f"to {cls.MAX_INTERVALS}, got {n_intervals}")
        theta = np.linspace(0.0, np.pi, n_intervals + 1)
        dtheta = np.pi / n_intervals
        sin_t = np.sin(theta)
        cot_t = np.zeros_like(theta)
        cot_t[1:-1] = np.cos(theta[1:-1]) / sin_t[1:-1]
        w = np.ones(n_intervals + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        grid = cls(theta, dtheta, sin_t, cot_t, w * (dtheta / 3.0))
        for a in (grid.theta, grid.sin_t, grid.cot_t, grid.simpson_w):
            a.flags.writeable = False
        return grid


class GraphFrame(NamedTuple):
    """Raw per-node arrays of a graph slice (shared flow/geometry kernel)."""

    v: np.ndarray
    w: np.ndarray        # sqrt(V + rho'^2/rho^2)
    e: np.ndarray        # meridian metric coefficient
    k_meridian: np.ndarray
    k_parallel: np.ndarray
    h: np.ndarray


def graph_frame(rho: np.ndarray, spec: ManifoldSpec, grid: GraphGrid) -> GraphFrame:
    """Evaluate derivatives, metric factors and curvatures of rho(theta).

    rho is padded once with its even-reflection ghost nodes,
    rho(-dtheta) = rho(dtheta) and rho(pi + dtheta) = rho(pi - dtheta), and
    both central stencils read the padded array: the first difference is
    exactly 0 at the poles, and the second difference has rows summing to
    zero, so a constant rho gives c - 2c + c = 0 exactly and a round graph
    stays exactly round.
    """
    dth = grid.dtheta
    pad = np.empty(rho.size + 2)
    pad[1:-1] = rho
    pad[0], pad[-1] = rho[1], rho[-2]
    up, down = pad[2:], pad[:-2]
    rho_t = (up - down) / (2.0 * dth)
    rho_tt = (up - 2.0 * rho + down) / dth**2

    v = spec.profile.value(rho)
    dv = spec.profile.deriv(rho)
    rp2 = rho_t * rho_t
    rho2 = rho * rho
    w = np.sqrt(v + rp2 / rho2)
    e = rp2 / v + rho2
    k_mer = (rp2 * (dv / (2.0 * v) + 2.0 / rho) + rho * v - rho_tt) / (w * e)
    cterm = rho_t * grid.cot_t
    cterm[0] = rho_tt[0]
    cterm[-1] = rho_tt[-1]
    k_par = (v / rho - cterm / rho2) / w
    return GraphFrame(v, w, e, k_mer, k_par, k_mer + (spec.n - 2) * k_par)


def _first_derivative_o4(rho: np.ndarray, dth: float) -> np.ndarray:
    """Fourth-order first derivative with even reflection at the poles.

    The quadrature integrand carries rho' directly, so a second-order
    stencil there would cap surface integrals at O(dtheta^2) no matter how
    good the quadrature rule is; the curvature stencils stay second order.
    """
    n = rho.size
    ext = np.empty(n + 4)
    ext[2:-2] = rho
    ext[0], ext[1] = rho[2], rho[1]
    ext[-1], ext[-2] = rho[-3], rho[-2]
    d = (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * dth)
    d[0] = d[-1] = 0.0
    return d


class _GraphFields(NamedTuple):
    theta: np.ndarray
    rho: np.ndarray
    ambient: ManifoldSpec


class AxisymmetricGraph(_GraphFields):
    """A radial graph rho(theta) on the uniform grid over [0, pi], in any n.

    Pole regularity (vanishing one-sided derivative at both poles) is
    required at construction, within a tolerance scaled to the grid, which
    the graph reads as ``grid``.
    """

    __slots__ = ()

    def __new__(cls, theta, rho, ambient):
        theta = np.asarray(theta, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if rho.shape != theta.shape:
            raise ValueError("theta and rho must have matching shapes")
        grid = GraphGrid.make(theta.size - 1)
        # the grid's own (read-only) theta needs no comparison
        if theta is not grid.theta and not np.allclose(theta, grid.theta,
                                                       atol=1e-12, rtol=0.0):
            raise ValueError("theta must be the uniform grid over [0, pi]")
        ambient.require_in_domain(rho, "graph radius")
        ambient.require_resolved(rho, "graph radius")
        dth = grid.dtheta
        tol = 5.0 * dth**2 * max(1.0, float(np.abs(rho).max()))
        (r0, r1, r2), (s2, s1, s0) = rho[:3].tolist(), rho[-3:].tolist()
        d0 = (-3.0 * r0 + 4.0 * r1 - r2) / (2.0 * dth)
        d1 = (3.0 * s0 - 4.0 * s1 + s2) / (2.0 * dth)
        if abs(d0) > tol or abs(d1) > tol:
            raise ValueError(
                f"pole regularity violated: one-sided rho' = ({d0:.3e}, {d1:.3e}) "
                f"exceeds tolerance {tol:.3e}")
        return super().__new__(cls, theta, rho, ambient)

    @property
    def grid(self) -> GraphGrid:
        return GraphGrid.make(self.theta.size - 1)

    @property
    def n_intervals(self) -> int:
        return self.theta.size - 1

    @classmethod
    def from_function(cls, fn, ambient: ManifoldSpec,
                      n_intervals: int = 200) -> "AxisymmetricGraph":
        theta = GraphGrid.make(n_intervals).theta
        return cls(theta, np.asarray(fn(theta), dtype=float) + np.zeros_like(theta),
                   ambient)

    @classmethod
    def constant(cls, radius: float, ambient: ManifoldSpec,
                 n_intervals: int = 200) -> "AxisymmetricGraph":
        return cls.from_function(lambda theta: float(radius), ambient, n_intervals)


class SurfaceGeometry(NamedTuple):
    """Derived extrinsic geometry of one slice.

    Per-node arrays have length 1 for coordinate spheres (every node is
    equivalent; ``radii[0]`` is the exact defining radius, so closed forms
    re-evaluate at full precision) and grid length for graphs.
    """

    kind: str                       # "sphere" | "graph"
    ambient: ManifoldSpec
    radii: np.ndarray
    mean_curvature: np.ndarray
    second_form_norm_sq: np.ndarray
    area_weights: np.ndarray        # integral of g over the slice = area_weights . g
    area: float
    hawking_mass: float | None      # sqrt(area/16 pi) (1 - int H^2/16 pi); n = 3 only
    umbilicity_deficit: float       # max of (n-1)|A|^2 - H^2 (>= 0 by Cauchy-Schwarz)


def sphere_geometry(sphere: CoordinateSphere) -> SurfaceGeometry:
    """Closed-form geometry of a coordinate sphere.

    H = (n-1) sqrt(V)/r, |A|^2 = H^2/(n-1) and area = omega_{n-1} r^{n-1};
    the slice is exactly umbilic, so the stored |A|^2 uses the H-based form
    and the umbilicity deficit is 0 without rounding.  For n = 3,
    int H^2/16 pi = V, so the Hawking mass takes the exact mass aspect 1 - V.
    """
    spec = sphere.ambient
    r = sphere.radius
    v = float(spec.profile.value(r))
    if v <= 0.0:
        raise InsideHorizonError(f"profile nonpositive at sphere radius {r:g}")
    n = spec.n
    h = (n - 1) * np.sqrt(v) / r
    area = float(unit_sphere_area(n - 1) * r ** (n - 1))
    hawking = (math.sqrt(area / (16 * math.pi)) * float(spec.profile.mass_aspect(float(r)))
               if n == 3 else None)
    one = np.ones(1)
    return SurfaceGeometry(
        kind="sphere", ambient=spec, radii=np.array([r]),
        mean_curvature=h * one, second_form_norm_sq=(h * h / (n - 1)) * one,
        area_weights=np.array([area]), area=area,
        hawking_mass=hawking, umbilicity_deficit=0.0)


def graph_geometry(graph: AxisymmetricGraph,
                   frame: GraphFrame | None = None) -> SurfaceGeometry:
    """Discrete geometry of an axisymmetric radial graph.

    ``frame`` is the graph's :func:`graph_frame`, evaluated here when not
    given.  Mean-convexity loss (H <= 0 somewhere) is not raised; a
    profile that is not positive at some node raises
    :class:`InsideHorizonError` (the graph's radii were checked against the
    domain when it was built).  The area weights are omega_{n-2} times the
    Simpson weights times the area element (rho sin(theta))^(n-2)
    sqrt(rho^2 + rho'^2/V).  The Hawking mass is None unless n = 3.
    """
    spec, grid, rho = graph.ambient, graph.grid, graph.rho
    if frame is None:
        frame = graph_frame(rho, spec, grid)
    if frame.v.min() <= 0.0:
        raise InsideHorizonError("profile nonpositive somewhere on the graph")
    n = spec.n
    asq = frame.k_meridian**2 + (n - 2) * frame.k_parallel**2
    rp4 = _first_derivative_o4(rho, grid.dtheta)
    jac = (rho * grid.sin_t) ** (n - 2) * np.sqrt(rho * rho + rp4 * rp4 / frame.v)
    weights = unit_sphere_area(n - 2) * grid.simpson_w * jac
    area = float(weights.sum())
    h2 = frame.h**2
    return SurfaceGeometry(
        kind="graph", ambient=spec, radii=rho,
        mean_curvature=frame.h, second_form_norm_sq=asq,
        area_weights=weights, area=area,
        hawking_mass=(math.sqrt(area / (16 * math.pi))
                      * (1.0 - float(weights.dot(h2)) / (16 * math.pi)) if n == 3 else None),
        umbilicity_deficit=float(((n - 1) * asq - h2).max()))


def surface_integral(geom: SurfaceGeometry, integrand) -> float:
    """Integrate per-node values over the slice: ``area_weights . values``.

    A sphere has one node, so its integrand is a single value (constant on
    the slice) and the result is value * area; a graph's is sampled on the
    grid.
    """
    values = np.atleast_1d(np.asarray(integrand, dtype=float))
    if values.shape != geom.area_weights.shape:
        raise ValueError(f"integrand shape {values.shape} does not match "
                         f"the slice's nodes {geom.area_weights.shape}")
    return float(geom.area_weights.dot(values))


def save_graph(path, graph: AxisymmetricGraph) -> None:
    """Write a graph as two-column (theta, rho) text."""
    np.savetxt(path, np.column_stack([graph.theta, graph.rho]), fmt="%.17g")


def read_columns(path, names: str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a numeric text table (``names`` labels them)."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two numeric columns ({names})")
    return data[:, 0], data[:, 1]


def load_graph(path, ambient: ManifoldSpec) -> AxisymmetricGraph:
    """Read a graph from two-column (theta, rho) text."""
    return AxisymmetricGraph(*read_columns(path, "theta, rho"), ambient)
