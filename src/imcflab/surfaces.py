"""Flow slices and their extrinsic geometry.

Two kinds of hypersurface are supported inside the warped ambient metric
V^-1 dr^2 + r^2 dOmega^2:

* coordinate spheres r = const in any dimension 3 <= n <= 7, where the
  geometry is closed form and totally umbilic, and
* axisymmetric radial graphs r = rho(theta) over [0, pi] in n = 3, the
  workhorse for genuinely non-umbilic flows.

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
principal curvatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsideHorizonError, UnsupportedDimensionError
from .metrics import ManifoldSpec, unit_sphere_area

__all__ = [
    "CoordinateSphere",
    "AxisymmetricGraph",
    "SurfaceGeometry",
    "GraphGrid",
    "sphere_geometry",
    "graph_geometry",
    "surface_integral",
    "umbilicity_deficit",
    "save_graph",
    "load_graph",
]


@dataclass(frozen=True)
class CoordinateSphere:
    """The level set r = radius of the radial coordinate."""

    radius: float
    ambient: ManifoldSpec

    def __post_init__(self):
        if self.radius <= self.ambient.r_min:
            raise InsideHorizonError(
                f"sphere radius {self.radius:g} is at or inside the inner "
                f"boundary r_min = {self.ambient.r_min:g}")
        if self.radius > self.ambient.r_max:
            raise DomainError(
                f"sphere radius {self.radius:g} beyond r_max = {self.ambient.r_max:g}")


@dataclass(frozen=True)
class GraphGrid:
    """Precomputed uniform theta grid machinery shared by geometry and flow."""

    n_intervals: int
    theta: np.ndarray
    dtheta: float
    sin_t: np.ndarray
    cot_t: np.ndarray       # pole entries set to 0; pole limits handled separately
    simpson_w: np.ndarray   # composite Simpson weights including dtheta/3

    @classmethod
    def make(cls, n_intervals: int) -> "GraphGrid":
        if n_intervals < 8 or n_intervals % 2:
            raise ValueError("grid needs an even number of intervals, at least 8")
        theta = np.linspace(0.0, np.pi, n_intervals + 1)
        dtheta = np.pi / n_intervals
        sin_t = np.sin(theta)
        cot_t = np.zeros_like(theta)
        cot_t[1:-1] = np.cos(theta[1:-1]) / sin_t[1:-1]
        w = np.ones(n_intervals + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return cls(n_intervals, theta, dtheta, sin_t, cot_t, w * (dtheta / 3.0))


class GraphFrame(NamedTuple):
    """Raw per-node arrays of a graph slice (shared flow/geometry kernel)."""

    rho: np.ndarray
    rho_p: np.ndarray
    rho_pp: np.ndarray
    v: np.ndarray
    w: np.ndarray        # sqrt(V + rho'^2/rho^2)
    e: np.ndarray        # meridian metric coefficient
    k_meridian: np.ndarray
    k_parallel: np.ndarray
    h: np.ndarray


def graph_frame(rho: np.ndarray, spec: ManifoldSpec, grid: GraphGrid) -> GraphFrame:
    """Evaluate derivatives, metric factors and curvatures of rho(theta)."""
    dth = grid.dtheta
    rho_p = np.empty_like(rho)
    rho_p[1:-1] = (rho[2:] - rho[:-2]) / (2.0 * dth)
    rho_p[0] = rho_p[-1] = 0.0
    rho_pp = np.empty_like(rho)
    rho_pp[1:-1] = (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / dth**2
    rho_pp[0] = 2.0 * (rho[1] - rho[0]) / dth**2
    rho_pp[-1] = 2.0 * (rho[-2] - rho[-1]) / dth**2

    v = spec.profile.value(rho)
    dv = spec.profile.deriv(rho)
    rp2 = rho_p * rho_p
    rho2 = rho * rho
    w = np.sqrt(v + rp2 / rho2)
    e = rp2 / v + rho2
    k_mer = (-rho_pp + rp2 * dv / (2.0 * v) + rho * v + 2.0 * rp2 / rho) / (w * e)
    cterm = rho_p * grid.cot_t
    cterm[0] = rho_pp[0]
    cterm[-1] = rho_pp[-1]
    k_par = (v / rho - cterm / rho2) / w
    return GraphFrame(rho, rho_p, rho_pp, v, w, e, k_mer, k_par,
                      k_mer + k_par)


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


@dataclass(frozen=True)
class AxisymmetricGraph:
    """A radial graph rho(theta) on the uniform grid over [0, pi] (n = 3).

    Pole regularity (vanishing one-sided derivative at both poles) is
    required at construction, within a tolerance scaled to the grid.
    """

    theta: np.ndarray
    rho: np.ndarray
    ambient: ManifoldSpec

    def __post_init__(self):
        if self.ambient.n != 3:
            raise UnsupportedDimensionError(
                f"axisymmetric graphs need ambient dimension 3, got n = {self.ambient.n}")
        theta = np.asarray(self.theta, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rho", rho)
        n_int = theta.size - 1
        if rho.shape != theta.shape:
            raise ValueError("theta and rho must have matching shapes")
        if n_int < 8 or n_int % 2:
            raise ValueError("grid needs an even number of intervals, at least 8")
        ref = np.linspace(0.0, np.pi, n_int + 1)
        if not np.allclose(theta, ref, atol=1e-12, rtol=0.0):
            raise ValueError("theta must be the uniform grid over [0, pi]")
        if np.min(rho) <= self.ambient.r_min:
            raise InsideHorizonError(
                f"graph dips to rho = {np.min(rho):g}, inside r_min = "
                f"{self.ambient.r_min:g}")
        if np.max(rho) > self.ambient.r_max:
            raise DomainError(
                f"graph reaches rho = {np.max(rho):g} beyond r_max = "
                f"{self.ambient.r_max:g}")
        dth = np.pi / n_int
        tol = 5.0 * dth**2 * max(1.0, float(np.max(np.abs(rho))))
        d0 = (-3.0 * rho[0] + 4.0 * rho[1] - rho[2]) / (2.0 * dth)
        d1 = (3.0 * rho[-1] - 4.0 * rho[-2] + rho[-3]) / (2.0 * dth)
        if abs(d0) > tol or abs(d1) > tol:
            raise ValueError(
                f"pole regularity violated: one-sided rho' = ({d0:.3e}, {d1:.3e}) "
                f"exceeds tolerance {tol:.3e}")

    @property
    def n_intervals(self) -> int:
        return self.theta.size - 1

    @classmethod
    def from_function(cls, fn, ambient: ManifoldSpec,
                      n_intervals: int = 200) -> "AxisymmetricGraph":
        theta = np.linspace(0.0, np.pi, n_intervals + 1)
        return cls(theta, np.asarray(fn(theta), dtype=float) + np.zeros_like(theta),
                   ambient)

    @classmethod
    def constant(cls, radius: float, ambient: ManifoldSpec,
                 n_intervals: int = 200) -> "AxisymmetricGraph":
        theta = np.linspace(0.0, np.pi, n_intervals + 1)
        return cls(theta, np.full(n_intervals + 1, float(radius)), ambient)


@dataclass(frozen=True)
class SurfaceGeometry:
    """Derived extrinsic geometry of one slice.

    Per-node arrays have length 1 for coordinate spheres (every node is
    equivalent) and grid length for graphs.  ``sphere_radius`` preserves the
    exact defining radius of sphere slices so downstream consumers can
    re-evaluate closed forms at full precision.
    """

    kind: str                       # "sphere" | "graph"
    ambient: ManifoldSpec
    radii: np.ndarray
    mean_curvature: np.ndarray
    second_form_norm_sq: np.ndarray
    area: float
    mean_convex: bool
    theta: np.ndarray | None = None
    area_element: np.ndarray | None = None
    kappa_meridian: np.ndarray | None = None
    kappa_parallel: np.ndarray | None = None
    sphere_radius: float | None = None
    simpson_w: np.ndarray | None = None

    @property
    def dim(self) -> int:
        """Ambient dimension n."""
        return self.ambient.n


def sphere_geometry(sphere: CoordinateSphere) -> SurfaceGeometry:
    """Closed-form geometry of a coordinate sphere.

    H = (n-1) sqrt(V)/r, |A|^2 = H^2/(n-1) and area = omega_{n-1} r^{n-1};
    the slice is exactly umbilic, so the stored |A|^2 uses the H-based form
    to keep the umbilicity deficit identically zero in floating point.
    """
    spec = sphere.ambient
    r = sphere.radius
    v = float(spec.profile.value(r))
    if v <= 0.0:
        raise InsideHorizonError(f"profile nonpositive at sphere radius {r:g}")
    n = spec.n
    h = (n - 1) * np.sqrt(v) / r
    area = unit_sphere_area(n - 1) * r ** (n - 1)
    one = np.ones(1)
    return SurfaceGeometry(
        kind="sphere", ambient=spec, radii=np.array([r]),
        mean_curvature=h * one, second_form_norm_sq=(h * h / (n - 1)) * one,
        area=float(area), mean_convex=bool(h > 0.0),
        kappa_meridian=(h / (n - 1)) * one, kappa_parallel=(h / (n - 1)) * one,
        sphere_radius=float(r))


def graph_geometry(graph: AxisymmetricGraph,
                   grid: GraphGrid | None = None) -> SurfaceGeometry:
    """Discrete geometry of an axisymmetric radial graph.

    Mean-convexity loss (H <= 0 somewhere) is reported through the
    ``mean_convex`` flag rather than raised; crossing the inner boundary
    raises :class:`InsideHorizonError`.
    """
    spec = graph.ambient
    if grid is None or grid.n_intervals != graph.n_intervals:
        grid = GraphGrid.make(graph.n_intervals)
    rho = graph.rho
    if np.min(rho) <= spec.r_min:
        raise InsideHorizonError(
            f"graph dips to rho = {np.min(rho):g}, inside r_min = {spec.r_min:g}")
    frame = graph_frame(rho, spec, grid)
    if np.min(frame.v) <= 0.0:
        raise InsideHorizonError("profile nonpositive somewhere on the graph")
    asq = frame.k_meridian**2 + frame.k_parallel**2
    rp4 = _first_derivative_o4(rho, grid.dtheta)
    jac = rho * grid.sin_t * np.sqrt(rho * rho + rp4 * rp4 / frame.v)
    area = 2.0 * np.pi * float(np.dot(grid.simpson_w, jac))
    return SurfaceGeometry(
        kind="graph", ambient=spec, radii=rho,
        mean_curvature=frame.h, second_form_norm_sq=asq,
        area=area, mean_convex=bool(np.min(frame.h) > 0.0),
        theta=grid.theta, area_element=jac,
        kappa_meridian=frame.k_meridian, kappa_parallel=frame.k_parallel,
        simpson_w=grid.simpson_w)


def surface_integral(geom: SurfaceGeometry, integrand) -> float:
    """Integrate per-node values over the slice.

    For spheres the integrand is a single value (the integrand is constant
    on the slice) and the result is value * area; for graphs it is sampled
    on the grid and integrated with composite Simpson against the area
    element, including the 2 pi azimuthal factor.
    """
    values = np.atleast_1d(np.asarray(integrand, dtype=float))
    if geom.kind == "sphere":
        if values.size != 1:
            raise ValueError(
                f"sphere integrand must be a single value, got shape {values.shape}")
        return float(values[0] * geom.area)
    if values.shape != geom.radii.shape:
        raise ValueError(
            f"integrand shape {values.shape} does not match grid {geom.radii.shape}")
    return 2.0 * np.pi * float(np.dot(geom.simpson_w, values * geom.area_element))


def umbilicity_deficit(geom: SurfaceGeometry) -> float:
    """Max over nodes of (n-1)|A|^2 - H^2, the pointwise umbilicity gap.

    Nonnegative up to discretization noise by Cauchy-Schwarz; identically
    zero exactly on coordinate spheres, which it returns without rounding.
    """
    if geom.kind == "sphere":
        return 0.0
    n = geom.dim
    return float(np.max((n - 1) * geom.second_form_norm_sq
                        - geom.mean_curvature**2))


def save_graph(path, graph: AxisymmetricGraph) -> None:
    """Write a graph as two-column (theta, rho) text."""
    np.savetxt(path, np.column_stack([graph.theta, graph.rho]), fmt="%.17g")


def load_graph(path, ambient: ManifoldSpec) -> AxisymmetricGraph:
    """Read a graph from two-column (theta, rho) text."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two numeric columns (theta, rho)")
    return AxisymmetricGraph(data[:, 0], data[:, 1], ambient)
