"""Rotationally symmetric static asymptotically flat manifolds.

The ambient metrics handled by the whole package have the warped form

    g = V(r)^-1 dr^2 + r^2 * (round metric on the unit (n-1)-sphere)

on a radial domain (r_min, r_max], with V > 0 there and V -> 1 at the
asymptotically flat end.  The Schwarzschild family V = 1 - 2m r^(2-n)
is the closed-form backbone (it is the only static member of this
symmetry class); arbitrary V profiles are accepted as diagnostics and
negative controls.

This module owns the metric-side quantities that feed every other
module: scalar curvature, the static-equation and harmonicity residuals
of a candidate weight function f, and the two independent routes to the
ADM mass (flux integral and asymptotic tail fit).

Dimension convention: n is the manifold dimension, hypersurfaces are
(n-1)-dimensional, and 3 <= n <= 7 throughout.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, FitQualityError, InsideHorizonError

__all__ = [
    "RadialProfile",
    "ManifoldSpec",
    "StaticPotential",
    "unit_sphere_area",
    "scalar_curvature",
    "static_residual",
    "harmonicity_residual",
    "adm_mass_flux",
    "adm_mass_fit",
    "horizon_radius",
    "sqrt_potential",
    "constant_potential",
    "profile_weight",
    "sampled_potential",
    "rescale_to_unit",
    "tail_in_domain",
]


def _maybe_item(x):
    """Collapse 0-d numpy results back to python floats."""
    arr = np.asarray(x)
    return arr.item() if arr.ndim == 0 else arr


class _Spline:
    """A piecewise polynomial of degree 1 to 3 on the knots ``x``.

    ``c[k][i]`` multiplies (r - x[i])^(deg - k) on piece i, highest power
    first, and the end pieces extrapolate.  The powers are summed from the
    constant up, with s^2 = s*s and s^3 = s^2*s: the rounding of the usual
    compiled PPoly evaluator, which the tests use as the reference.
    """

    def __init__(self, x: np.ndarray, c: tuple):
        self.x = x
        self._c = c
        self._inner = x[1:-1]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = self._inner.searchsorted(r, "right")  # the piece; ends extrapolate
        s = r - self.x[i]
        c = self._c
        out = c[-1][i] + c[-2][i] * s
        if len(c) > 2:
            s2 = s * s
            out = out + c[-3][i] * s2
            if len(c) > 3:
                out = out + c[-4][i] * (s2 * s)
        return out

    def derivative(self, nu: int = 1) -> "_Spline":
        """The nu-th derivative, for 1 <= nu < degree."""
        deg = len(self._c) - 1
        return _Spline(self.x, tuple(
            ck * float(math.perm(deg - k, nu)) for k, ck in enumerate(self._c[:-nu])))


def _spline(r, y) -> _Spline:
    """Not-a-knot cubic spline through tabulated (r, y): matching 1-d
    arrays of at least 4 finite samples with strictly increasing radii.

    It is built as the reference CubicSpline builds it.  The knot slopes
    solve a tridiagonal system with diagonally dominant interior rows,
    eliminated in LAPACK gtsv's order without row swaps; on tables whose
    neighbouring intervals differ little gtsv swaps none either, and the
    spline agrees bit for bit.
    """
    x = np.array(r, dtype=float)
    y = np.array(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 4:
        raise ValueError("need matching 1-d arrays with at least 4 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("sample radii must be strictly increasing")
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    upper = np.concatenate(([d0], dx[:-1])).tolist()
    lower = np.concatenate((dx[1:], [d1])).tolist()
    b = np.concatenate((
        [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1])).tolist()
    for i in range(len(b) - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= diag[-1]
    for i in range(len(b) - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    s = np.array(b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return _Spline(x, (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def unit_sphere_area(k: int) -> float:
    """Area of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 1:
        raise DomainError(f"unit sphere area needs k >= 1, got {k}")
    return 2.0 * math.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)


class RadialProfile(NamedTuple):
    """A metric profile V(r) with first and second derivatives.

    The closed-form constructors also set ``aspect``, the mass aspect
    u = 1 - V in exact form (see :meth:`mass_aspect`), so sphere
    functionals never form 1 - V by cancellation.
    """

    value: Callable
    deriv: Callable
    deriv2: Callable
    support: tuple[float, float] | None = None  # sampled profiles only
    aspect: Callable | None = None              # closed forms only

    def mass_aspect(self, r):
        """u = 1 - V(r): exact for the closed forms, 1 - V(r) otherwise."""
        return 1.0 - self.value(r) if self.aspect is None else self.aspect(r)

    @classmethod
    def schwarzschild(cls, n: int, m: float) -> "RadialProfile":
        """V = 1 - 2m r^(2-n), exact for every real m."""
        a, b = 2.0 - n, 1.0 - n

        def u(r):
            return 2.0 * m * r**a

        def v(r):
            return 1.0 - u(r)

        def dv(r):
            return 2.0 * m * (n - 2.0) * r**b

        def d2v(r):
            return -2.0 * m * (n - 2.0) * (n - 1.0) * r ** (-float(n))

        return cls(v, dv, d2v, aspect=u)

    @classmethod
    def flat(cls) -> "RadialProfile":
        return cls(lambda r: r * 0.0 + 1.0, lambda r: r * 0.0,
                   lambda r: r * 0.0, aspect=lambda r: r * 0.0)

    @classmethod
    def from_callable(cls, v: Callable, dv: Callable | None = None,
                      d2v: Callable | None = None) -> "RadialProfile":
        """Wrap a plain V(r); missing derivatives fall back to central
        finite differences (steps balanced for O(h^2) truncation)."""
        if dv is None:
            def dv(r, _v=v):
                h = 6.0e-6 * (1.0 + np.abs(r))
                return (_v(r + h) - _v(r - h)) / (2.0 * h)
        if d2v is None:
            def d2v(r, _v=v):
                h = 1.2e-4 * (1.0 + np.abs(r))
                return (_v(r + h) - 2.0 * _v(r) + _v(r - h)) / h**2
        return cls(v, dv, d2v)

    @classmethod
    def from_samples(cls, r: np.ndarray, v: np.ndarray) -> "RadialProfile":
        """Cubic-spline interpolant of tabulated (r, V) pairs."""
        spl = _spline(r, v)
        return cls(spl, spl.derivative(1), spl.derivative(2),
                   support=(float(spl.x[0]), float(spl.x[-1])))


class _ManifoldFields(NamedTuple):
    n: int
    profile: RadialProfile
    mass_param: float | None
    r_min: float
    r_max: float


class ManifoldSpec(_ManifoldFields):
    """An n-dimensional warped-product manifold V^-1 dr^2 + r^2 dOmega^2.

    ``r_min`` is the horizon radius for positive-mass Schwarzschild and a
    configured cutoff otherwise; the working domain is (r_min, r_max].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (3 <= self.n <= 7):
            raise ValueError(f"dimension must satisfy 3 <= n <= 7, got {self.n}")
        if not (0.0 <= self.r_min < self.r_max):
            raise ValueError(f"need 0 <= r_min < r_max, got [{self.r_min}, {self.r_max}]")
        probes = np.geomspace(self.r_min * 1.0001 + 1e-12, self.r_max, 8)
        vals = np.asarray(self.profile.value(probes), dtype=float)
        if not np.all(vals > 0.0):
            bad = probes[~(vals > 0.0)][0]
            raise ValueError(f"profile not positive on domain (V({bad:g}) <= 0)")
        return self

    @classmethod
    def schwarzschild(cls, n: int, m: float, r_max: float = 1000.0,
                      r_min_floor: float = 0.1) -> "ManifoldSpec":
        profile = RadialProfile.schwarzschild(n, m)
        # n <= 2 has no horizon; __new__ rejects it by name
        r_min = (2.0 * m) ** (1.0 / (n - 2)) if m > 0 and n > 2 else r_min_floor
        return cls(n=n, profile=profile, mass_param=float(m),
                   r_min=r_min, r_max=float(r_max))

    @classmethod
    def flat(cls, n: int = 3, r_max: float = 1000.0, r_min: float = 0.1) -> "ManifoldSpec":
        return cls(n=n, profile=RadialProfile.flat(), mass_param=0.0,
                   r_min=float(r_min), r_max=float(r_max))

    @classmethod
    def custom(cls, profile: RadialProfile, n: int, r_min: float = 0.1,
               r_max: float = 1000.0) -> "ManifoldSpec":
        if profile.support is not None:
            lo, hi = profile.support
            r_min, r_max = max(r_min, lo), min(r_max, hi)
        return cls(n=n, profile=profile, mass_param=None,
                   r_min=float(r_min), r_max=float(r_max))

    def require_in_domain(self, r, what: str = "radius") -> None:
        """The domain rule r_min < r <= r_max for a radius or every radius in
        an array r: raises InsideHorizonError at or inside r_min,
        DomainError beyond r_max or NaN, or where r^(n-1), the scale of a
        slice's area, is below the normal float64 range."""
        lo, hi = (r.min(), r.max()) if isinstance(r, np.ndarray) else (r, r)
        if lo <= self.r_min:
            raise InsideHorizonError(
                f"{what} {lo:g} is at or inside the inner boundary "
                f"r_min = {self.r_min:g}")
        if not hi <= self.r_max:
            raise DomainError(f"{what} {hi:g} beyond r_max = {self.r_max:g}")
        if lo ** (self.n - 1) < sys.float_info.min:
            raise DomainError(f"{what} {lo:g} is so small that r^{self.n - 1} "
                              f"is below the normal float64 range")

    def require_resolved(self, r, what: str = "radius") -> None:
        """DomainError unless |1 - V| <= 2^26 at r (a radius or an array):
        Q on a slice cancels terms about |1 - V| times its size, so at the
        bound its rounding error limit_target eps |1 - V| leaves 8 digits."""
        u = abs(self.profile.mass_aspect(r))
        if isinstance(r, np.ndarray):
            i = int(np.argmax(u))
            r, u = r[i], u[i]
        if u > 2.0**26:
            raise DomainError(f"{what} {r:g} has |1 - V| = {u:.3g} beyond 2^26, "
                              f"where Q would lose more than half its digits "
                              f"to cancellation")


class StaticPotential(NamedTuple):
    """A candidate weight f(r) >= 0 with derivatives.

    Only the square root of a Schwarzschild profile actually solves the
    static equation; other weights are carried with the same interface so
    the diagnostics and negative controls run through identical code.

    The closed-form constructors below write the weight in terms of the
    profile V of the manifold the slice lives in (sqrt(V), V or a
    constant) and set ``aspect_excess``, the weight excess as a function
    of the mass aspect, which lets :meth:`excess` form f sqrt(V) - 1
    without cancellation.
    """

    value: Callable
    deriv: Callable
    deriv2: Callable
    aspect_excess: Callable | None = None  # closed forms only

    def excess(self, r: float, profile: RadialProfile) -> float:
        """The weight excess f sqrt(V) - 1 at radius r of ``profile``:
        a function of the mass aspect for the closed forms, plain
        f(r) sqrt(V(r)) - 1 for sampled, rescaled or hand-built weights."""
        if self.aspect_excess is None:
            return self.value(r) * np.sqrt(profile.value(r)) - 1.0
        return self.aspect_excess(profile.mass_aspect(r))


def sqrt_potential(spec: ManifoldSpec) -> StaticPotential:
    """f = sqrt(V), the static potential of the Schwarzschild family.

    For a generic profile this is merely a candidate weight; feed it to
    :func:`static_residual` to find out whether it qualifies.
    """
    p = spec.profile

    def f(r):
        return np.sqrt(p.value(r))

    def df(r):
        return p.deriv(r) / (2.0 * np.sqrt(p.value(r)))

    def d2f(r):
        v = p.value(r)
        s = np.sqrt(v)
        return p.deriv2(r) / (2.0 * s) - p.deriv(r) ** 2 / (4.0 * v * s)

    return StaticPotential(value=f, deriv=df, deriv2=d2f, aspect_excess=lambda u: -u)


def constant_potential(c: float = 1.0) -> StaticPotential:
    """f identically c; the flat-space potential when c = 1."""
    return StaticPotential(
        value=lambda r: r * 0.0 + c, deriv=lambda r: r * 0.0, deriv2=lambda r: r * 0.0,
        aspect_excess=lambda u: c * math.expm1(0.5 * math.log1p(-u)) + (c - 1.0))


def profile_weight(spec: ManifoldSpec) -> StaticPotential:
    """The non-static control weight f = V itself (instead of sqrt(V)).

    Asymptotes to 1 like a rescaled potential but violates the static
    equation everywhere V is not constant, which is exactly what the
    monotonicity negative controls need.
    """
    p = spec.profile
    return StaticPotential(value=p.value, deriv=p.deriv, deriv2=p.deriv2,
                           aspect_excess=lambda u: math.expm1(1.5 * math.log1p(-u)))


def sampled_potential(r: np.ndarray, f: np.ndarray) -> StaticPotential:
    """Cubic-spline potential from tabulated (r, f) pairs."""
    spl = _spline(r, f)
    return StaticPotential(value=spl, deriv=spl.derivative(1),
                           deriv2=spl.derivative(2))


def _radial(spec: ManifoldSpec, r):
    """r as a float array inside the working domain, with V(r) and V'(r)."""
    r = np.asarray(r, dtype=float)
    spec.require_in_domain(r)
    return r, spec.profile.value(r), spec.profile.deriv(r)


def scalar_curvature(spec: ManifoldSpec, r):
    """Scalar curvature R(r) = (n-1) [ (n-2)(1-V)/r^2 - V'/r ].

    Vanishes identically for the Schwarzschild family, which is the
    scalar-flatness every static asymptotically flat metric must satisfy.
    """
    r, v, dv = _radial(spec, r)
    n = spec.n
    return _maybe_item((n - 1) * ((n - 2) * (1.0 - v) / r**2 - dv / r))


def static_residual(spec: ManifoldSpec, f: StaticPotential, r):
    """Orthonormal-frame components of  Lap(f) g - Hess(f) + f Ric.

    Returns the pair (radial-radial, tangential-tangential); by rotational
    symmetry these are the only independent components, and both vanish at
    r exactly when f is static there.  Closed forms (verified against a
    symbolic Christoffel/Ricci computation):

        S_rr = (n-1)/r * ( V f' - f V'/2 )
        S_tt = V f'' + V'f'/2 + (n-2) V f'/r - f V'/(2r) + (n-2) f (1-V)/r^2
    """
    r, v, dv = _radial(spec, r)
    n = spec.n
    fv = f.value(r)
    dfv = f.deriv(r)
    d2fv = f.deriv2(r)
    s_rr = (n - 1) / r * (v * dfv - fv * dv / 2.0)
    s_tt = (v * d2fv + dv * dfv / 2.0 + (n - 2) * v * dfv / r
            - fv * dv / (2.0 * r) + (n - 2) * fv * (1.0 - v) / r**2)
    return _maybe_item(s_rr), _maybe_item(s_tt)


def harmonicity_residual(spec: ManifoldSpec, f: StaticPotential, r):
    """Laplacian of the radial weight, V f'' + (V'/2 + (n-1)V/r) f'.

    A static potential on a scalar-flat manifold is harmonic, so this is
    the cheapest single-number staticity diagnostic.
    """
    r, v, dv = _radial(spec, r)
    n = spec.n
    return _maybe_item(v * f.deriv2(r) + (dv / 2.0 + (n - 1) * v / r) * f.deriv(r))


def adm_mass_flux(spec: ManifoldSpec, f: StaticPotential, r):
    """Mass from the normal-derivative flux of f through the sphere at r.

    The integrand is constant on coordinate spheres, so the surface integral
    collapses to sqrt(V) f'(r) r^(n-1) and the normalization 1/((n-2) omega)
    makes the result equal the ADM mass, independent of r, whenever f is
    static.
    """
    r, v, _dv = _radial(spec, r)
    n = spec.n
    return _maybe_item(np.sqrt(v) * f.deriv(r) * r ** (n - 1) / (n - 2))


def tail_in_domain(spec: ManifoldSpec, tail) -> tuple[float, float]:
    """The tail (lo, hi) as floats; FitQualityError unless it lies in the domain."""
    lo, hi = float(tail[0]), float(tail[1])
    if not (spec.r_min < lo < hi <= spec.r_max):
        raise FitQualityError(
            f"tail [{lo:g}, {hi:g}] not inside domain ({spec.r_min:g}, {spec.r_max:g}]")
    return lo, hi


_TAIL_RADII = 64  # log-spaced sample radii of both tail fits


def _tail_sample(spec: ManifoldSpec, f: StaticPotential, tail):
    """The tail's sample radii and f there; FitQualityError off the domain."""
    rs = np.geomspace(*tail_in_domain(spec, tail), _TAIL_RADII)
    return rs, np.asarray(f.value(rs), dtype=float)


def adm_mass_fit(spec: ManifoldSpec, f: StaticPotential,
                 tail: tuple[float, float] = (100.0, 1000.0)) -> float:
    """Mass from a least-squares fit of f ~ 1 - m r^(2-n) on a far tail.

    The fit samples 64 log-spaced radii of a tail inside the domain, and f
    must already be close to 1 there (rescale first if it is not);
    otherwise a :class:`FitQualityError` whose message gives the numbers
    that rejected the fit is raised.
    """
    rs, fv = _tail_sample(spec, f, tail)
    tail = (float(rs[0]), float(rs[-1]))
    dev = np.abs(fv - 1.0)
    if dev.max() > 0.5:
        raise FitQualityError(
            f"potential is not near 1 on the tail [{tail[0]:g}, {tail[1]:g}] "
            f"(max |f - 1| = {dev.max():.6g}); rescale before fitting")
    basis = rs ** (2.0 - spec.n)
    m_hat = float(np.dot(1.0 - fv, basis) / np.dot(basis, basis))
    resid = (1.0 - fv) - m_hat * basis
    signal = np.linalg.norm(1.0 - fv)
    if signal > 1e-13 and np.linalg.norm(resid) > 0.1 * signal:
        raise FitQualityError(
            f"tail fit residual too large for the 1 - m r^(2-n) model on the "
            f"tail [{tail[0]:g}, {tail[1]:g}] (relative residual "
            f"{np.linalg.norm(resid) / signal:.6g}, m_hat = {m_hat:.6g})")
    return m_hat


def rescale_to_unit(spec: ManifoldSpec, f: StaticPotential,
                    tail: tuple[float, float] = (100.0, 1000.0)) -> StaticPotential:
    """Divide f by its fitted asymptotic constant so it tends to 1.

    Fits f ~ c - b r^(2-n) on adm_mass_fit's 64 tail radii and returns f/c.
    Mass extraction assumes this normalization, so custom weights go through
    here first.
    """
    rs, fv = _tail_sample(spec, f, tail)
    A = np.column_stack([np.ones_like(rs), rs ** (2.0 - spec.n)])
    (c, _b), *_ = np.linalg.lstsq(A, fv, rcond=None)
    if not np.isfinite(c) or abs(c) < 1e-12:
        raise FitQualityError(f"cannot rescale: fitted asymptotic constant "
                              f"c = {c:.6g} is ~0 or not finite")
    c = float(c)
    return StaticPotential(value=lambda r: f.value(r) / c,
                           deriv=lambda r: f.deriv(r) / c,
                           deriv2=lambda r: f.deriv2(r) / c)


# the bisection stopping rule: half-step below _XTOL + _RTOL * r
_XTOL = 1e-12
_RTOL = 4.0 * np.finfo(float).eps


def horizon_radius(spec: ManifoldSpec) -> float | None:
    """Smallest root of V(r) = 0 below r_max, or None when V stays positive.

    Brackets by scanning a log grid from the inner end of the profile's
    support and refines by bisection until the half-step is below
    ``1e-12 + 4 eps r`` (the classic stopping rule, so the root agrees bit
    for bit with the usual library bisection); absence of a horizon (e.g.
    nonpositive-mass Schwarzschild) is a normal result, not an error.
    """
    lo = 1e-8
    if spec.profile.support is not None:
        lo = max(lo, spec.profile.support[0])
    grid = np.geomspace(lo, spec.r_max, 512)
    vals = np.asarray(spec.profile.value(grid), dtype=float)
    if vals[0] == 0.0:
        return float(grid[0])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
    if sign_change.size == 0:
        return None
    i = int(sign_change[0])
    if vals[i] == 0.0:
        return float(grid[i])
    if vals[i + 1] == 0.0:
        return float(grid[i + 1])
    xa, fa, dm = float(grid[i]), vals[i], float(grid[i + 1] - grid[i])
    while True:
        dm *= 0.5
        xm = xa + dm
        fm = spec.profile.value(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < _XTOL + _RTOL * abs(xm):
            return xm
