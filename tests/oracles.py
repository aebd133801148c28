"""Independent numerical oracles used by the test suite.

Nothing here imports the package's formula implementations; curvature
comes from raw finite differences of the metric through Christoffel
symbols, the spheroid values come from classical surface-of-
revolution formulas in the ellipse parameter, both by quadrature and in
elementary closed form, and the Schwarzschild sphere functionals come
from their textbook definitions in 40-digit arithmetic.  These routes
deliberately duplicate work so the package code has something genuinely
independent to be checked against.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad


# ---------------------------------------------------------------------------
# finite-difference curvature of the warped metric, any dimension
# ---------------------------------------------------------------------------

def warped_metric(n, v_of_r):
    """Coordinate metric diag(1/V, r^2, r^2 sin^2 th1, ...) as a callable."""

    def g(x):
        diag = np.empty(n)
        diag[0] = 1.0 / v_of_r(x[0])
        s = x[0] * x[0]
        for k in range(1, n):
            diag[k] = s
            if k < n - 1:
                s = s * np.sin(x[k]) ** 2
        return np.diag(diag)

    return g


def christoffel_fd(gfun, x, h=1e-3):
    """Gamma^a_{bc} from central differences of the metric."""
    x = np.asarray(x, dtype=float)
    n = x.size
    ginv = np.linalg.inv(gfun(x))
    dg = np.empty((n, n, n))
    for c in range(n):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        dg[c] = (gfun(xp) - gfun(xm)) / (2.0 * h)
    gam = np.empty((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                gam[a, b, c] = 0.5 * np.dot(
                    ginv[a], dg[b, :, c] + dg[c, :, b] - dg[:, b, c])
    return gam


def ricci_fd(gfun, x, h=1e-3):
    """Ric_{bd} = d_a Gam^a_{db} - d_d Gam^a_{ab} + Gam Gam - Gam Gam."""
    x = np.asarray(x, dtype=float)
    n = x.size
    gam = christoffel_fd(gfun, x, h)
    dgam = np.empty((n, n, n, n))
    for c in range(n):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        dgam[c] = (christoffel_fd(gfun, xp, h) - christoffel_fd(gfun, xm, h)) / (2.0 * h)
    ric = np.empty((n, n))
    for b in range(n):
        for d in range(n):
            val = 0.0
            for a in range(n):
                val += dgam[a, a, d, b] - dgam[d, a, a, b]
                for e in range(n):
                    val += gam[a, a, e] * gam[e, d, b] - gam[a, d, e] * gam[e, a, b]
            ric[b, d] = val
    return ric


def scalar_curvature_fd(n, v_of_r, r, h=1e-3):
    """R(r) from the finite-difference Ricci, evaluated off the poles."""
    gfun = warped_metric(n, v_of_r)
    x = np.full(n, 1.0)
    x[0] = r
    ric = ricci_fd(gfun, x, h)
    ginv = np.linalg.inv(gfun(x))
    return float(np.sum(ginv * ric))


def static_tensor_fd(n, v_of_r, f1, f2, f_of_r, r, h=1e-3):
    """Orthonormal (radial, tangential) components of
    Lap(f) g - Hess(f) + f Ric for a radial f, via finite differences.

    f1, f2 are the first and second radial derivatives of f.
    """
    gfun = warped_metric(n, v_of_r)
    x = np.full(n, 1.0)
    x[0] = r
    g0 = gfun(x)
    ginv = np.linalg.inv(g0)
    gam = christoffel_fd(gfun, x, h)
    ric = ricci_fd(gfun, x, h)
    hess = -gam[0] * f1(r)
    hess[0, 0] += f2(r)
    lap = float(np.sum(ginv * hess))
    s = lap * g0 - hess + f_of_r(r) * ric
    return float(s[0, 0] * v_of_r(r)), float(s[1, 1] / r**2)


# ---------------------------------------------------------------------------
# prolate spheroid |x|^2 + (z/c)^2 = 1 (a = 1 equatorial, c polar) in R^n
# ---------------------------------------------------------------------------

def unit_sphere_area(k):
    """Area of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    return 2.0 * np.pi ** ((k + 1) / 2) / math.gamma((k + 1) / 2)


def spheroid_curvatures(u, a=1.0, c=2.0):
    """Classical (meridian, parallel) principal curvatures at ellipse
    parameter u of the hypersurface of revolution |x| = a sin u, z = c cos u;
    in R^n the parallel one has multiplicity n - 2."""
    g = np.sqrt(a**2 * np.cos(u) ** 2 + c**2 * np.sin(u) ** 2)
    return a * c / g**3, c / (a * g)


def spheroid_integrals(a=1.0, c=2.0, n=3):
    """area, int H dA, int H^2 dA by adaptive quadrature in u; the area
    element is omega_(n-2) (a sin u)^(n-2) times the meridian's arclength."""

    def darea(u):
        g = np.sqrt(a**2 * np.cos(u) ** 2 + c**2 * np.sin(u) ** 2)
        return unit_sphere_area(n - 2) * (a * np.sin(u)) ** (n - 2) * g

    def h_of(u):
        k1, k2 = spheroid_curvatures(u, a, c)
        return k1 + (n - 2) * k2

    area = quad(darea, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13)[0]
    int_h = quad(lambda u: h_of(u) * darea(u), 0.0, np.pi,
                 epsabs=1e-13, epsrel=1e-13)[0]
    int_h2 = quad(lambda u: h_of(u) ** 2 * darea(u), 0.0, np.pi,
                  epsabs=1e-13, epsrel=1e-13)[0]
    return area, int_h, int_h2


def spheroid_area_closed(a=1.0, c=2.0):
    """2 pi a^2 (1 + (c/(a e)) arcsin e) for the prolate case c > a."""
    e = np.sqrt(1.0 - a**2 / c**2)
    return 2.0 * np.pi * a**2 * (1.0 + (c / (a * e)) * np.arcsin(e))


def spheroid_int_h_closed(a=1.0, c=2.0):
    """int H dA = 4 pi c + (4 pi a^2 / k) artanh(k/c), k = sqrt(c^2 - a^2),
    for the prolate case c > a: the parallel curvature contributes 4 pi c,
    the meridian one integrates in t = cos u to the artanh term."""
    k = np.sqrt(c**2 - a**2)
    return 4.0 * np.pi * c + (4.0 * np.pi * a**2 / k) * np.arctanh(k / c)


def spheroid_deficit_closed(a=1.0, c=2.0):
    """Flat-space Minkowski deficit int H dA / (8 pi) - sqrt(area / (4 pi)),
    positive for every c > a and homogeneous of degree one in (a, c)."""
    return (spheroid_int_h_closed(a, c) / (8.0 * np.pi)
            - np.sqrt(spheroid_area_closed(a, c) / (4.0 * np.pi)))


def spheroid_polar_radius(theta, a=1.0, c=2.0):
    """rho(theta) of the spheroid as a radial graph over the polar angle."""
    return a * c / np.sqrt(c**2 * np.sin(theta) ** 2 + a**2 * np.cos(theta) ** 2)


def spheroid_h_at_theta(theta, a=1.0, c=2.0, n=3):
    """Mean curvature in R^n at the graph node theta, via the u(theta) map."""
    rho = spheroid_polar_radius(theta, a, c)
    u = np.arctan2(rho * np.sin(theta) / a, rho * np.cos(theta) / c)
    k1, k2 = spheroid_curvatures(u, a, c)
    return k1 + (n - 2) * k2


def offcentre_sphere_rho(theta, t, p, r0, n=3):
    """rho(theta, t) of the flat-space IMCF in R^n of the sphere of radius
    r0 centred at p e_z, p < r0: the sphere of radius r0 e^(t/(n-1)) about
    the same centre (area omega r0^(n-1) e^t, as IMCF demands), as a radial
    graph."""
    return p * np.cos(theta) + np.sqrt(r0**2 * np.exp(2 * t / (n - 1))
                                       - (p * np.sin(theta)) ** 2)


# ---------------------------------------------------------------------------
# linearised decay of a Legendre mode of a flowing graph, n = 3
# ---------------------------------------------------------------------------

def legendre_mode_decay(t, ell, m, r0):
    """a_ell(t) / a_ell(0) for the flow of rho = r0 (1 + eps P_ell(cos theta))
    in Schwarzschild V = 1 - 2m/r, to first order in eps.

    Write rho = R (1 + eps v) with R(t) = r0 e^(t/2), the exact sphere flow.
    rho'^2 is O(eps^2), so to first order W = sqrt(V(rho)) and
    H = 2 sqrt(V(rho)) / rho - eps Lap_S2 v / (R sqrt(V(R))); V(rho) cancels
    in W/H = (rho / 2) (1 + eps Lap_S2 v / (2 V(R))), and d rho/dt = W/H
    leaves v_t = Lap_S2 v / (4 V(R(t))).  Lap_S2 P_ell = -ell (ell+1) P_ell, and
    V(R(t)) = 1 - c e^(-t/2) with c = 2m/r0 integrates to
    int_0^t ds / V = 2 log((e^(t/2) - c) / (1 - c)), so
    a_ell(t) = a_ell(0) ((1 - c) / (e^(t/2) - c))^(ell (ell+1) / 2);
    in flat space that is e^(-ell (ell+1) t / 4).
    """
    c = 2.0 * m / r0
    return ((1.0 - c) / (np.exp(0.5 * t) - c)) ** (ell * (ell + 1) / 2)


# ---------------------------------------------------------------------------
# coordinate spheres of n-dimensional Schwarzschild, 40 significant digits
# ---------------------------------------------------------------------------

def schwarzschild_sphere_mp(n, m, r, weight="static", dps=40):
    """area, int f H, Q, Minkowski deficit and (n = 3) Hawking mass of the
    sphere of radius r in Schwarzschild V = 1 - 2m r^(2-n), straight from
    their definitions in ``dps``-digit arithmetic, rounded to float.

    ``weight`` is "static" (f = sqrt(V)) or "profile-weight" (f = V).  The
    digits carried absorb the r^(n-2) cancellations of the equality case.
    """
    with mpmath.workdps(dps):
        r, m = mpmath.mpf(r), mpmath.mpf(m)
        half = mpmath.mpf(n) / 2
        omega = 2 * mpmath.pi**half / mpmath.gamma(half)
        v = 1 - 2 * m * r ** (2 - n)
        f = mpmath.sqrt(v) if weight == "static" else v
        h = (n - 1) * mpmath.sqrt(v) / r
        area = omega * r ** (n - 1)
        int_fh = f * h * area
        p = mpmath.mpf(n - 2) / (n - 1)
        q = area ** (-p) * (2 * (n - 1) * omega * m + int_fh)
        deficit = int_fh / ((n - 1) * omega) - (area / omega) ** p + 2 * m
        hawking = None
        if n == 3:
            hawking = float(mpmath.sqrt(area / (16 * mpmath.pi))
                            * (1 - h * h * area / (16 * mpmath.pi)))
        return {"area": float(area), "int_fH": float(int_fh), "Q": float(q),
                "deficit": float(deficit), "hawking": hawking}


# ---------------------------------------------------------------------------
# Schwarzschild profile and static potential with derivatives, 30 digits
# ---------------------------------------------------------------------------

def schwarzschild_derivatives_mp(n, m, r, dps=30):
    """(V, V', V'') and (f, f', f'') for f = sqrt(V), V = 1 - 2m r^(2-n), by
    mpmath's numerical differentiation in ``dps``-digit arithmetic, rounded
    to float; a derivative of flat space (m = 0) comes out exactly 0."""
    with mpmath.workdps(dps):
        r, m = mpmath.mpf(r), mpmath.mpf(m)

        def v(x):
            return 1 - 2 * m * x ** (2 - n)

        def f(x):
            return mpmath.sqrt(v(x))

        return tuple(tuple(float(mpmath.diff(g, r, k)) for k in range(3))
                     for g in (v, f))
