"""Smooth inverse mean curvature flow of slices.

Surfaces are evolved with outward normal speed 1/H.  For coordinate
spheres the flow is exact, r(t) = r0 exp(t/(n-1)), independent of the
profile (the sqrt(V) factors in the speed and in H cancel).  For radial
graphs (n = 3) the flow reduces to the scalar quasilinear parabolic equation

    d rho / dt = F(rho) = W / H,      W = sqrt(V + rho'^2/rho^2),

which is stepped in the comoving variable sigma = e^(-t/2) rho.  This
divides out the exact sphere growth, so that

    d sigma / dt = G(sigma, t) = e^(-t/2) F(e^(t/2) sigma) - sigma / 2,

a round graph is a fixed point, and the step size is set by the decaying
non-round modes alone (star-shaped IMCF becomes round once the growth is
divided out: Gerhardt, J. Differential Geom. 32, 1990; Urbas, Math. Z.
205, 1990).  Frames, halt tests and emitted slices use rho = e^(t/2) sigma.

The method of lines on the uniform theta grid advances sigma with the
linearly implicit Rosenbrock-W method ROS34PW2 (Rang & Angermann, BIT 45,
2005): four stages, third order, and an embedded second-order solution
whose difference sets the step size (relative tolerance ``rel_tol``).
Stage i is evaluated at time t + alpha_i dt, alpha_i the row sums of the
stage coefficients, (0, 0.8717, 0.7316, 1).  A W-method keeps its order
with any approximation of the Jacobian (Steihaug & Wolfbrandt, Math.
Comp. 33, 1979), so t may be treated as a state whose Jacobian column is
zero, and the W-matrix carries only the stiff diffusion part of the
Jacobian,

    J_D = diag(1 / (H^2 E)) D2,

with D2 the reflecting second difference of the curvature stencil and
H, E taken at rho.  J_D is the same in both variables: dG/dsigma is the
Jacobian of F at rho = e^(t/2) sigma minus I/2, and J_D leaves out the
shift as it leaves out the lower-order terms.  The
stages are taken in transformed form (Hairer & Wanner, Solving ODEs II,
IV.7), where J_D enters the W-matrix and nothing else, and the new state
is the last stage's input plus the last stage (the method is stiffly
accurate).  The state and the stages are the rows of one stage matrix, so
each stage input, each stage's coupling to the stages before it and the
error estimate is one product of a coefficient row with that matrix.  The
step size is set by accuracy alone, not by a dtheta^2 stability bound, so
a flow takes about the same number of steps at any grid size.  A
factorization of the tridiagonal I - gamma dt J_D serves all four stages
of a step, and further steps while it still fits them (below): one Python
pass for the Thomas pivots, then numpy prefix products of the multipliers
of its two elimination sweeps.  Each sweep is a first-order linear
recurrence, so a solve runs it in scan form as a prefix sum (Kogge &
Stone, IEEE Trans. Comput. C-22, 1973; Blelloch, CMU-CS-90-190, 1990),
with no per-node Python; the forward sweep's prefix product is folded
into the backward sweep's weights once per factorization, so a solve is
two prefix sums and five elementwise operations.  Since J_D has zero row
sums, every solve is split as x = b[0] + z with z solving for b - b[0]: a
round graph gives the same G at every node, a constant right-hand side
gives z = 0 exactly, and so round graphs stay exactly round.

The first step is 1% of rho's own time scale |rho| / |W/H| in the error
norm (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The controller
scales each step by _SAFETY err^(-1/3), _SAFETY = 0.9, within [0.2, 5].
Steps land exactly on the requested output times, so emitted slices carry
no interpolation error: each step splits what is left to the next output
into the fewest equal steps of at most dt / _SAFETY, the step the
controller would take before its safety factor, so no sliver step is left
before an output and the step stays the same from one step to the next.
A rejected attempt is split by the controller's shorter step itself, with no
such stretch, so each retry is strictly shorter than the attempt it repeats;
an attempt that is not finite has an infinite error norm, so its retry is h/5.

Since a W-method keeps its order with any W, a factored W-matrix is held
(as stiff codes hold their LU while the step is unchanged: Hairer & Wanner,
IV.8) as long as the step equals the one it was factored at to rounding (a
step off by rounding only is the W-method with J_D scaled by the ratio of
the two; a retry, at least 10% shorter than the attempt it repeats, never
is) and s = gamma dt / (H^2 E dtheta^2) at the current state is within
_HOLD (10%) of the s it was factored at.  The error estimate cannot see a
stale W, so the last bound is what keeps a held W accurate.

Smoothness is assumed, not manufactured: each accepted step is tested
once, and losing mean convexity ("H<=0") or a state at or inside r_min
("horizon") halts the trace with that reason instead of regularizing;
step-size underflow raises a solver failure with diagnostics.

Both flows return an immutable :class:`FlowTrace` of the output times and
one geometry per emitted slice, which depend on no weight or mass.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, MeanConvexityError, SolverFailureError
from .metrics import ManifoldSpec
from .surfaces import (AxisymmetricGraph, CoordinateSphere, GraphFrame,
                       SurfaceGeometry, graph_frame, graph_geometry,
                       sphere_geometry)

__all__ = [
    "FlowTrace",
    "flow_sphere",
    "flow_graph",
    "require_reach",
    "require_positive",
    "require_mean_convex",
    "output_times",
    "area_residual",
    "area_law_residual",
]

MAX_SLICES = 10_000  # cap on t_end / dt_out; every slice stays in memory
MAX_STEPS = 5_000_000  # cap on accepted plus rejected graph steps
_ABS_TOL = 1e-12       # absolute part of the graph stepper's error scale
_SAFETY = 0.9          # the graph step controller's safety factor
_HOLD = 0.1            # largest drift max|s / s_W - 1| of a held W-matrix


def require_positive(key: str, value) -> None:
    """ValueError naming the solver ``key`` unless its value is positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{key} must be positive and finite, got {value!r}")


class FlowTrace(NamedTuple):
    """Output times and one geometry per emitted slice of a flow, with no
    weight or mass.  ``status`` is "completed" or "halted" (``halt_reason``
    says why); ``stats`` holds the solver's counters."""

    times: np.ndarray
    geometries: list
    status: str
    halt_reason: Optional[str]
    stats: dict

    @property
    def ambient(self) -> ManifoldSpec:
        return self.geometries[0].ambient

    @property
    def initial_area(self) -> float:
        return self.geometries[0].area


def require_reach(spec: ManifoldSpec, r_outer: float, t_end: float) -> None:
    """Require t_end > 0 (else ValueError) and, for a slice reaching out to
    ``r_outer``, r_outer e^(t_end/(n-1)) <= r_max (else DomainError): the
    strict rule that the slices built at each output obey.  A growth
    t_end/(n-1) beyond 709 is rejected before math.exp can overflow, so
    the graph stepper's factor e^(t/2) stays finite."""
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
    require_positive("dt_out", dt_out)
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
    geometries = [sphere_geometry(CoordinateSphere(sphere.radius * math.exp(t / (n - 1)), spec))
                  for t in times]
    return FlowTrace(times, geometries, "completed", None,
                     {"steps": 0, "rejected": 0, "rhs_evals": 0, "factorizations": 0})


def require_mean_convex(graph: AxisymmetricGraph,
                        frame: GraphFrame | None = None) -> SurfaceGeometry:
    """The geometry of a graph that may start a flow, built on ``frame``
    (its :func:`graph_frame`, evaluated when not given):
    MeanConvexityError unless it is strictly mean convex (min H > 1e-6)."""
    geom = graph_geometry(graph, frame)
    min_h = float(np.min(geom.mean_curvature))
    if min_h <= 1e-6:
        raise MeanConvexityError(
            f"initial slice is not strictly mean convex (min H = {min_h:.3e})")
    return geom


# ROS34PW2 (Rang & Angermann 2005) in its standard form: stage i solves
#   (I - gamma dt J) k_i = dt f(y + sum_j ALPHA[i][j] k_j) + dt J sum_j GAMMA_IJ[i][j] k_j,
# then y_new = y + sum B[i] k_i, and sum (B - B_HAT)[i] k_i estimates its error.
_GAMMA = 0.435866521508459
_ALPHA = ((), (0.87173304301691801,),
          (0.84457060015369423, -0.11299064236484185), (0.0, 0.0, 1.0))
_GAMMA_IJ = ((), (-0.87173304301691801,),
             (-0.90338057013044082, 0.054180672388095326),
             (0.24212380706095346, -1.2232505839045147, 0.54526025533510214))
_B = (0.24212380706095346, -1.2232505839045147, 1.5452602553351020, _GAMMA)
_B_HAT = (0.37810903145819369, -0.096042292212423178, 0.5, 0.2179332607542295)


def _times_g_inv(row):
    """row G^-1 over the first len(row) stages, G lower triangular with
    gamma on its diagonal and GAMMA_IJ below it: x solves x G = row."""
    x = list(row)
    for j in reversed(range(len(x))):
        x[j] = (x[j] - sum(x[k] * _GAMMA_IJ[k][j] for k in range(j + 1, len(x)))) / _GAMMA
    return tuple(x)


# In the transformed stages u_i = sum_j G[i][j] k_j, stage i solves
#   (I - gamma dt J) u_i = gamma dt f(y + sum_j A_U[i][j] u_j) + sum_j C_U[i][j] u_j,
# so J enters the W-matrix only.  The method is stiffly accurate
# (B G^-1 = A_U[3] + e_4): y_new is stage 4's input plus u_4, and
# sum E_U[i] u_i is the error estimate.
_A_U = tuple(_times_g_inv(row) for row in _ALPHA)
_C_U = tuple(tuple(-_GAMMA * x for x in _times_g_inv([0.0] * i + [1.0])[:-1])
             for i in range(4))
_E_U = _times_g_inv([b - b_hat for b, b_hat in zip(_B, _B_HAT)])
_STAGE_TIMES = tuple(sum(row) for row in _ALPHA)  # stage i runs at t + alpha_i dt


# The stepper keeps y and the four stages as the rows of one stage matrix
# (y, u_1, ..., u_4).  _STAGE_ROWS holds, for each of stages 2 to 4, a row
# for its input (1, A_U) and one for its coupling (0, C_U) over the rows
# before it, and _E_ROW is the error estimate's row (0, E_U).  A stage
# reads only the rows its attempt has written, never a stale one.
_STAGE_ROWS = tuple(np.array([(1.0, *a), (0.0, *c)]) for a, c in zip(_A_U[1:], _C_U[1:]))
_E_ROW = np.array((0.0, *_E_U))


_FLOOR = 1e-200  # smallest prefix product of a sweep; keeps 1/r and w/r finite


def _prefix_runs(m: np.ndarray):
    """Run starts, r and 1 / r for the recurrence z_i = w_i + m_i z_(i-1).

    On the run from start a to the next one, the prefix product
    r_i = m_(a+1) ... m_i (r_a = 1) stays at or above _FLOOR, and
    z = r cumsum(w / r) once the carry m_a z_(a-1) is added to w_a; m_0
    never enters.  A doubled pole multiplier can exceed 1, so a run ends
    before its first entry below the floor, not where its last one is.
    The products are taken in windows, each continuing the last: the first
    window spans the whole array, the first one after a restart is as long
    as the run just ended, and each further one doubles.  Each run's length
    is charged once to the next run's first window, so a factorization
    scans at most about 5 N entries however many runs it has."""
    n = m.size
    r = np.empty_like(m)
    r[0] = 1.0
    starts = [0]
    done, width = 1, n       # r[:done] is final
    while done < n:
        end = min(n, done + width)
        seg = m[done - 1:end].copy()
        seg[0] = r[done - 1]             # continue the product bit for bit
        np.cumprod(seg, out=r[done - 1:end])
        if r[done:end].min() < _FLOOR:
            a = done + int(np.argmax(r[done:end] < _FLOOR))
            width = a - starts[-1]
            starts.append(a)
            r[a] = 1.0
            done = a + 1
        else:
            done, width = end, 2 * width
    return starts, r, 1.0 / r


def _sweep(u: np.ndarray, m: np.ndarray, starts, r, weights) -> np.ndarray:
    """z / r for the recurrence z_i = w_i + m_i z_(i-1), z_0 = w_0, as one
    prefix sum per run of :func:`_prefix_runs`, where w / r = u weights.
    r enters only the carry m_a z_(a-1) = m_a r_(a-1) (z / r)_(a-1) that
    starts each run after the first."""
    y = u * weights
    for a, e in zip(starts, starts[1:] + [u.size]):
        if a:
            y[a] += m[a] * r[a - 1] * y[a - 1]
        np.add.accumulate(y[a:e], out=y[a:e])
    return y


def _w_solver(s: np.ndarray):
    """Factor the W-matrix I - gamma dt J_D = I - diag(s) dtheta^2 D2, with
    s = gamma dt / (H^2 E dtheta^2), and return its solve x = b[0] + z.

    Row i is -s_i, 1 + 2 s_i, -s_i, with the outer entry doubled in the
    reflecting pole rows.  Where 1 + 2 s_i rounds to 1 at every node, W is
    the identity to rounding and the solve returns a copy of b.  Otherwise
    the matrix is diagonally dominant, so the Thomas factorization needs
    no pivoting and its pivots are at least 1.  With the inverse pivots q,
    the elimination is two first-order recurrences on z = q (b - b[0]):
    z_i += f_i z_(i-1) forward and z_i += c_i z_(i+1) backward, where f_i
    and c_i are s_i q_i, doubled at the poles.  Their prefix products r_f
    and r_c are taken here, once per factorization, so each solve is a
    prefix sum per direction.  The forward sweep yields z / r_f, which the
    backward one weights by r_f / r_c, both folded into one array here, so
    z itself is never formed.  Where neither product restarts, the solve
    runs both prefix sums inline; otherwise each sweep runs per run
    (:func:`_sweep`).  The rows sum to one, so a constant b gives z = 0
    exactly.
    """
    if 1.0 + 2.0 * s.max() == 1.0:
        return np.copy
    n = s.size
    couple = np.zeros_like(s)        # sub- times superdiagonal, none in row 0
    np.multiply(s[1:], s[:-1], out=couple[1:])
    couple[1] *= 2.0
    couple[-1] *= 2.0
    p = 0.0
    q = np.fromiter([p := 1.0 / (d - x * p) for d, x in
                     zip((1.0 + 2.0 * s).tolist(), couple.tolist())], float, n)
    sq = s * q
    f = sq.copy()
    f[-1] *= 2.0
    c = sq[::-1].copy()              # backward order
    c[-1] *= 2.0
    f_starts, f_r, f_r_inv = _prefix_runs(f)
    c_starts, c_r, c_r_inv = _prefix_runs(c)
    w_f = q * f_r_inv                # w = q (b - b[0]), over r_f
    w_c = f_r[::-1] * c_r_inv        # w = z = r_f (z / r_f), over r_c
    r_c = c_r[::-1].copy()           # forward order

    if len(f_starts) == len(c_starts) == 1:     # the flow's regime
        def solve(b: np.ndarray) -> np.ndarray:
            y = np.add.accumulate((b - b[0]) * w_f)
            return b[0] + r_c * np.add.accumulate(y[::-1] * w_c)[::-1]
    else:
        def solve(b: np.ndarray) -> np.ndarray:
            y = _sweep(b - b[0], f, f_starts, f_r, w_f)
            return b[0] + r_c * _sweep(y[::-1], c, c_starts, c_r, w_c)[::-1]

    return solve


def _rate(rho, frame, t, gh):
    """gamma h G(sigma, t) = gamma h e^(-t/2) (W/H - rho/2), from the
    frame at rho = e^(t/2) sigma."""
    return (gh * math.exp(-0.5 * t)) * (frame.w / frame.h - 0.5 * rho)


def flow_graph(graph: AxisymmetricGraph, t_end: float, dt_out: float = 0.1,
               rel_tol: float = 1e-7) -> FlowTrace:
    """Method-of-lines IMCF for an axisymmetric radial graph, emitting a
    slice at each of :func:`output_times` and keeping the error of each
    step within ``rel_tol`` (ValueError unless positive and finite).

    The initial slice must pass :func:`require_mean_convex`.  Each accepted
    state halts the trace with reason "H<=0" if min H <= 0, else "horizon"
    if min rho <= r_min; halts are reported, not raised.  Besides the
    counters (``factorizations`` counts the W-matrices factored, at most
    one per attempt), ``stats`` holds ``landing_steps`` (accepted steps the
    split toward an output made shorter than the controller's step), the smallest
    and largest accepted step (``dt_min``, ``dt_max``) and the margins to a
    halt over the initial and every accepted state: ``min_H`` and
    ``min_rho_margin`` (min rho - r_min).  Past ``MAX_STEPS`` attempts it
    raises a solver failure.
    """
    spec = graph.ambient
    require_positive("rel_tol", rel_tol)
    require_reach(spec, float(graph.rho.max()), t_end)
    grid = graph.grid
    rho = graph.rho
    frame = graph_frame(rho, spec, grid)
    geom0 = require_mean_convex(graph, frame)

    times = output_times(t_end, dt_out)
    dth = grid.dtheta

    def scaled_rms(v, y):
        x = v / (_ABS_TOL + rel_tol * np.abs(y))
        return math.sqrt(x.dot(x) / x.size)

    t = 0.0
    stages = np.empty((5, rho.size))   # the stage matrix (y, u_1, ..., u_4)
    stages[0] = rho                 # y = sigma = e^(-t/2) rho
    out_geoms = [geom0]
    emitted = 1
    status, reason = "completed", None
    nsteps = nrej = nfact = nland = 0
    dt_min, dt_max = math.inf, 0.0
    min_h_seen = float(frame.h.min())
    min_rho_seen = float(rho.min())
    # Hairer's starting step: 1% of rho's time scale |rho| / |W/H|
    dt = 0.01 * scaled_rms(rho, rho) / max(scaled_rms(frame.w / frame.h, rho), 1e-300)
    retry = False                   # the last attempt was rejected
    h_w, s_w = math.nan, None       # the step and s the held W was factored at

    while emitted < len(times):
        failure = ("step budget exhausted" if nsteps + nrej > MAX_STEPS else
                   "step size underflow" if dt < 1e-13 * max(1.0, t) else None)
        if failure:
            raise SolverFailureError(failure, {
                "t": t, "dt": float(dt), "steps": nsteps, "rejected": nrej,
                "min_H": float(frame.h.min())})

        # split what is left to the next output into equal steps of at most
        # dt / _SAFETY (a retry: dt, so that it is strictly shorter); dt stays
        # the controller's step
        t_next = float(times[emitted])
        splits = math.ceil((t_next - t) / (dt if retry else dt / _SAFETY))
        h = (t_next - t) / splits
        gh = _GAMMA * h
        s = (gh / dth**2) / (frame.h**2 * frame.e)
        # factor anew for a step beyond rounding of the held W's (h_w is nan
        # until the first; a retry is always shorter) or once s drifts past _HOLD
        if not abs(h - h_w) <= 1e-12 * h or np.abs(s / s_w - 1.0).max() > _HOLD:
            solve = _w_solver(s)
            h_w, s_w = h, s
            nfact += 1
        stages[1] = solve(_rate(rho, frame, t, gh))
        for i, (rows, alpha) in enumerate(zip(_STAGE_ROWS, _STAGE_TIMES[1:]), 2):
            inputs = rows.dot(stages[:i])     # stage input, then coupling
            y_stage = inputs[0]
            t_stage = t + alpha * h
            rho_stage = math.exp(0.5 * t_stage) * y_stage
            stage = graph_frame(rho_stage, spec, grid)
            stages[i] = solve(_rate(rho_stage, stage, t_stage, gh) + inputs[1])
        y_new = y_stage + stages[4]
        enorm = scaled_rms(_E_ROW.dot(stages), y_new)
        if not (np.isfinite(y_new).all() and math.isfinite(enorm)):
            enorm = math.inf
        retry = enorm > 1.0
        if not retry:
            nsteps += 1
            nland += h < dt             # shortened by the split
            dt_min, dt_max = min(dt_min, h), max(dt_max, h)
            t = t_next if splits == 1 else t + h
            stages[0] = y_new
            rho = math.exp(0.5 * t) * y_new
            frame = graph_frame(rho, spec, grid)
            min_h, min_rho = float(frame.h.min()), float(rho.min())
            min_h_seen, min_rho_seen = min(min_h_seen, min_h), min(min_rho_seen, min_rho)
            if min_h <= 0.0 or min_rho <= spec.r_min:
                status, reason = "halted", "H<=0" if min_h <= 0.0 else "horizon"
                break
            if splits == 1:
                # no AxisymmetricGraph checks: the halt tests above and
                # require_reach cover its domain rule
                out_geoms.append(graph_geometry(
                    AxisymmetricGraph._make((grid.theta, rho, spec)), frame))
                emitted += 1
            dt = h * min(5.0, _SAFETY / max(enorm, 1e-10) ** (1.0 / 3.0))
        else:
            nrej += 1
            dt = h * max(0.2, _SAFETY / enorm ** (1.0 / 3.0))

    return FlowTrace(times[:emitted].copy(), out_geoms, status, reason,
                     {"steps": nsteps, "rejected": nrej,
                      "rhs_evals": 1 + 4 * nsteps + 3 * nrej, "factorizations": nfact,
                      "landing_steps": nland, "dt_min": dt_min, "dt_max": dt_max,
                      "min_H": min_h_seen,
                      "min_rho_margin": min_rho_seen - spec.r_min})


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
