import functools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

import imcflab as L
from imcflab.errors import DomainError, MeanConvexityError, SolverFailureError

from conftest import negative_h_beyond, p2_graph
from oracles import legendre_mode_decay, offcentre_sphere_rho, spheroid_polar_radius


def start_step(graph, rel_tol=1e-7):
    """1% of rho's time scale |rho| / |W/H|, both in the stepper's error norm."""
    frame = L.surfaces.graph_frame(graph.rho, graph.ambient, graph.grid)
    scale = 1e-12 + rel_tol * np.abs(graph.rho)
    rms = lambda v: np.sqrt(np.mean((v / scale) ** 2))  # noqa: E731
    return 0.01 * rms(graph.rho) / rms(frame.w / frame.h)


def record_attempts(monkeypatch, dtheta):
    """Record each attempt of a graph flow: its start time ``t``, its step
    ``h``, the s = gamma h / (H^2 E dtheta^2) of its start state, the index
    ``w`` of the last W-matrix factored before it and the index of the one
    each of its four solves used.  Returns the attempts and the s of each
    factorization.  A retry starts at the time of the attempt before it;
    the spy fails at once unless it is strictly shorter, so a retry that
    does not shrink cannot loop."""
    attempts, factored = [], []
    real_solver, real_rate = L.flow._w_solver, L.flow._rate

    def solver(s):
        factored.append(s.copy())
        solve, index = real_solver(s), len(factored) - 1

        def spied(b):
            attempts[-1].solves.append(index)
            return solve(b)
        return spied

    def rate(rho, frame, t, gh, c):
        if not attempts or len(attempts[-1].solves) == 4:   # a new attempt
            h = gh / L.flow._GAMMA
            if attempts and t == attempts[-1].t:
                assert h < attempts[-1].h, f"a retry {h / attempts[-1].h} times the rejected step"
            attempts.append(SimpleNamespace(t=t, h=h, w=len(factored) - 1, solves=[],
                                            s=gh / (dtheta**2 * frame.h**2 * frame.e)))
        return real_rate(rho, frame, t, gh, c)

    monkeypatch.setattr(L.flow, "_w_solver", solver)
    monkeypatch.setattr(L.flow, "_rate", rate)
    return attempts, factored


def retries(attempts):
    """The (rejected, retry) pairs of recorded attempts."""
    return [(a, b) for a, b in zip(attempts, attempts[1:]) if b.t == a.t]


class TestSphereFlow:
    def test_exact_radius_law(self, schw3m1):
        tr = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 2.0)
        assert tr.geometries[-1].radii[0] == pytest.approx(4 * math.e, rel=1e-15)
        assert tr.geometries[0].radii[0] == 4.0
        assert tr.status == "completed"

    def test_identity_at_t_zero(self, flat3):
        tr = L.flow_sphere(L.CoordinateSphere(2.5, flat3), 0.3)
        assert tr.times[0] == 0.0
        assert tr.geometries[0].radii[0] == 2.5

    def test_higher_dimension_area_ratio(self):
        spec = L.ManifoldSpec.schwarzschild(5, 0.0, r_min_floor=0.05)
        tr = L.flow_sphere(L.CoordinateSphere(1.0, spec), 4.0)
        assert tr.geometries[-1].radii[0] == pytest.approx(math.e, rel=1e-14)
        ratio = tr.geometries[-1].area / tr.geometries[0].area
        assert ratio == pytest.approx(math.exp(4.0), rel=1e-12)

    def test_area_law_exact_to_roundoff(self, schw3m1):
        tr = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 3.0)
        assert L.area_law_residual(tr) < 1e-13

    def test_domain_guard(self, schw3m1):
        with pytest.raises(DomainError, match="r_max"):
            L.flow_sphere(L.CoordinateSphere(900.0, schw3m1), 3.0)

    @pytest.mark.parametrize("n, m, r0", [(3, 1.0, 4.0), (5, -0.7, 1.3), (7, 0.0, 0.9)])
    def test_slices_equal_validated_spheres(self, n, m, r0):
        spec = L.ManifoldSpec.schwarzschild(n, m, r_min_floor=0.05)
        tr = L.flow_sphere(L.CoordinateSphere(r0, spec), 2.0, dt_out=0.05)
        for t, geom in zip(tr.times, tr.geometries):
            want = L.sphere_geometry(L.CoordinateSphere(r0 * math.exp(t / (n - 1)), spec))
            assert geom.radii.tobytes() == want.radii.tobytes()
            for field in ("area", "hawking_mass", "umbilicity_deficit"):
                assert getattr(geom, field) == getattr(want, field), field
            for field in ("mean_curvature", "second_form_norm_sq", "area_weights"):
                assert getattr(geom, field).tobytes() == getattr(want, field).tobytes()

    def test_unresolved_slice_inside_the_reach_is_rejected(self):
        # V = 1 + (r/4)^30: |1 - V| is 1 on the initial sphere and passes
        # 2^26 near r = 7.3, inside the reach 4 e^1.5 = 17.9 < r_max
        profile = L.RadialProfile(lambda r: 1.0 + (r / 4.0) ** 30,
                                  lambda r: 7.5 * (r / 4.0) ** 29,
                                  lambda r: 54.375 * (r / 4.0) ** 28)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=1.0, r_max=20.0)
        sphere = L.CoordinateSphere(4.0, spec)
        with pytest.raises(DomainError, match="2\\^26"):
            L.flow_sphere(sphere, 3.0)


class TestGraphFlow:
    def test_constant_graph_tracks_exact_sphere_law(self, schw3m1):
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 2.0)
        rho_end = tr.geometries[-1].radii
        assert np.max(np.abs(rho_end / (4 * math.e) - 1.0)) < 1e-6
        assert np.max(rho_end) - np.min(rho_end) == 0.0  # stays exactly uniform

    def test_flat_constant_graph(self, flat3):
        tr = L.flow_graph(L.AxisymmetricGraph.constant(1.0, flat3, 100), 1.0)
        assert np.max(np.abs(tr.geometries[-1].radii / math.exp(0.5) - 1.0)) < 1e-6

    def test_matches_sphere_trace_at_every_output(self, schw3m1):
        tr_g = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 1.0)
        tr_s = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 1.0)
        np.testing.assert_allclose(
            [g.area for g in tr_g.geometries],
            [g.area for g in tr_s.geometries], rtol=1e-7)

    def test_area_law_for_perturbed_sphere(self, schw3m1):
        res = {}
        for n_int in (100, 200):
            tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, n_int), 1.0)
            res[n_int] = L.area_law_residual(tr)
        assert res[200] < 1e-4
        assert res[100] / res[200] > 2.0  # at least first-order decay in N

    def test_perturbation_decay_in_flat_space(self, flat3):
        tr = L.flow_graph(p2_graph(flat3, 1.0, 0.05, 100), 1.0)
        amp = [(np.max(g.radii) - np.min(g.radii)) / np.mean(g.radii)
               for g in tr.geometries]
        assert all(a2 <= a1 + 1e-15 for a1, a2 in zip(amp, amp[1:]))
        assert amp[-1] < 0.5 * amp[0]

    def test_initial_mean_convexity_required(self, flat3):
        with pytest.raises(MeanConvexityError):
            L.flow_graph(p2_graph(flat3, 1.0, 0.7, 100), 0.5)

    def test_step_budget_failure_has_diagnostics(self, schw3m1, monkeypatch):
        monkeypatch.setattr(L.flow, "MAX_STEPS", 10)
        with pytest.raises(SolverFailureError) as exc:
            L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 1.0)
        assert "steps" in exc.value.diagnostics
        # plain numbers, so the CLI message shows no np.float64(...)
        assert all(type(v) in (int, float) for v in exc.value.diagnostics.values())

    @pytest.mark.parametrize("t_end", [1e-14, 5e-324])
    def test_flow_shorter_than_the_underflow_floor_completes(self, schw3m1, t_end):
        # the floor applies to the controller's step, not to the last
        # step shortened to land on t_end
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), t_end)
        assert tr.status == "completed"
        assert tr.times.tolist() == [0.0, t_end]
        assert tr.stats["steps"] == 1

    def test_step_count_does_not_grow_with_the_grid(self, schw3m1):
        # an explicit stepper's dtheta^2 cap would take ~16x the steps at N=800
        steps = {n: L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, n), 3.0).stats["steps"]
                 for n in (200, 800)}
        assert max(steps.values()) < 1000
        assert abs(steps[800] / steps[200] - 1.0) <= 0.1

    def test_final_q_converged_in_time(self, schw3m1):
        f = L.sqrt_potential(schw3m1)
        q_end = []
        for tol in ({}, {"rel_tol": 1e-10}):   # the default, then a tight one
            tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 200), 3.0, **tol)
            q_end.append(L.attach_quantities(tr, f, 1.0)[-1].q)
        default, tight = q_end
        assert abs(default - tight) <= 1e-10

    def test_solver_counters(self, schw3m1):
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 0.5)
        st = tr.stats
        attempts = st["steps"] + st["rejected"]
        # at most one factorization per attempt; three new stages per
        # attempt, one more right-hand side per accepted step and one at
        # the start
        assert 0 < st["factorizations"] <= attempts
        assert st["rhs_evals"] == 1 + 3 * attempts + st["steps"]

    @pytest.mark.parametrize("mass", [-1.0, 0.0, 1.0])
    def test_w_matrix_is_held_across_equal_steps(self, mass):
        # measured 8 of 56, 7 of 67 and 20 of 89 attempts (N = 100); a
        # stepper that factors every attempt fails here
        spec = L.ManifoldSpec.schwarzschild(3, mass)
        st = L.flow_graph(p2_graph(spec, 4.0, 0.3, 100), 3.0).stats
        assert 3 * st["factorizations"] <= st["steps"] + st["rejected"]

    @pytest.mark.parametrize("mass", [-1.0, 1.0])
    def test_each_solve_uses_a_w_factored_at_its_step(self, mass, monkeypatch):
        # a held W-matrix is the W-method's W for A = (h_W / h) J_D at the
        # state it was factored at; the error estimate cannot see a stale
        # one, so its step must match to rounding and its s to _HOLD
        g = p2_graph(L.ManifoldSpec.schwarzschild(3, mass), 4.0, 0.3, 100)
        attempts, factored = record_attempts(monkeypatch, g.grid.dtheta)
        st = L.flow_graph(g, 3.0).stats
        assert len(attempts) == st["steps"] + st["rejected"]
        assert len(factored) == st["factorizations"]
        h_w = {}
        for a in attempts:
            assert a.solves == [a.w] * 4
            if a.w not in h_w:          # the attempt that factored it
                h_w[a.w] = a.h
                np.testing.assert_allclose(a.s, factored[a.w], rtol=1e-13)
            assert abs(a.h / h_w[a.w] - 1.0) <= 1e-12
            assert np.max(np.abs(a.s / factored[a.w] - 1.0)) <= L.flow._HOLD
        assert len(h_w) == len(factored)

    @pytest.mark.parametrize("mass", [-1.0, 0.0, 1.0])
    def test_steps_split_each_output_interval_evenly(self, mass, monkeypatch):
        # each step splits what is left to the next output into equal parts
        # and the last lands on it exactly; after the first interval (the
        # controller's ramp-up) each interval's steps are equal
        g = p2_graph(L.ManifoldSpec.schwarzschild(3, mass), 4.0, 0.3, 100)
        attempts, _ = record_attempts(monkeypatch, g.grid.dtheta)
        tr = L.flow_graph(g, 3.0)
        ends = [a.t for a in attempts[1:]] + [tr.times[-1]]
        steps = [(a, end) for a, end in zip(attempts, ends) if end != a.t]
        assert len(steps) == tr.stats["steps"]
        by_output = {}
        for a, end in steps:
            t_next = tr.times[np.searchsorted(tr.times, a.t, side="right")]
            splits = (t_next - a.t) / a.h
            assert abs(splits - round(splits)) <= 1e-9
            assert end == (t_next if round(splits) == 1 else a.t + a.h)
            by_output.setdefault(t_next, []).append(a.h)
        assert sorted(by_output) == tr.times[1:].tolist()
        for hs in list(by_output.values())[1:]:
            assert np.ptp(hs) <= 1e-12 * max(hs), hs

    def test_landing_steps(self, schw3m1):
        # accepted steps the split made shorter than the controller's step:
        # every step, when each output interval is far shorter than it
        g = p2_graph(schw3m1, 4.0, 0.3, 100)
        tr = L.flow_graph(g, 0.01, dt_out=0.001)
        assert tr.stats["landing_steps"] == tr.stats["steps"] == 10
        for t_end, dt_out in ((0.1, 0.1), (1.0, 0.05)):
            st = L.flow_graph(g, t_end, dt_out=dt_out).stats
            assert 0 < st["landing_steps"] <= st["steps"]

    def test_starting_step_on_rhos_time_scale(self, schw3m1, monkeypatch):
        # the first step splits the first output interval into equal steps
        # of at most start_step / _SAFETY
        g = p2_graph(schw3m1, 4.0, 0.3, 100)
        _, factored = record_attempts(monkeypatch, g.grid.dtheta)
        L.flow_graph(g, 3.0)
        frame = L.surfaces.graph_frame(g.rho, schw3m1, g.grid)
        h0 = factored[0] * frame.h**2 * frame.e * g.grid.dtheta**2 / L.flow._GAMMA
        reach = 0.1
        np.testing.assert_allclose(
            h0, reach / math.ceil(reach * L.flow._SAFETY / start_step(g)), rtol=1e-12)

    def test_stretched_landing(self):
        # an output within the controller's step over its safety factor is
        # reached in one step, not a step plus a sliver; stretched, not
        # shortened, that step is no landing step
        g = p2_graph(L.ManifoldSpec.schwarzschild(3, -1.0), 4.0, 0.3, 100)
        t_end = start_step(g) / 0.95
        st = L.flow_graph(g, t_end).stats
        assert st["steps"] == 1 and st["landing_steps"] == st["rejected"] == 0
        assert st["dt_min"] == st["dt_max"] == t_end

    @pytest.mark.parametrize("r0, amp", [(4.0, 0.9), (2.05, 0.02)], ids=str)
    def test_each_retry_is_strictly_shorter(self, schw3m1, r0, amp, monkeypatch):
        # m = 1 flows with 5 and 6 rejected attempts; every retry factors
        # its own W-matrix
        graph = p2_graph(schw3m1, r0, amp, 100)
        attempts, _ = record_attempts(monkeypatch, graph.grid.dtheta)
        tr = L.flow_graph(graph, 3.0)
        pairs = retries(attempts)
        assert len(pairs) == tr.stats["rejected"] > 0
        assert all(retry.w > rejected.w for rejected, retry in pairs)

    def test_rejected_landing_is_retried_shorter(self, monkeypatch):
        # an error norm just above 1 on a step stretched to land: stretched
        # again by 1 / _SAFETY, the retry would land with the same step, and
        # with the same error norm, forever
        g = p2_graph(L.ManifoldSpec.schwarzschild(3, -1.0), 4.0, 0.3, 100)
        t_end = start_step(g) / 0.95
        calls = []

        def sqrt(x):
            # two calls set the starting step; the third is the first error norm
            calls.append(x)
            return math.nextafter(1.0, 2.0) if len(calls) == 3 else math.sqrt(x)

        monkeypatch.setattr(L.flow, "math", SimpleNamespace(**{**vars(math), "sqrt": sqrt}))
        attempts, _ = record_attempts(monkeypatch, g.grid.dtheta)
        tr = L.flow_graph(g, t_end)
        assert tr.stats["rejected"] == len(retries(attempts)) == 1
        assert tr.times[-1] == t_end and tr.stats["steps"] == 2

    def test_non_finite_attempt_is_retried_at_a_fifth(self, monkeypatch):
        # the first attempt spans the whole first output interval; a state
        # that is not finite has an infinite error norm, the shortest ratio
        g = p2_graph(L.ManifoldSpec.schwarzschild(3, -1.0), 4.0, 0.3, 100)
        steps, real_rate = [], L.flow._rate

        def rate(rho, frame, t, gh, c):
            steps.append(gh / L.flow._GAMMA)
            return real_rate(rho, frame, t, gh, c) * (math.nan if len(steps) == 1 else 1.0)

        monkeypatch.setattr(L.flow, "_rate", rate)
        tr = L.flow_graph(g, 0.002, dt_out=0.001)
        st = tr.stats
        assert tr.status == "completed" and st["rejected"] == 1
        assert steps[0] == pytest.approx(0.001, rel=1e-14)
        assert steps[4] == pytest.approx(steps[0] / 5, rel=1e-14)
        assert st["rhs_evals"] == 1 + 4 * st["steps"] + 3 * st["rejected"]

    @pytest.mark.parametrize("mass", [-1.0, None])
    def test_gentle_flows_reject_no_attempt(self, mass):
        # the starting step on rho's time scale is short enough for the
        # fast initial decay of the non-round modes
        spec = L.ManifoldSpec.schwarzschild(3, 0.0 if mass is None else mass)
        tr = L.flow_graph(p2_graph(spec, 4.0, 0.3, 100), 3.0)
        assert tr.stats["rejected"] == 0

    def test_surfaces_share_one_read_only_grid(self, schw3m1):
        grid = L.GraphGrid.make(200)
        assert L.GraphGrid.make(200) is grid
        for a in (grid.theta, grid.sin_t, grid.cot_t, grid.simpson_w):
            assert not a.flags.writeable
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 200), 0.5)
        # each emitted slice skips the graph constructor's checks: it would
        # pass them, and its geometry is the one built through them, bit for bit
        for got in tr.geometries:
            want = L.graph_geometry(L.AxisymmetricGraph(grid.theta, got.radii, schw3m1))
            for name, a, b in zip(want._fields, got, want):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name

    def test_solver_margins(self, schw3m1):
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 0.5)
        st = tr.stats
        assert 0.0 < st["dt_min"] <= st["dt_max"] <= 0.1 + 1e-14
        # the margins cover every accepted state, the emitted ones included
        assert 0.0 < st["min_H"] <= min(np.min(g.mean_curvature) for g in tr.geometries)
        assert 0.0 < st["min_rho_margin"] == np.min(tr.geometries[0].radii) - schw3m1.r_min

    def test_each_state_frame_evaluated_once(self, schw3m1, monkeypatch):
        # the t = 0 frame feeds the mean-convexity test and the first slice
        calls = {"flow": 0, "surfaces": 0}
        for module, key in ((L.flow, "flow"), (L.surfaces, "surfaces")):
            def counted(*args, _real=module.graph_frame, _key=key):
                calls[_key] += 1
                return _real(*args)
            monkeypatch.setattr(module, "graph_frame", counted)
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 0.5)
        assert calls == {"flow": tr.stats["rhs_evals"], "surfaces": 0}

    def test_area_residual_converges_at_second_order(self, schw3m1):
        # pins the O(dtheta^2) scheme behind the default eps_mono; the time
        # error is held far below the grid error (rel_tol tightened with N),
        # so it can neither add to nor cancel the grid error
        res = [L.area_law_residual(L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, n), 3.0,
                                                rel_tol=1e-10))
               for n in (100, 200, 400)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(res, res[1:])]
        assert all(1.9 <= p <= 2.1 for p in orders), (res, orders)

    def test_time_error_proportional_to_rel_tol(self, schw3m1):
        # the error at t_end against a tight reference, at the default rel_tol
        g = p2_graph(schw3m1, 4.0, 0.3, 100)
        ref, tr = (L.flow_graph(g, 3.0, **tol) for tol in ({"rel_tol": 1e-12}, {}))
        rel_tol = 1e-7                  # flow_graph's default
        rho, rho_ref = tr.geometries[-1].radii, ref.geometries[-1].radii
        assert np.max(np.abs(rho / rho_ref - 1.0)) <= 3 * rel_tol
        assert abs(tr.geometries[-1].area / ref.geometries[-1].area - 1.0) <= 3 * rel_tol

    def test_round_graph_is_a_fixed_point(self, schw3m1):
        # in sigma = e^(-t/2) rho a round graph does not move, so the flow
        # takes one step per output interval, plus at most one more
        # (across held W-matrices too)
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 3.0)
        assert all(np.ptp(g.radii) == 0.0 for g in tr.geometries)
        assert tr.stats["factorizations"] < tr.stats["steps"]
        assert L.area_law_residual(tr) <= 1e-14
        assert tr.stats["steps"] <= len(tr.times)

    def test_comoving_steps(self, schw3m1):
        # the controller follows the decaying non-round modes only
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 200), 3.0)
        assert tr.stats["steps"] <= 110

    def test_domain_guard(self, schw3m1):
        with pytest.raises(DomainError, match="r_max"):
            L.flow_graph(L.AxisymmetricGraph.constant(800.0, schw3m1, 100), 2.0)

    def test_graph_just_outside_the_horizon_completes(self, schw3m1):
        # r_min = 2; only a state at or inside r_min halts with "horizon"
        g = L.AxisymmetricGraph.constant(2.000000001, schw3m1, 200)
        tr = L.flow_graph(g, 0.5)
        assert tr.status == "completed" and tr.halt_reason is None
        assert tr.times.tolist() == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert len(tr.geometries) == 6

    def test_loss_of_mean_convexity_halts(self, schw3m1, monkeypatch):
        # rho = 4 e^(t/2) passes rho_lim at t = 0.25, between two outputs
        rho_lim = 4.0 * math.exp(0.125)
        flipped = negative_h_beyond(monkeypatch, rho_lim)
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 1.0)
        assert tr.status == "halted" and tr.halt_reason == "H<=0"
        assert flipped and tr.stats["min_H"] < 0.0
        assert tr.times.tolist() == pytest.approx([0.0, 0.1, 0.2])
        assert len(tr.geometries) == 3
        assert all(g.mean_curvature.min() > 0 for g in tr.geometries)
        assert max(np.max(g.radii) for g in tr.geometries) < rho_lim

    def test_flow_then_measure_consistent_with_interpolation(self, schw3m1):
        # the area law makes log(area) linear in t, so the area of a direct
        # t = 0.05 output must match interpolating the coarser trace
        g = p2_graph(schw3m1, 4.0, 0.3, 100)
        fine = L.flow_graph(g, 0.1, dt_out=0.05)
        coarse = L.flow_graph(g, 0.1, dt_out=0.1)
        direct = fine.geometries[1].area
        interp = math.sqrt(coarse.geometries[0].area * coarse.geometries[1].area)
        assert abs(direct / interp - 1.0) < 1e-5


def w_matrix(s):
    """The dense W-matrix I - diag(s) dtheta^2 D2, reflecting rows included."""
    n = s.size
    m = np.diag(1.0 + 2.0 * s)
    m[np.arange(1, n - 1), np.arange(0, n - 2)] = -s[1:-1]
    m[np.arange(1, n - 1), np.arange(2, n)] = -s[1:-1]
    m[0, 1], m[-1, -2] = -2.0 * s[0], -2.0 * s[-1]
    return m


def oracle_s(kind, n_int, rng, spec):
    """W-matrix coefficients s of each kind the solver must handle."""
    if kind == "zero":
        return np.zeros(n_int + 1)
    if kind == "wide":
        s = 10.0 ** rng.uniform(-6.0, 6.0, n_int + 1)
        s[rng.choice(n_int + 1, 3, replace=False)] = 0.0
        s[[0, -1]] = 1e6, 0.0
        return s
    if kind == "positive":  # the flow's regime: prefix sums at N <= 200
        return 10.0 ** rng.uniform(-2.0, 3.0, n_int + 1)
    if kind == "tiny":      # every prefix product underflows; W is the identity
        return 10.0 ** rng.uniform(-300.0, -290.0, n_int + 1)
    if kind == "mixed":     # products underflow at every scale: doubling
        return 10.0 ** rng.uniform(-40.0, 1.0, n_int + 1)
    # the s of a real frame, built as flow_graph builds it for a step h
    graph = p2_graph(spec, 4.0, 0.3, n_int)
    frame = L.surfaces.graph_frame(graph.rho, spec, graph.grid)
    gh = L.flow._GAMMA * 0.05
    return (gh / graph.grid.dtheta**2) / (frame.h**2 * frame.e)


def forward_multipliers(s):
    """The forward sweep's multipliers f = s q of :func:`flow._w_solver`."""
    q, d_inv = np.empty_like(s), 0.0
    for i in range(s.size):
        couple = 0.0 if i == 0 else s[i] * s[i - 1] * (2.0 if i in (1, s.size - 1) else 1.0)
        q[i] = d_inv = 1.0 / (1.0 + 2.0 * s[i] - couple * d_inv)
    f = s * q
    f[-1] *= 2.0
    return f


class TestWSolver:
    @pytest.mark.parametrize("n_int", [8, 100, 200, 3200])
    @pytest.mark.parametrize("kind", ["wide", "zero", "positive", "frame", "tiny", "mixed"])
    def test_matches_dense_oracle(self, n_int, kind, schw3m1):
        rng = np.random.default_rng(n_int)
        s = oracle_s(kind, n_int, rng, schw3m1)
        b = rng.standard_normal(n_int + 1)
        b_in = b.copy()
        x = L.flow._w_solver(s)(b)
        oracle = np.linalg.solve(w_matrix(s), b)
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert np.array_equal(b, b_in)
        const = np.full(n_int + 1, 3.7)
        assert np.array_equal(L.flow._w_solver(s)(const), const)

    @pytest.mark.parametrize("kind, n_int", [("frame", 200), ("frame", 800), ("frame", 3200),
                                             ("wide", 3200), ("mixed", 3200)])
    def test_takes_prefix_sums_unless_a_product_underflows(self, kind, n_int, schw3m1,
                                                           monkeypatch):
        # a factorization takes one prefix product per sweep, of (1, f[1:])
        # forward; only where one falls below _FLOOR do the solves double
        rng = np.random.default_rng(7)
        s = oracle_s(kind, n_int, rng, schw3m1)
        scanned, doubled = [], []
        real_cumprod, real_doubling = np.cumprod, L.flow._doubling
        monkeypatch.setattr(np, "cumprod", lambda a: scanned.append(a.copy()) or real_cumprod(a))
        monkeypatch.setattr(L.flow, "_doubling", lambda m, z: doubled.append(z.size)
                            or real_doubling(m, z))
        solve = L.flow._w_solver(s)
        f = forward_multipliers(s)
        f[0] = 1.0
        assert len(scanned) == 2 and np.array_equal(scanned[0], f)
        b = rng.standard_normal(s.size)
        x = solve(b)
        assert doubled == ([] if kind == "frame" else [s.size] * 2)
        underflows = min(real_cumprod(a).min() for a in scanned) < L.flow._FLOOR
        assert underflows == (kind != "frame")
        oracle = np.linalg.solve(w_matrix(s), b)
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_transformed_coefficients_match_the_tableau(self):
        F = L.flow

        def lower(rows, diag=0.0):
            m = np.diag(np.full(4, diag))
            for i, row in enumerate(rows):
                m[i, :len(row)] = row
            return m

        g = lower(F._GAMMA_IJ, F._GAMMA)
        g_inv = np.linalg.inv(g)
        a_u, c_u = lower(F._A_U), lower(F._C_U)
        m_u, e_u = np.array(F._times_g_inv(F._B)), np.array(F._E_U)
        np.testing.assert_allclose(a_u @ g, lower(F._ALPHA), rtol=0, atol=1e-14)
        np.testing.assert_allclose(m_u @ g, F._B, rtol=0, atol=1e-14)
        np.testing.assert_allclose(e_u @ g, np.subtract(F._B, F._B_HAT), rtol=0, atol=1e-14)
        np.testing.assert_allclose(c_u, -F._GAMMA * np.tril(g_inv, -1), rtol=0, atol=1e-14)
        # stiffly accurate: the update y + sum M_U u is the last stage input plus u_4
        np.testing.assert_allclose(m_u - a_u[3], [0.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-14)
        # the stage matrix (y, u_1, ..., u_4): stage i + 1 reads its input
        # (a leading 1 for y) and its coupling off the rows before it
        assert len(F._STAGE_ROWS) == 3
        for i, rows in enumerate(F._STAGE_ROWS, 1):
            np.testing.assert_array_equal(rows, [[1.0, *a_u[i, :i]], [0.0, *c_u[i, :i]]])
        np.testing.assert_array_equal(F._E_ROW, [0.0, *e_u])


def p4(x):
    return (35.0 * x**4 - 30.0 * x**2 + 3.0) / 8.0


# (mass, 0 for flat space, initial rho(theta), t_end); the worst Q rise
# between outputs of each flow and its margin to the default eps_mono = 4e-6
# at N = 100 (measured, 2 vCPU x86-64, numpy 2.4):
GUARD_FLOWS = {
    # strictly decreasing: worst rise -1.66e-6, 5.7e-6 below eps_mono
    "m=-1 4+0.3P2": (-1.0, lambda th: 4.0 + 0.3 * (1.5 * np.cos(th) ** 2 - 0.5), 3.0),
    # worst rise 2.39e-8, 167x under eps_mono
    "m=1 4+0.3P4": (1.0, lambda th: 4.0 + 0.3 * p4(np.cos(th)), 3.0),
    # off-centre: worst rise 1.78e-7, 22x under eps_mono
    "m=1 4+0.3cos": (1.0, lambda th: 4.0 + 0.3 * np.cos(th), 3.0),
    # strictly decreasing: worst rise -3.44e-2
    "flat 2:1 spheroid": (0.0, spheroid_polar_radius, 0.5),
    # 0.04 outside the horizon r_min = 2: worst rise 1.69e-7, 23x under eps_mono
    "m=1 2.05+0.02P2": (1.0, lambda th: 2.05 + 0.02 * (1.5 * np.cos(th) ** 2 - 0.5), 3.0),
    # exactly constant Q: worst rise 1.76e-6, 2.3x under eps_mono
    "flat off-centre sphere p/R=0.25": (0.0, lambda th: offcentre_sphere_rho(th, 0.0, 1.0, 4.0), 3.0),
}


class TestDenseReferenceFlows:
    @pytest.mark.parametrize("name", GUARD_FLOWS)
    def test_flow_matches_a_dense_w_solve(self, name, monkeypatch):
        # a wrong but stable solve is just another W-method Jacobian, which the
        # error estimate cannot see; only a dense reference solve shows it
        mass, rho0, t_end = GUARD_FLOWS[name]
        spec = L.ManifoldSpec.schwarzschild(3, mass)
        graph = L.AxisymmetricGraph.from_function(rho0, spec, 100)
        f = L.sqrt_potential(spec)
        traces = [L.flow_graph(graph, t_end)]
        monkeypatch.setattr(L.flow, "_w_solver", lambda s: functools.partial(
            np.linalg.solve, w_matrix(s)))
        traces.append(L.flow_graph(graph, t_end))
        assert all(tr.status == "completed" for tr in traces)
        fast, dense = traces
        for key in ("steps", "rejected", "rhs_evals"):
            assert fast.stats[key] == dense.stats[key]
        quantities = [L.attach_quantities(tr, f, mass) for tr in traces]
        q_fast, q_dense = ([sq.q for sq in qs] for qs in quantities)
        np.testing.assert_allclose(q_fast, q_dense, rtol=1e-12, atol=0.0)
        verdict = L.monotonicity_verdict(fast, quantities[0], 4e-6)
        assert verdict.monotone, verdict.worst_increase


    def test_doubling_flow_matches_a_dense_w_solve(self, schw3m1, monkeypatch):
        # steps of 1e-5 make a prefix product of every factorization fall
        # below _FLOOR, so each solve of the flow runs both sweeps by doubling
        graph = p2_graph(schw3m1, 4.0, 0.3, 100)
        doubled = []

        def doubling(m, z, _real=L.flow._doubling):
            doubled.append(z.size)
            return _real(m, z)

        monkeypatch.setattr(L.flow, "_doubling", doubling)
        fast = L.flow_graph(graph, 1e-3, dt_out=1e-5)
        attempts = fast.stats["steps"] + fast.stats["rejected"]
        assert doubled == [graph.rho.size] * (2 * 4 * attempts)
        monkeypatch.setattr(L.flow, "_w_solver", lambda s: functools.partial(
            np.linalg.solve, w_matrix(s)))
        dense = L.flow_graph(graph, 1e-3, dt_out=1e-5)
        for key in ("steps", "rejected", "rhs_evals"):
            assert fast.stats[key] == dense.stats[key]
        f = L.sqrt_potential(schw3m1)
        q_fast, q_dense = ([sq.q for sq in L.attach_quantities(tr, f, 1.0)]
                           for tr in (fast, dense))
        np.testing.assert_allclose(q_fast, q_dense, rtol=1e-12, atol=0.0)


class TestOffCentreSphere:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_flow_converges_to_the_exact_solution(self, p):
        # flat IMCF moves the sphere of radius R about p e_z to radius
        # R e^(t/2) about the same centre: Q = 4 sqrt(pi) and both deficits
        # vanish exactly.  Max over the outputs (R = 4, t_end = 3; measured,
        # 2 vCPU x86-64, numpy 2.4): rho 3.0e-6, 6.9e-6, 2.6e-5 and Q
        # 5.3e-6, 1.1e-5, 2.5e-5 at N = 200 for p = 1, 2, 3, each divided by
        # 4.0 per halving of dtheta.  The umbilicity deficit is quadratic in
        # the O(dtheta^2) shape error, so it falls by about 16.
        spec, r0 = L.ManifoldSpec.schwarzschild(3, 0.0), 4.0
        f = L.sqrt_potential(spec)
        worst = []
        for n_int in (50, 100, 200):
            g = L.AxisymmetricGraph.from_function(
                lambda th: offcentre_sphere_rho(th, 0.0, p, r0), spec, n_int)
            tr = L.flow_graph(g, 3.0)
            assert tr.status == "completed"
            rho_err = max(np.max(np.abs(s.radii / offcentre_sphere_rho(g.theta, t, p, r0) - 1.0))
                          for t, s in zip(tr.times, tr.geometries))
            worst.append([rho_err] + [max(abs(x) for x in col) for col in zip(
                *((sq.q - 4.0 * math.sqrt(math.pi), sq.minkowski_deficit, s.umbilicity_deficit)
                  for s, sq in zip(tr.geometries, L.attach_quantities(tr, f, 0.0))))])
        rho_err, q_err, deficit, umbilicity = worst[-1]
        assert max(rho_err, q_err) <= 1e-5 * p**2
        ratios = np.array(worst[:-1]) / np.array(worst[1:])
        assert np.all((3.5 <= ratios[:, :3]) & (ratios[:, :3] <= 4.5)), ratios
        assert np.all((3.5**2 <= ratios[:, 3]) & (ratios[:, 3] <= 4.5**2)), ratios

    @pytest.mark.parametrize("n", range(4, 8))
    def test_flow_converges_in_every_dimension(self, n):
        # in R^n the sphere grows to radius R e^(t/(n-1)) about its centre
        # and Q stays at its flow limit.  Max over t <= 1 (R = 4, p = 2;
        # measured, 2 vCPU x86-64, numpy 2.4) at N = 100 for n = 4..7: rho
        # 1.8-2.0e-5 and Q 3.2-4.5e-5, each 3.9-4.1x below N = 50
        spec, r0 = L.ManifoldSpec.schwarzschild(n, 0.0), 4.0
        f = L.sqrt_potential(spec)
        worst = []
        for n_int in (50, 100):
            g = L.AxisymmetricGraph.from_function(
                lambda th: offcentre_sphere_rho(th, 0.0, 2.0, r0, n), spec, n_int)
            tr = L.flow_graph(g, 1.0)
            assert tr.status == "completed"
            worst.append([
                max(np.max(np.abs(s.radii / offcentre_sphere_rho(g.theta, t, 2.0, r0, n) - 1.0))
                    for t, s in zip(tr.times, tr.geometries)),
                max(abs(sq.q - L.limit_target(n)) for sq in L.attach_quantities(tr, f, 0.0))])
        assert worst[1][0] <= 2.5e-5 and worst[1][1] <= 5e-5, worst
        ratios = np.array(worst[0]) / np.array(worst[1])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


LAMBDA = 2.0  # a power of two scales every float exactly


def scaled_schwarzschild(n, m, lam):
    """The default Schwarzschild domain and mass after the homothety r -> lam r:
    the mass scales by lam^(n-2), both ends of the domain by lam."""
    return L.ManifoldSpec.schwarzschild(n, lam ** (n - 2) * m, r_max=lam * 1000.0,
                                        r_min_floor=lam * 0.1)


def scaled_graph_flows(n, mass, t_end):
    """The flows of 4 + 0.3 P2 in Schwarzschild(n, mass) and of its copy
    under r -> 2 r, checked to agree bit for bit; returns both traces, each
    with its quantities."""
    spec, big = L.ManifoldSpec.schwarzschild(n, mass), scaled_schwarzschild(n, mass, LAMBDA)
    tr, tr_big = (L.flow_graph(p2_graph(s, 4.0 * lam, 0.3 * lam, 100), t_end)
                  for s, lam in ((spec, 1.0), (big, LAMBDA)))
    assert np.array_equal(tr.times, tr_big.times)
    assert tr_big.stats == {**tr.stats, "min_H": tr.stats["min_H"] / LAMBDA,
                            "min_rho_margin": LAMBDA * tr.stats["min_rho_margin"]}
    for g, g_big in zip(tr.geometries, tr_big.geometries, strict=True):
        assert np.array_equal(g_big.radii, LAMBDA * g.radii)
        assert g_big.area == LAMBDA ** (n - 1) * g.area
        assert g_big.umbilicity_deficit == g.umbilicity_deficit / LAMBDA**2
    return [(t, L.attach_quantities(t, L.sqrt_potential(s), m))
            for t, s, m in ((tr, spec, mass), (tr_big, big, LAMBDA ** (n - 2) * mass))]


def reflected_graph_flows_agree(spec, n_int, t_end):
    """The flows of 4 + 0.3 P2 +- 0.1 cos(theta) take the same output times,
    and agree to 1e-11 in rho (reversed), area, (n = 3) Hawking mass, int f H
    and Q."""
    grid = L.GraphGrid.make(n_int)
    p2 = 1.5 * np.cos(grid.theta) ** 2 - 0.5
    f = L.sqrt_potential(spec)
    traces = [L.flow_graph(L.AxisymmetricGraph(
        grid.theta, 4.0 + 0.3 * p2 + sign * 0.1 * np.cos(grid.theta), spec), t_end)
        for sign in (1.0, -1.0)]
    tr, tr_ref = traces
    assert np.array_equal(tr.times, tr_ref.times)
    for g, g_ref in zip(tr.geometries, tr_ref.geometries, strict=True):
        np.testing.assert_allclose(g_ref.radii, g.radii[::-1], rtol=1e-11, atol=0.0)
        assert g_ref.area == pytest.approx(g.area, rel=1e-11)
        if spec.n == 3:
            assert g_ref.hawking_mass == pytest.approx(g.hawking_mass, rel=1e-11)
        else:
            assert g.hawking_mass is g_ref.hawking_mass is None
    for sq, sq_ref in zip(*(L.attach_quantities(t, f, 1.0) for t in traces)):
        for field in ("weighted_total_h", "q"):
            assert getattr(sq_ref, field) == pytest.approx(getattr(sq, field), rel=1e-11)


class TestSymmetries:
    """IMCF commutes with homotheties and with the reflection theta -> pi - theta.

    Under r -> 2 r (m -> 2^(n-2) m) every formula of the lab is homogeneous
    and scaling by 2 is exact, so the flows agree bit for bit: the times
    are identical, the radii double, and each other number scales by its
    power of 2.  At n = 3 so does Q.  At n >= 4, Q and the deficit carry
    area^(-(n-2)/(n-1)), a power that libm rounds within an ulp but not
    always homogeneously, so they agree to rounding.
    A reflection reverses the grid, so sums run in another order and agree
    to rounding.
    """

    @pytest.mark.parametrize("mass", [-1.0, 0.5, 1.0])
    def test_graph_flow_scales_exactly(self, mass):
        (tr, qs), (tr_big, qs_big) = scaled_graph_flows(3, mass, 3.0)
        for g, g_big in zip(tr.geometries, tr_big.geometries, strict=True):
            assert g_big.hawking_mass == LAMBDA * g.hawking_mass
        for sq, sq_big in zip(qs, qs_big, strict=True):
            assert sq_big.q == sq.q
            assert sq_big.minkowski_deficit == LAMBDA * sq.minkowski_deficit

    @pytest.mark.parametrize("n", range(4, 8))
    @pytest.mark.parametrize("mass", [-1.0, 0.5, 1.0])
    def test_graph_flow_scales_in_every_dimension(self, n, mass):
        # measured (2 vCPU x86-64, numpy 2.4): Q within 3.3e-16 of its
        # scaled twin; the deficit, (area/omega)^((n-2)/(n-1)) (Q/Q_inf - 1),
        # loses 1/delta ~ 1e3 of that to the cancellation, 1.03e-12 at most
        (tr, qs), (tr_big, qs_big) = scaled_graph_flows(n, mass, 1.0)
        assert all(g.hawking_mass is None for g in tr_big.geometries)
        for sq, sq_big in zip(qs, qs_big, strict=True):
            assert sq_big.q == pytest.approx(sq.q, rel=1e-15, abs=0)
            assert sq_big.minkowski_deficit == pytest.approx(
                LAMBDA ** (n - 2) * sq.minkowski_deficit, rel=4e-12, abs=0)

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("mass", [-1.0, 0.5, 1.0])
    def test_sphere_flow_scales_exactly(self, n, mass):
        spec, big = L.ManifoldSpec.schwarzschild(n, mass), scaled_schwarzschild(n, mass, LAMBDA)
        traces = [L.flow_sphere(L.CoordinateSphere(r0, s), 3.0)
                  for s, r0 in ((spec, 4.0), (big, 4.0 * LAMBDA))]
        quantities = [L.attach_quantities(tr, L.sqrt_potential(s), m)
                      for tr, s, m in zip(traces, (spec, big),
                                          (mass, LAMBDA ** (n - 2) * mass))]
        for g, g_big in zip(*(tr.geometries for tr in traces), strict=True):
            assert g_big.area == LAMBDA ** (n - 1) * g.area
        for sq, sq_big in zip(*quantities, strict=True):
            assert sq_big.q == sq.q
            assert sq_big.minkowski_deficit == LAMBDA ** (n - 2) * sq.minkowski_deficit

    def test_reflected_graph_flow_agrees(self, schw3m1):
        # measured (2 vCPU x86-64, numpy 2.4): the two flows take the same
        # steps and agree to 8e-14 in rho and 5e-14 in Q
        reflected_graph_flows_agree(schw3m1, 200, 3.0)

    @pytest.mark.parametrize("n", range(4, 8))
    def test_reflected_graph_flow_agrees_in_every_dimension(self, n):
        # measured (2 vCPU x86-64, numpy 2.4, N = 100, t <= 3): the same
        # steps, and agreement to 4e-13 in rho and 1.3e-15 in area
        reflected_graph_flows_agree(L.ManifoldSpec.schwarzschild(n, 1.0), 100, 1.0)


def p2_decay_error(mass, eps, n_int, r0=4.0, t_end=3.0):
    """a2(t) / (a2(0) legendre_mode_decay(t)) - 1 at each output of the flow
    of r0 (1 + eps P2(cos theta)) at rel_tol = 1e-10, with a2 the Simpson
    projection of rho / (r0 e^(t/2)) - 1 onto P2."""
    graph = p2_graph(L.ManifoldSpec.schwarzschild(3, mass), r0, r0 * eps, n_int)
    tr = L.flow_graph(graph, t_end, rel_tol=1e-10)
    theta = graph.theta
    p2 = 1.5 * np.cos(theta) ** 2 - 0.5
    a2 = np.array([2.5 * simpson((s.radii / (r0 * math.exp(0.5 * t)) - 1.0) * p2 * np.sin(theta),
                                 x=theta) for t, s in zip(tr.times, tr.geometries)])
    return a2 / (a2[0] * legendre_mode_decay(tr.times, 2, mass, r0)) - 1.0


class TestModeDecay:
    @pytest.mark.parametrize("mass", [-1.0, 0.0, 1.0])
    def test_p2_mode_decays_at_the_linearised_rate(self, mass):
        # err(eps) is O(eps) from the linearisation plus the grid error;
        # 2 err(eps/2) - err(eps) cancels the O(eps) part.  Its max over
        # t <= 3 (R0 = 4, m in {-1, 0, 1}; measured, 2 vCPU x86-64, numpy
        # 2.4) is 1.6-2.7e-3, 3.9-6.1e-4 and 0.94-1.17e-4 at N = 100, 200,
        # 400, so each halving of dtheta divides it by 4.0-5.2.  The l = 4
        # mode is left out: it decays to ~1e-9 of its start by t = 3, and
        # its error does not converge with N.
        worst = []
        for n_int in (100, 200, 400):
            err, err_half = (p2_decay_error(mass, eps, n_int) for eps in (1e-3, 5e-4))
            worst.append(np.max(np.abs(2.0 * err_half - err)))
        ratios = [coarse / fine for coarse, fine in zip(worst, worst[1:])]
        assert worst[-1] <= 2e-4, worst
        assert all(3.5 <= r <= 6.0 for r in ratios), (worst, ratios)


class TestEveryDimension:
    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("mass", [-1.0, 1.0])
    def test_constant_graph_is_the_closed_form_sphere(self, n, mass):
        # a round graph stays exactly round, on the sphere law to rounding;
        # measured (2 vCPU x86-64, numpy 2.4, N = 200): radii within 2.2e-16,
        # Q within 7.8e-9 of the closed form
        spec = L.ManifoldSpec.schwarzschild(n, mass)
        f = L.sqrt_potential(spec)
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, spec, 200), 3.0)
        tr_s = L.flow_sphere(L.CoordinateSphere(4.0, spec), 3.0)
        assert tr.status == "completed" and np.array_equal(tr.times, tr_s.times)
        for g, s in zip(tr.geometries, tr_s.geometries, strict=True):
            assert g.radii.min() == g.radii.max()
            assert g.radii[0] == pytest.approx(s.radii[0], rel=4.5e-16, abs=0)
        for sq, sq_s in zip(*(L.attach_quantities(t, f, mass) for t in (tr, tr_s)), strict=True):
            assert abs(sq.q - sq_s.q) <= 2e-8


class TestOutputTimes:
    def test_partial_final_interval(self, flat3):
        tr = L.flow_sphere(L.CoordinateSphere(1.0, flat3), 0.25)
        np.testing.assert_allclose(tr.times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)

    def test_exact_multiple(self, flat3):
        tr = L.flow_sphere(L.CoordinateSphere(1.0, flat3), 0.3)
        assert len(tr.times) == 4
        assert tr.times[-1] == 0.3

    def test_t_end_below_snap_tolerance_keeps_t_zero(self, schw3m1):
        tr = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 1e-12)
        assert tr.times.tolist() == [0.0, 1e-12]
        assert tr.geometries[0].radii[0] == 4.0

    def test_graph_trace_metadata(self, schw3m1):
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 0.2)
        assert tr.status == "completed"
        assert tr.halt_reason is None
        assert tr.stats["steps"] > 0
        sphere = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 0.2)
        assert sphere.stats == {"steps": 0, "rejected": 0, "rhs_evals": 0,
                                "factorizations": 0}
        assert len(tr.geometries) == len(tr.times)


class TestValidation:
    @pytest.mark.parametrize("key, value", [
        ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", math.nan),
        ("dt_out", 0.0), ("dt_out", math.inf)])
    def test_solver_params_reject_non_positive(self, schw3m1, key, value):
        with pytest.raises(ValueError, match=key):
            L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 1.0,
                         **{key: value})

    def test_size_caps(self, schw3m1):
        assert L.GraphGrid.make(3200).theta.size == 3201
        with pytest.raises(ValueError, match="from 8 to 10000"):
            L.GraphGrid.make(L.GraphGrid.MAX_INTERVALS + 2)
        with pytest.raises(ValueError, match="more than 10000 slices"):
            L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 3.0, dt_out=1e-12)
        with pytest.raises(DomainError, match="r_max"):
            L.require_reach(schw3m1, 4.0, 1e200)

    def test_reach_is_the_strict_domain_rule(self, schw3m1):
        # the flow reaches 4 e^1.5 = 17.92675628..., 2.4e-10 relative
        # beyond r_max: every flow rejects it up front, not mid-run
        spec = L.ManifoldSpec.schwarzschild(3, 1.0, r_max=17.92675628)
        with pytest.raises(DomainError, match="r_max"):
            L.require_reach(spec, 4.0, 3.0)
        with pytest.raises(DomainError, match="r_max"):
            L.flow_sphere(L.CoordinateSphere(4.0, spec), 3.0)
        with pytest.raises(DomainError, match="r_max"):
            L.flow_graph(L.AxisymmetricGraph.constant(4.0, spec, 100), 3.0)
        with pytest.raises(ValueError, match="t_end"):
            L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 0.0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_reach_is_returned_and_its_edge_is_inside(self, n):
        # the reach 4 e^(t/(n-1)) against 30 digits (t = 0.75: any positive
        # t_end is allowed); a domain ending exactly at the reach admits it
        spec = L.ManifoldSpec.schwarzschild(n, 1.0)
        with mpmath.workdps(30):
            exact = float(4 * mpmath.exp(mpmath.mpf("0.75") / (n - 1)))
        reach = L.require_reach(spec, 4.0, 0.75)
        assert reach == pytest.approx(exact, rel=1e-15)
        edge = L.ManifoldSpec.schwarzschild(n, 1.0, r_max=reach)
        assert L.require_reach(edge, 4.0, 0.75) == reach
        with pytest.raises(ValueError, match="t_end"):
            L.require_reach(spec, 4.0, 0.0)
        # a growth of 709 is still formed, one past math.exp's range is
        # refused as beyond r_max
        wide = L.ManifoldSpec.schwarzschild(n, 0.0, r_max=1e8, r_min_floor=0.0)
        assert L.require_reach(wide, 1e-300, 709.0 * (n - 1)) == pytest.approx(
            1e-300 * float(mpmath.exp(709)), rel=1e-14)
        with pytest.raises(DomainError, match="r_max"):
            L.require_reach(spec, 4.0, 800.0 * (n - 1))
