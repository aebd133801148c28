import functools
import math

import numpy as np
import pytest

import imcflab as L
from imcflab.errors import DomainError, MeanConvexityError, SolverFailureError

from conftest import negative_h_beyond, p2_graph
from oracles import spheroid_polar_radius


class TestSphereFlow:
    def test_exact_radius_law(self, schw3m1):
        tr = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 2.0)
        assert tr.surfaces[-1].radius == pytest.approx(4 * math.e, rel=1e-15)
        assert tr.surfaces[0].radius == 4.0
        assert tr.status == "completed"

    def test_identity_at_t_zero(self, flat3):
        tr = L.flow_sphere(L.CoordinateSphere(2.5, flat3), 0.3)
        assert tr.times[0] == 0.0
        assert tr.surfaces[0].radius == 2.5

    def test_higher_dimension_area_ratio(self):
        spec = L.ManifoldSpec.schwarzschild(5, 0.0, r_min_floor=0.05)
        tr = L.flow_sphere(L.CoordinateSphere(1.0, spec), 4.0)
        assert tr.surfaces[-1].radius == pytest.approx(math.e, rel=1e-14)
        ratio = tr.geometries[-1].area / tr.geometries[0].area
        assert ratio == pytest.approx(math.exp(4.0), rel=1e-12)

    def test_area_law_exact_to_roundoff(self, schw3m1):
        tr = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 3.0)
        assert L.area_law_residual(tr) < 1e-13

    def test_domain_guard(self, schw3m1):
        with pytest.raises(DomainError, match="r_max"):
            L.flow_sphere(L.CoordinateSphere(900.0, schw3m1), 3.0)


class TestGraphFlow:
    def test_constant_graph_tracks_exact_sphere_law(self, schw3m1):
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 2.0)
        rho_end = tr.surfaces[-1].rho
        assert np.max(np.abs(rho_end / (4 * math.e) - 1.0)) < 1e-6
        assert np.max(rho_end) - np.min(rho_end) == 0.0  # stays exactly uniform

    def test_flat_constant_graph(self, flat3):
        tr = L.flow_graph(L.AxisymmetricGraph.constant(1.0, flat3, 100), 1.0)
        assert np.max(np.abs(tr.surfaces[-1].rho / math.exp(0.5) - 1.0)) < 1e-6

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
        amp = [(np.max(s.rho) - np.min(s.rho)) / np.mean(s.rho)
               for s in tr.surfaces]
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
            L.attach_quantities(tr, f, 1.0)
            q_end.append(tr.quantities[-1].q)
        default, tight = q_end
        assert abs(default - tight) <= 1e-10

    def test_solver_counters(self, schw3m1):
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 0.5)
        st = tr.stats
        attempts = st["steps"] + st["rejected"]
        # one factorization per attempt; three new stages per attempt, one
        # more right-hand side per accepted step and one at the start
        assert st["factorizations"] == attempts
        assert st["rhs_evals"] == 1 + 3 * attempts + st["steps"]

    def test_landing_steps(self, schw3m1):
        # accepted steps shortened to land on an output: at most one per output
        g = p2_graph(schw3m1, 4.0, 0.3, 100)
        assert L.flow_graph(g, 0.1).stats["landing_steps"] == 1
        for t_end, dt_out in ((1.0, 0.05), (0.01, 0.001)):
            tr = L.flow_graph(g, t_end, dt_out=dt_out)
            assert 0 < tr.stats["landing_steps"] <= len(tr.times) - 1
        assert tr.stats["landing_steps"] == tr.stats["steps"] == 10

    def test_surfaces_share_one_read_only_grid(self, schw3m1):
        grid = L.GraphGrid.make(200)
        assert L.GraphGrid.make(200) is grid
        for a in (grid.theta, grid.sin_t, grid.cot_t, grid.simpson_w):
            assert not a.flags.writeable
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 200), 0.5)
        assert all(s.grid is grid for s in tr.surfaces)

    def test_solver_margins(self, schw3m1):
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 0.5)
        st = tr.stats
        assert 0.0 < st["dt_min"] <= st["dt_max"] <= 0.1 + 1e-14
        # the margins cover every accepted state, the emitted ones included
        assert 0.0 < st["min_H"] <= min(np.min(g.mean_curvature) for g in tr.geometries)
        assert 0.0 < st["min_rho_margin"] == np.min(tr.surfaces[0].rho) - schw3m1.r_min

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
        # pins the O(dtheta^2) scheme behind the default eps_mono
        res = [L.area_law_residual(L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, n), 3.0))
               for n in (100, 200, 400)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(res, res[1:])]
        assert all(1.8 <= p <= 2.3 for p in orders), (res, orders)

    def test_domain_guard(self, schw3m1):
        with pytest.raises(DomainError, match="r_max"):
            L.flow_graph(L.AxisymmetricGraph.constant(800.0, schw3m1, 100), 2.0)

    def test_graph_just_outside_the_horizon_completes(self, schw3m1):
        # r_min = 2; only a state at or inside r_min halts with "horizon"
        g = L.AxisymmetricGraph.constant(2.000000001, schw3m1, 200)
        tr = L.flow_graph(g, 0.5)
        assert tr.status == "completed" and tr.halt_reason is None
        assert tr.times.tolist() == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert len(tr.surfaces) == len(tr.geometries) == 6

    def test_loss_of_mean_convexity_halts(self, schw3m1, monkeypatch):
        # rho = 4 e^(t/2) passes rho_lim at t = 0.25, between two outputs
        rho_lim = 4.0 * math.exp(0.125)
        flipped = negative_h_beyond(monkeypatch, rho_lim)
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 1.0)
        assert tr.status == "halted" and tr.halt_reason == "H<=0"
        assert flipped and tr.stats["min_H"] < 0.0
        assert tr.times.tolist() == pytest.approx([0.0, 0.1, 0.2])
        assert len(tr.surfaces) == len(tr.geometries) == 3
        assert all(g.mean_convex for g in tr.geometries)
        assert max(np.max(s.rho) for s in tr.surfaces) < rho_lim

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
    if kind == "positive":  # the flow's regime: one run at N <= 200
        return 10.0 ** rng.uniform(-2.0, 3.0, n_int + 1)
    if kind == "tiny":      # every prefix product underflows: one run per node
        return 10.0 ** rng.uniform(-300.0, -290.0, n_int + 1)
    # the s of a real frame, built as flow_graph builds it for a step h
    graph = p2_graph(spec, 4.0, 0.3, n_int)
    frame = L.surfaces.graph_frame(graph.rho, spec, graph.grid)
    gh = L.flow._GAMMA * 0.05
    return (gh / graph.grid.dtheta**2) / (frame.h**2 * frame.e)


class TestWSolver:
    @pytest.mark.parametrize("n_int", [8, 100, 200, 3200])
    @pytest.mark.parametrize("kind", ["wide", "zero", "positive", "frame", "tiny"])
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


def p4(x):
    return (35.0 * x**4 - 30.0 * x**2 + 3.0) / 8.0


# (mass or None for flat space, initial rho(theta), t_end); the worst Q rise
# between outputs of each flow and its margin to the default eps_mono = 4e-6
# at N = 100 (measured, 2 vCPU x86-64, numpy 2.4):
GUARD_FLOWS = {
    # strictly decreasing: worst rise -1.7e-6, 5.7e-6 below eps_mono
    "m=-1 4+0.3P2": (-1.0, lambda th: 4.0 + 0.3 * (1.5 * np.cos(th) ** 2 - 0.5), 3.0),
    # worst rise 2.4e-8, 170x under eps_mono
    "m=1 4+0.3P4": (1.0, lambda th: 4.0 + 0.3 * p4(np.cos(th)), 3.0),
    # off-centre: worst rise 1.8e-7, 22x under eps_mono
    "m=1 4+0.3cos": (1.0, lambda th: 4.0 + 0.3 * np.cos(th), 3.0),
    # strictly decreasing: worst rise -3.4e-2
    "flat 2:1 spheroid": (None, spheroid_polar_radius, 0.5),
}


class TestDenseReferenceFlows:
    @pytest.mark.parametrize("name", GUARD_FLOWS)
    def test_flow_matches_a_dense_w_solve(self, name, monkeypatch):
        # a wrong but stable solve is just another W-method Jacobian, which the
        # error estimate cannot see; only a dense reference solve shows it
        mass, rho0, t_end = GUARD_FLOWS[name]
        if mass is None:
            spec, mass = L.ManifoldSpec.flat(3), 0.0
        else:
            spec = L.ManifoldSpec.schwarzschild(3, mass)
        graph = L.AxisymmetricGraph.from_function(rho0, spec, 100)
        f = L.sqrt_potential(spec)
        traces = [L.flow_graph(graph, t_end)]
        monkeypatch.setattr(L.flow, "_w_solver", lambda s: functools.partial(
            np.linalg.solve, w_matrix(s)))
        traces.append(L.flow_graph(graph, t_end))
        for tr in traces:
            assert tr.status == "completed"
            L.attach_quantities(tr, f, mass)
        fast, dense = traces
        for key in ("steps", "rejected", "rhs_evals"):
            assert fast.stats[key] == dense.stats[key]
        q_fast, q_dense = ([sq.q for sq in tr.quantities] for tr in traces)
        np.testing.assert_allclose(q_fast, q_dense, rtol=1e-12, atol=0.0)
        verdict = L.monotonicity_verdict(fast, f, mass, 4e-6)
        assert verdict.monotone, verdict.worst_increase


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
        assert tr.surfaces[0].radius == 4.0

    def test_graph_trace_metadata(self, schw3m1):
        tr = L.flow_graph(L.AxisymmetricGraph.constant(4.0, schw3m1, 100), 0.2)
        assert tr.status == "completed"
        assert tr.halt_reason is None
        assert tr.stats["steps"] > 0
        sphere = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 0.2)
        assert sphere.stats == {"steps": 0, "rejected": 0, "rhs_evals": 0,
                                "factorizations": 0}
        assert len(tr.surfaces) == len(tr.geometries) == len(tr.times)


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
