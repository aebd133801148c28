import math

import numpy as np
import pytest

import imcflab as L
from imcflab.errors import DomainError, MeanConvexityError, SolverFailureError

from conftest import p2_graph


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

    def test_step_budget_failure_has_diagnostics(self, schw3m1):
        params = L.SolverParams(max_steps=10)
        with pytest.raises(SolverFailureError) as exc:
            L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, 100), 1.0, params)
        assert "steps" in exc.value.diagnostics

    def test_domain_guard(self, schw3m1):
        with pytest.raises(DomainError, match="r_max"):
            L.flow_graph(L.AxisymmetricGraph.constant(800.0, schw3m1, 100), 2.0)

    def test_flow_then_measure_consistent_with_interpolation(self, schw3m1):
        # the area law makes log(area) linear in t, so the area of a direct
        # t = 0.05 output must match interpolating the coarser trace
        g = p2_graph(schw3m1, 4.0, 0.3, 100)
        fine = L.flow_graph(g, 0.1, L.SolverParams(dt_out=0.05))
        coarse = L.flow_graph(g, 0.1, L.SolverParams(dt_out=0.1))
        direct = fine.geometries[1].area
        interp = math.sqrt(coarse.geometries[0].area * coarse.geometries[1].area)
        assert abs(direct / interp - 1.0) < 1e-5


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
        assert len(tr.surfaces) == len(tr.geometries) == len(tr.times)


class TestValidation:
    @pytest.mark.parametrize("key, value", [
        ("rel_tol", 0.0), ("rel_tol", -1.0), ("abs_tol", math.nan),
        ("dt_out", 0.0), ("dt_out", math.inf), ("cfl_safety", -1.0),
        ("max_steps", 0)])
    def test_solver_params_reject_non_positive(self, key, value):
        with pytest.raises(ValueError, match=key):
            L.SolverParams(**{key: value})

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
