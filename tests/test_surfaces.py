import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imcflab as L
from imcflab.errors import DomainError, InsideHorizonError, UnsupportedDimensionError

from oracles import (spheroid_area_closed, spheroid_h_at_theta,
                     spheroid_polar_radius)

FOUR_PI = 4 * math.pi


def spheroid_graph(flat3, n_intervals):
    return L.AxisymmetricGraph.from_function(spheroid_polar_radius, flat3,
                                             n_intervals)


class TestSphereGeometry:
    def test_flat_unit_sphere(self, flat3):
        g = L.sphere_geometry(L.CoordinateSphere(1.0, flat3))
        assert g.mean_curvature[0] == pytest.approx(2.0, rel=1e-15)
        assert g.area == pytest.approx(FOUR_PI, rel=1e-15)

    def test_schwarzschild_sphere(self, schw3m1):
        g = L.sphere_geometry(L.CoordinateSphere(4.0, schw3m1))
        assert g.mean_curvature[0] == pytest.approx(2 * math.sqrt(0.5) / 4, rel=1e-15)
        assert g.area == pytest.approx(64 * math.pi, rel=1e-15)
        assert g.second_form_norm_sq[0] == pytest.approx(2 * 0.5 / 16, rel=1e-14)
        assert g.mean_convex

    def test_higher_dimension(self):
        spec = L.ManifoldSpec.schwarzschild(5, 0.5)
        g = L.sphere_geometry(L.CoordinateSphere(2.0, spec))
        assert g.mean_curvature[0] == pytest.approx(1.8708286933869707, rel=1e-14)

    def test_inside_horizon_rejected(self, schw3m1):
        with pytest.raises(InsideHorizonError):
            L.CoordinateSphere(1.5, schw3m1)

    def test_beyond_domain_rejected(self, schw3m1):
        with pytest.raises(DomainError):
            L.CoordinateSphere(1.0e6, schw3m1)


class TestGraphGeometry:
    def test_constant_graph_reduces_to_sphere(self, schw3m1):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(4.0, schw3m1, 200))
        s = L.sphere_geometry(L.CoordinateSphere(4.0, schw3m1))
        assert np.max(np.abs(g.mean_curvature - s.mean_curvature[0])) < 1e-6
        assert np.max(np.abs(g.second_form_norm_sq
                             - s.second_form_norm_sq[0])) < 1e-6
        assert abs(g.area / s.area - 1.0) < 1e-6

    def test_flat_unit_sphere_graph(self, flat3):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(1.0, flat3, 200))
        assert np.max(np.abs(g.mean_curvature - 2.0)) < 1e-6
        assert abs(g.area - FOUR_PI) < 1e-8

    def test_spheroid_area_matches_closed_form(self, flat3):
        g = L.graph_geometry(spheroid_graph(flat3, 400))
        assert abs(g.area / spheroid_area_closed() - 1.0) < 1e-6

    def test_spheroid_mean_curvature_matches_oracle(self, flat3):
        g = L.graph_geometry(spheroid_graph(flat3, 400))
        assert np.max(np.abs(g.mean_curvature
                             - spheroid_h_at_theta(g.theta))) < 2e-3

    def test_mean_curvature_convergence_order(self, flat3):
        errs = []
        for n_int in (100, 200, 400):
            g = L.graph_geometry(spheroid_graph(flat3, n_int))
            errs.append(np.max(np.abs(g.mean_curvature
                                      - spheroid_h_at_theta(g.theta))))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9

    def test_graph_below_horizon_rejected(self, schw3m1):
        theta = np.linspace(0.0, np.pi, 201)
        with pytest.raises(InsideHorizonError):
            L.AxisymmetricGraph(theta, 2.5 + 0.6 * np.cos(2 * theta), schw3m1)

    def test_nan_graph_rejected(self, flat3):
        # a NaN radius passes neither side of the domain rule
        theta = np.linspace(0.0, np.pi, 21)
        with pytest.raises(DomainError, match="r_max"):
            L.AxisymmetricGraph(theta, np.full(21, np.nan), flat3)

    def test_mean_convexity_loss_is_flagged_not_fatal(self, flat3):
        theta = np.linspace(0.0, np.pi, 201)
        rho = 1.0 + 0.7 * (1.5 * np.cos(theta) ** 2 - 0.5)
        g = L.graph_geometry(L.AxisymmetricGraph(theta, rho, flat3))
        assert not g.mean_convex
        assert np.min(g.mean_curvature) < 0.0

    def test_graphs_need_dimension_three(self):
        spec = L.ManifoldSpec.schwarzschild(4, 1.0)
        with pytest.raises(UnsupportedDimensionError):
            L.AxisymmetricGraph.constant(4.0, spec, 100)

    def test_pole_regularity_enforced(self, flat3):
        theta = np.linspace(0.0, np.pi, 201)
        with pytest.raises(ValueError, match="pole regularity"):
            L.AxisymmetricGraph(theta, 1.0 + 0.1 * np.sin(theta), flat3)

    def test_grid_validation(self, flat3):
        with pytest.raises(ValueError, match="even"):
            L.AxisymmetricGraph(np.linspace(0, np.pi, 202),
                                np.full(202, 1.0), flat3)
        with pytest.raises(ValueError, match="uniform"):
            L.AxisymmetricGraph(np.linspace(0, 3.0, 201),
                                np.full(201, 1.0), flat3)


class TestSurfaceIntegral:
    def test_constant_integrand_gives_area(self, flat3):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(1.0, flat3, 200))
        assert L.surface_integral(g, np.ones(201)) == pytest.approx(g.area, rel=1e-15)
        s = L.sphere_geometry(L.CoordinateSphere(1.0, flat3))
        assert L.surface_integral(s, 1.0) == pytest.approx(s.area, rel=1e-15)

    def test_mean_curvature_on_unit_sphere(self, flat3):
        s = L.sphere_geometry(L.CoordinateSphere(1.0, flat3))
        assert L.surface_integral(s, s.mean_curvature[0]) == pytest.approx(
            8 * math.pi, rel=1e-14)

    def test_weighted_closed_form_on_schwarzschild(self, schw3m1):
        # f H = 2V/r on spheres, so the integral is 0.25 * 64 pi at r = 4
        s = L.sphere_geometry(L.CoordinateSphere(4.0, schw3m1))
        val = L.surface_integral(s, 2 * 0.5 / 4 * math.sqrt(0.5) * math.sqrt(2.0))
        assert val == pytest.approx(16 * math.pi, rel=1e-12)

    def test_low_degree_integrands_near_exact(self, flat3):
        # composite Simpson floor at N=200 is ~4e-8 worst case (h^4/180 rule)
        g = L.graph_geometry(L.AxisymmetricGraph.constant(1.0, flat3, 200))
        th = g.theta
        assert abs(L.surface_integral(g, np.ones_like(th)) - FOUR_PI) < 1e-8
        assert abs(L.surface_integral(g, np.cos(th))) < 1e-12
        assert abs(L.surface_integral(g, 1.5 * np.cos(th) ** 2 - 0.5)) < 1e-7

    def test_shape_mismatch_rejected(self, flat3):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(1.0, flat3, 200))
        with pytest.raises(ValueError, match="shape"):
            L.surface_integral(g, np.ones(100))
        s = L.sphere_geometry(L.CoordinateSphere(1.0, flat3))
        with pytest.raises(ValueError, match="single value"):
            L.surface_integral(s, np.ones(5))


class TestUmbilicity:
    def test_spheres_exactly_umbilic(self, schw3m1):
        s = L.sphere_geometry(L.CoordinateSphere(7.0, schw3m1))
        assert L.umbilicity_deficit(s) == 0.0

    def test_constant_graph_umbilic(self, schw3m1):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(4.0, schw3m1, 200))
        assert L.umbilicity_deficit(g) < 1e-8

    def test_spheroid_strictly_non_umbilic(self, flat3):
        # max of (k1 - k2)^2 over the spheroid is 16/27, at sin^2 u = 2/3
        g = L.graph_geometry(spheroid_graph(flat3, 400))
        assert L.umbilicity_deficit(g) == pytest.approx(16.0 / 27.0, abs=1e-3)
        assert L.umbilicity_deficit(g) > 0.5


class TestCauchySchwarz:
    @settings(max_examples=30, deadline=None)
    @given(c0=st.floats(1.0, 3.0),
           amps=st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=4))
    def test_pointwise_gap_nonnegative(self, c0, amps):
        flat = L.ManifoldSpec.flat(3)
        theta = np.linspace(0.0, np.pi, 128 + 1)
        rho = np.full_like(theta, c0)
        for k, a in enumerate(amps, start=1):
            rho = rho + a * np.cos(k * theta)
        g = L.graph_geometry(L.AxisymmetricGraph(theta, rho, flat))
        gap = 2 * g.second_form_norm_sq - g.mean_curvature**2
        assert np.min(gap) >= -1e-8
        assert g.area > 0.0


class TestSerialization:
    def test_round_trip(self, tmp_path, schw3m1):
        g = L.AxisymmetricGraph.from_function(
            lambda th: 4 + 0.3 * (1.5 * np.cos(th) ** 2 - 0.5), schw3m1, 64)
        path = tmp_path / "slice.txt"
        L.save_graph(path, g)
        g2 = L.load_graph(path, schw3m1)
        np.testing.assert_array_equal(g.rho, g2.rho)
        np.testing.assert_array_equal(g.theta, g2.theta)

    def test_bad_file_rejected(self, tmp_path, schw3m1):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="two numeric columns"):
            L.load_graph(path, schw3m1)
