import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imcflab as L
from imcflab.errors import DomainError, InsideHorizonError

from oracles import (offcentre_sphere_rho, spheroid_area_closed, spheroid_h_at_theta,
                     spheroid_integrals, spheroid_polar_radius, unit_sphere_area)

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
        assert g.mean_curvature.min() > 0

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
        graph = spheroid_graph(flat3, 400)
        g = L.graph_geometry(graph)
        assert np.max(np.abs(g.mean_curvature
                             - spheroid_h_at_theta(graph.theta))) < 2e-3

    def test_mean_curvature_convergence_order(self, flat3):
        errs = []
        for n_int in (100, 200, 400):
            graph = spheroid_graph(flat3, n_int)
            g = L.graph_geometry(graph)
            errs.append(np.max(np.abs(g.mean_curvature
                                      - spheroid_h_at_theta(graph.theta))))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9

    def test_graph_below_horizon_rejected(self, schw3m1):
        theta = np.linspace(0.0, np.pi, 201)
        with pytest.raises(InsideHorizonError):
            L.AxisymmetricGraph(theta, 2.5 + 0.6 * np.cos(2 * theta), schw3m1)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_profile_zero_at_a_node_raises(self, n):
        # V = 0 at one node of a given frame is not positive: raised before
        # the area element divides by it
        graph = L.AxisymmetricGraph.from_function(
            lambda th: 4 + 0.3 * (1.5 * np.cos(th) ** 2 - 0.5), L.ManifoldSpec.schwarzschild(n, 0.0), 40)
        frame = L.surfaces.graph_frame(graph.rho, graph.ambient, graph.grid)
        v = frame.v.copy()
        v[7] = 0.0
        with pytest.raises(InsideHorizonError, match="nonpositive"):
            L.graph_geometry(graph, frame._replace(v=v))

    def test_nan_graph_rejected(self, flat3):
        # a NaN radius passes neither side of the domain rule
        theta = np.linspace(0.0, np.pi, 21)
        with pytest.raises(DomainError, match="r_max"):
            L.AxisymmetricGraph(theta, np.full(21, np.nan), flat3)

    def test_mean_convexity_loss_is_flagged_not_fatal(self, flat3):
        theta = np.linspace(0.0, np.pi, 201)
        rho = 1.0 + 0.7 * (1.5 * np.cos(theta) ** 2 - 0.5)
        g = L.graph_geometry(L.AxisymmetricGraph(theta, rho, flat3))
        assert not g.mean_curvature.min() > 0
        assert np.min(g.mean_curvature) < 0.0

    def test_graphs_build_and_flow_in_every_dimension(self):
        # at n = 4..7 a graph builds, has the geometry of its dimension and flows
        for n in range(4, 8):
            spec = L.ManifoldSpec.schwarzschild(n, 1.0)
            graph = L.AxisymmetricGraph.from_function(
                lambda th: 4 + 0.3 * (1.5 * np.cos(th) ** 2 - 0.5), spec, 40)
            g = L.graph_geometry(graph)
            assert g.ambient.n == n and g.hawking_mass is None
            assert g.area > 0.0 and g.mean_curvature.min() > 0.0
            tr = L.flow_graph(graph, 0.5)
            assert tr.status == "completed" and tr.times[-1] == 0.5

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

    def test_foreign_theta_is_checked_against_the_grid(self, flat3):
        grid = L.GraphGrid.make(200)
        rho = np.full(201, 1.0)
        # the grid's own array is taken as is; any other theta is compared
        assert L.AxisymmetricGraph(grid.theta, rho, flat3).theta is grid.theta
        assert L.AxisymmetricGraph(grid.theta.copy(), rho, flat3).grid is grid
        with pytest.raises(ValueError, match="uniform"):
            L.AxisymmetricGraph(grid.theta + 1e-9, rho, flat3)


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
        graph = L.AxisymmetricGraph.constant(1.0, flat3, 200)
        g = L.graph_geometry(graph)
        th = graph.theta
        assert abs(L.surface_integral(g, np.ones_like(th)) - FOUR_PI) < 1e-8
        assert abs(L.surface_integral(g, np.cos(th))) < 1e-12
        assert abs(L.surface_integral(g, 1.5 * np.cos(th) ** 2 - 0.5)) < 1e-7

    def test_shape_mismatch_rejected(self, flat3):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(1.0, flat3, 200))
        nodes = r"shape \({},\) does not match the slice's nodes \({},\)"
        with pytest.raises(ValueError, match=nodes.format(100, 201)):
            L.surface_integral(g, np.ones(100))
        s = L.sphere_geometry(L.CoordinateSphere(1.0, flat3))
        with pytest.raises(ValueError, match=nodes.format(5, 1)):
            L.surface_integral(s, np.ones(5))

    def test_area_weights_are_the_one_quadrature(self, schw3m1):
        # a sphere's one node weighs its area, so its integral is value * area
        # bit for bit; a graph's weights sum to its area
        s = L.sphere_geometry(L.CoordinateSphere(4.0, schw3m1))
        assert s.area_weights.tolist() == [s.area]
        for v in (1.0, 0.3, math.pi, -2.5e-7, 1e100):
            assert L.surface_integral(s, v) == v * s.area
        g = L.graph_geometry(L.AxisymmetricGraph.from_function(
            lambda th: 4 + 0.3 * (1.5 * np.cos(th) ** 2 - 0.5), schw3m1, 200))
        assert L.surface_integral(g, np.ones(201)) == pytest.approx(g.area, rel=1e-15, abs=0)
        # no field of the record is optional
        assert L.SurfaceGeometry._field_defaults == {}


class TestUmbilicity:
    def test_spheres_exactly_umbilic(self, schw3m1):
        s = L.sphere_geometry(L.CoordinateSphere(7.0, schw3m1))
        assert s.umbilicity_deficit == 0.0

    def test_constant_graph_umbilic(self, schw3m1):
        g = L.graph_geometry(L.AxisymmetricGraph.constant(4.0, schw3m1, 200))
        assert g.umbilicity_deficit < 1e-8

    def test_spheroid_strictly_non_umbilic(self, flat3):
        # max of (k1 - k2)^2 over the spheroid is 16/27, at sin^2 u = 2/3
        g = L.graph_geometry(spheroid_graph(flat3, 400))
        assert g.umbilicity_deficit == pytest.approx(16.0 / 27.0, abs=1e-3)
        assert g.umbilicity_deficit > 0.5


@pytest.mark.parametrize("a", [0.0, 0.3])
def test_graph_records_carry_their_formulas_bit_for_bit(schw3m1, a):
    # the geometry-only numbers equal, to the bit, the formulas written on
    # the record's own arrays: the Hawking mass over surface_integral(H^2)
    # and the max of the pointwise gap 2|A|^2 - H^2
    g = L.graph_geometry(L.AxisymmetricGraph.from_function(
        lambda th: 4 + a * (1.5 * np.cos(th) ** 2 - 0.5), schw3m1, 200))
    int_h2 = L.surface_integral(g, g.mean_curvature**2)
    assert g.hawking_mass == math.sqrt(g.area / (16 * math.pi)) * (
        1.0 - int_h2 / (16 * math.pi))
    assert g.umbilicity_deficit == float(
        (2 * g.second_form_norm_sq - g.mean_curvature**2).max())


@pytest.mark.parametrize("n", range(3, 8))
def test_sphere_records_carry_their_closed_forms(n):
    spec = L.ManifoldSpec.schwarzschild(n, 0.5)
    s = L.sphere_geometry(L.CoordinateSphere(3.0, spec))
    assert s.umbilicity_deficit == 0.0
    if n == 3:
        # integral(H^2)/16 pi is V, so 1 - it is the exact mass aspect
        assert s.hawking_mass == math.sqrt(s.area / (16 * math.pi)) * float(
            spec.profile.mass_aspect(3.0))
    else:
        assert s.hawking_mass is None


class TestCauchySchwarz:
    @settings(max_examples=30, deadline=None)
    @given(c0=st.floats(1.0, 3.0),
           amps=st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=4))
    def test_pointwise_gap_nonnegative(self, c0, amps):
        flat = L.ManifoldSpec.schwarzschild(3, 0.0)
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


class TestEveryDimension:
    """Graph geometry in R^n against oracles that owe nothing to the grid.

    The sphere of radius R = 4 about p e_z (p = 2) is a graph in every n,
    umbilic with H = (n-1)/R, |A|^2 = (n-1)/R^2 and area omega_(n-1)
    R^(n-1), so Q is exactly its flow limit and delta0 = Q/Q_inf - 1 is 0.
    The 2:1 prolate spheroid has the parallel curvature k_p with
    multiplicity n - 2, an umbilicity deficit (n-1)|A|^2 - H^2 =
    (n-2)(k_m - k_p)^2 whose max is (n-2) 16/27, and an area and int H by
    adaptive quadrature in the ellipse parameter.
    """

    @pytest.mark.parametrize("n", range(3, 8))
    def test_offcentre_sphere_is_round_to_second_order(self, n):
        # measured (2 vCPU x86-64, numpy 2.4): at N = 100, delta0 is
        # -6.3e-6, -5.4e-6, -4.2e-6, -3.3e-6, -2.6e-6 for n = 3..7; H,
        # |A|^2 and delta0 fall 3.97-4.11x per halving of dtheta, the area
        # and the umbilicity deficit 14.2-16.1x
        spec, r0 = L.ManifoldSpec.schwarzschild(n, 0.0), 4.0
        errors = []
        for n_int in (50, 100, 200):
            g = L.graph_geometry(L.AxisymmetricGraph.from_function(
                lambda th: offcentre_sphere_rho(th, 0.0, 2.0, r0), spec, n_int))
            delta0 = L.slice_quantities(g, L.sqrt_potential(spec), 0.0).q / L.limit_target(n) - 1
            errors.append([np.max(np.abs(g.mean_curvature - (n - 1) / r0)),
                           np.max(np.abs(g.second_form_norm_sq - (n - 1) / r0**2)),
                           abs(delta0),
                           abs(g.area / (unit_sphere_area(n - 1) * r0 ** (n - 1)) - 1.0),
                           g.umbilicity_deficit])
        errors = np.array(errors)
        assert np.all(errors[1] <= [5e-5 * (n - 1), 2.5e-5 * (n - 1), 7e-6, 3e-7,
                                    1.5e-9 * (n - 1)]), errors[1]
        ratios = errors[:-1] / errors[1:]
        assert np.all((3.5 <= ratios[:, :3]) & (ratios[:, :3] <= 4.5)), ratios
        assert np.all((12.0 <= ratios[:, 3:]) & (ratios[:, 3:] <= 20.0)), ratios

    @pytest.mark.parametrize("n", range(3, 8))
    def test_spheroid_matches_the_quadrature_oracle(self, n):
        # measured (2 vCPU x86-64, numpy 2.4) at N = 400 for n = 3..7: H
        # within 7.2e-4 to 2.7e-3, area within 4e-11 to 1.6e-9, the
        # umbilicity deficit within (n-2) 5.0e-5 of its max
        spec = L.ManifoldSpec.schwarzschild(n, 0.0)
        graph = L.AxisymmetricGraph.from_function(spheroid_polar_radius, spec, 400)
        g = L.graph_geometry(graph)
        area, int_h, _ = spheroid_integrals(n=n)
        assert np.max(np.abs(g.mean_curvature - spheroid_h_at_theta(graph.theta, n=n))) < 3e-3
        assert g.area == pytest.approx(area, rel=1e-8)
        assert L.surface_integral(g, g.mean_curvature) == pytest.approx(int_h, rel=1e-5)
        assert g.umbilicity_deficit == pytest.approx((n - 2) * 16.0 / 27.0, abs=(n - 2) * 1e-4)
        assert (g.hawking_mass is None) == (n != 3)
