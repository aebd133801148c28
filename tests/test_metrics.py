import math
import re

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import bisect

import imcflab as L
from imcflab.errors import DomainError, FitQualityError
from imcflab.metrics import _spline

from conftest import SUITE_NM, suite_grid
from oracles import scalar_curvature_fd, static_tensor_fd


def schw_v(n, m):
    def v(r):
        return 1.0 - 2.0 * m * r ** (2.0 - n)
    return v


class TestUnitSphereArea:
    def test_closed_values(self):
        assert L.unit_sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert L.unit_sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
        assert L.unit_sphere_area(3) == pytest.approx(2 * math.pi**2, rel=1e-15)
        assert L.unit_sphere_area(4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            L.unit_sphere_area(0)


class TestScalarCurvature:
    def test_flat_is_exactly_zero(self, flat3):
        r = suite_grid(flat3)
        assert np.all(L.scalar_curvature(flat3, r) == 0.0)

    @pytest.mark.parametrize("n,m", SUITE_NM)
    def test_schwarzschild_scalar_flat(self, n, m):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        r = suite_grid(spec)
        assert np.max(np.abs(L.scalar_curvature(spec, r))) < 1e-10

    def test_reissner_nordstrom_closed_form(self):
        # V = 1 - 2m/r + q^2/r^2 has R = 2 q^2 / r^4; at q=1/2, r=2 that is 1/32
        m, q = 1.0, 0.5
        profile = L.RadialProfile.from_callable(
            lambda r: 1.0 - 2.0 * m / r + q**2 / r**2,
            lambda r: 2.0 * m / r**2 - 2.0 * q**2 / r**3,
            lambda r: -4.0 * m / r**3 + 6.0 * q**2 / r**4)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=2.0)
        assert L.scalar_curvature(spec, 2.0 + 1e-12) == pytest.approx(0.03125, rel=1e-9)
        assert L.scalar_curvature(spec, 4.0) == pytest.approx(2 * q**2 / 4.0**4, rel=1e-12)

    def test_fd_fallback_derivatives(self):
        # profile given without derivatives; finite differences kick in
        m, q = 1.0, 0.5
        profile = L.RadialProfile.from_callable(
            lambda r: 1.0 - 2.0 * m / r + q**2 / r**2)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=2.0)
        assert L.scalar_curvature(spec, 2.0 + 1e-12) == pytest.approx(0.03125, abs=1e-8)

    def test_matches_fd_ricci_oracle(self):
        # independent Christoffel/Ricci computation of the same metric
        m, q = 1.0, 0.5
        v = lambda r: 1.0 - 2.0 * m / r + q**2 / r**2
        profile = L.RadialProfile.from_callable(
            v,
            lambda r: 2.0 * m / r**2 - 2.0 * q**2 / r**3,
            lambda r: -4.0 * m / r**3 + 6.0 * q**2 / r**4)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=1.9)
        for r in (2.0, 3.7):
            assert L.scalar_curvature(spec, r) == pytest.approx(
                scalar_curvature_fd(3, v, r), abs=3e-5)
        # oracle also confirms scalar flatness away from the family's closed form
        assert abs(scalar_curvature_fd(5, schw_v(5, 2.0), 3.0)) < 1e-6

    def test_domain_check(self, schw3m1):
        with pytest.raises(DomainError):
            L.scalar_curvature(schw3m1, 1.5)
        with pytest.raises(DomainError):
            L.scalar_curvature(schw3m1, 2000.0)


class TestManifoldSpec:
    def test_nan_mass_is_not_positive_on_domain(self):
        with pytest.raises(ValueError, match="profile not positive on domain"):
            L.ManifoldSpec.schwarzschild(3, float("nan"))

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_dimension_outside_three_to_seven(self, n):
        with pytest.raises(ValueError, match="3 <= n <= 7"):
            L.ManifoldSpec.schwarzschild(n, 1.0)


class TestStaticResidual:
    def test_flat_constant_potential(self, flat3):
        rr, tt = L.static_residual(flat3, L.constant_potential(1.0), 1.0)
        assert rr == 0.0 and tt == 0.0

    @pytest.mark.parametrize("n,m", SUITE_NM)
    def test_sqrt_v_is_static_on_schwarzschild(self, n, m):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        f = L.sqrt_potential(spec)
        r = suite_grid(spec)
        rr, tt = L.static_residual(spec, f, r)
        assert np.max(np.abs(rr)) < 1e-9
        assert np.max(np.abs(tt)) < 1e-9

    def test_profile_weight_negative_control(self, schw3m1):
        # frozen from the symbolic computation: S_rr = 2/81, S_tt = 1/81
        rr, tt = L.static_residual(schw3m1, L.profile_weight(schw3m1), 3.0)
        assert rr == pytest.approx(2.0 / 81.0, rel=1e-12)
        assert tt == pytest.approx(1.0 / 81.0, rel=1e-12)

    def test_matches_fd_static_oracle(self):
        v = schw_v(3, 1.0)
        rr, tt = static_tensor_fd(
            3, v, lambda r: 2.0 / r**2, lambda r: -4.0 / r**3, v, 3.0)
        assert rr == pytest.approx(2.0 / 81.0, abs=3e-5)
        assert tt == pytest.approx(1.0 / 81.0, abs=3e-5)
        # and the oracle agrees sqrt(V) is static at n = 3 and n = 5
        for n, m in ((3, 1.0), (5, 2.0)):
            vv = schw_v(n, m)

            def f(r):
                return math.sqrt(vv(r))

            def f1(r, _n=n, _m=m):
                return 2.0 * _m * (_n - 2.0) * r ** (1.0 - _n) / (2.0 * f(r))

            def f2(r, _n=n, _m=m):
                vp = 2.0 * _m * (_n - 2.0) * r ** (1.0 - _n)
                vpp = -2.0 * _m * (_n - 2.0) * (_n - 1.0) * r ** (-float(_n))
                return vpp / (2 * f(r)) - vp**2 / (4 * vv(r) ** 1.5)

            rr, tt = static_tensor_fd(n, vv, f1, f2, f, 3.0)
            assert abs(rr) < 1e-6 and abs(tt) < 1e-6


class TestHarmonicity:
    def test_flat(self, flat3):
        assert L.harmonicity_residual(flat3, L.constant_potential(1.0), 2.0) == 0.0

    @pytest.mark.parametrize("n,m,r", [(3, 1.0, 5.0), (4, 1.0, 3.0), (6, 0.5, 2.0)])
    def test_sqrt_v_harmonic(self, n, m, r):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        assert abs(L.harmonicity_residual(spec, L.sqrt_potential(spec), r)) < 1e-12

    def test_negative_control_value(self, schw3m1):
        # Laplacian of V itself at r=3 is 2/81 (symbolic)
        val = L.harmonicity_residual(schw3m1, L.profile_weight(schw3m1), 3.0)
        assert val == pytest.approx(2.0 / 81.0, rel=1e-12)


class TestAdmMassFlux:
    @pytest.mark.parametrize("n,m", SUITE_NM)
    def test_flux_equals_mass_at_every_radius(self, n, m):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        f = L.sqrt_potential(spec)
        flux = L.adm_mass_flux(spec, f, suite_grid(spec, num=50))
        assert np.max(np.abs(flux - m)) < 1e-12
        assert np.max(flux) - np.min(flux) < 1e-10  # r-independence

    def test_closed_form_examples(self):
        spec5 = L.ManifoldSpec.schwarzschild(5, 2.0)
        assert L.adm_mass_flux(spec5, L.sqrt_potential(spec5), 3.0) == pytest.approx(
            2.0, abs=1e-13)
        flat = L.ManifoldSpec.flat(3)
        assert L.adm_mass_flux(flat, L.constant_potential(1.0), 7.0) == 0.0

    def test_potential_accepts_mpmath_scalars(self, schw3m1):
        f = L.sqrt_potential(schw3m1)
        val = f.value(mpmath.mpf(4))
        assert isinstance(val, mpmath.mpf)
        assert float(val) == pytest.approx(math.sqrt(0.5), rel=1e-15)


class TestAdmMassFit:
    def test_schwarzschild_positive_mass(self, schw3m1):
        m_hat = L.adm_mass_fit(schw3m1, L.sqrt_potential(schw3m1), (100.0, 1000.0))
        assert abs(m_hat - 1.0) < 1e-2

    def test_negative_mass(self):
        spec = L.ManifoldSpec.schwarzschild(3, -0.5)
        m_hat = L.adm_mass_fit(spec, L.sqrt_potential(spec), (100.0, 1000.0))
        assert abs(m_hat - (-0.5)) < 1e-2

    def test_flat_gives_zero_exactly(self, flat3):
        assert L.adm_mass_fit(flat3, L.constant_potential(1.0)) == 0.0

    @pytest.mark.parametrize("n,m", [(3, 1.0), (3, -0.5), (5, 2.0)])
    def test_fit_agrees_with_flux_within_one_percent(self, n, m):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        f = L.sqrt_potential(spec)
        fit = L.adm_mass_fit(spec, f, (100.0, 1000.0))
        flux = L.adm_mass_flux(spec, f, 1000.0)
        assert abs(fit - flux) <= 0.01 * max(1.0, abs(m))

    def test_rejects_tail_outside_domain(self, schw3m1):
        with pytest.raises(FitQualityError):
            L.adm_mass_fit(schw3m1, L.sqrt_potential(schw3m1), (100.0, 2000.0))

    def test_rejects_unnormalized_potential(self, schw3m1):
        with pytest.raises(FitQualityError) as exc:
            L.adm_mass_fit(schw3m1, L.constant_potential(3.0))
        assert "near 1" in str(exc.value)
        dev = re.search(r"max \|f - 1\| = (\S+)\)", str(exc.value))
        assert float(dev.group(1)) == pytest.approx(2.0)

    def test_rescale_then_fit(self, schw3m1):
        v = schw3m1.profile
        f3 = L.StaticPotential(
            value=lambda r: 3.0 * np.sqrt(v.value(r)),
            deriv=lambda r: 3.0 * v.deriv(r) / (2.0 * np.sqrt(v.value(r))),
            deriv2=lambda r: 3.0 * (v.deriv2(r) / (2.0 * np.sqrt(v.value(r)))
                                    - v.deriv(r) ** 2 / (4.0 * v.value(r) ** 1.5)))
        rescaled = L.rescale_to_unit(schw3m1, f3)
        # fitted constant carries the r^-2 tail term as ~1e-5 relative bias
        assert rescaled.value(900.0) == pytest.approx(
            math.sqrt(1 - 2 / 900.0), rel=1e-4)
        assert L.adm_mass_fit(schw3m1, rescaled) == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("name, key", [("horizon_radius", "xtol"),
                                       ("adm_mass_fit", "num"),
                                       ("rescale_to_unit", "num")])
def test_retired_parameters_rejected(schw3m1, name, key):
    # the bisection tolerance and the 64 tail radii of both fits are fixed
    args = (schw3m1,) if name == "horizon_radius" else (
        schw3m1, L.sqrt_potential(schw3m1))
    with pytest.raises(TypeError, match=key):
        getattr(L, name)(*args, **{key: 64})


class TestHorizonRadius:
    @pytest.mark.parametrize("n,m,expected", [
        (3, 1.0, 2.0),
        (4, 2.0, 2.0),          # (2m)^(1/(n-2)) = 4^(1/2)
        (5, 0.5, 1.0),
        (7, 2.0, 4.0 ** 0.2),
    ])
    def test_positive_mass_root(self, n, m, expected):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        assert L.horizon_radius(spec) == pytest.approx(expected, abs=1e-11)

    def test_no_horizon_for_nonpositive_mass(self, flat3):
        assert L.horizon_radius(L.ManifoldSpec.schwarzschild(3, -1.0)) is None
        assert L.horizon_radius(flat3) is None

    @staticmethod
    def _reference_root(spec, lo=1e-8):
        """The library bisection on the first sign change of V over the
        same 512-point log grid, the reference for the in-package one."""
        grid = np.geomspace(lo, spec.r_max, 512)
        vals = spec.profile.value(grid)
        i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0][0]
        return bisect(spec.profile.value, grid[i], grid[i + 1], xtol=1e-12)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_root_equals_library_bisection(self, n, m):
        spec = L.ManifoldSpec.schwarzschild(n, m)
        assert L.horizon_radius(spec) == self._reference_root(spec)

    def test_sampled_root_equals_library_bisection(self):
        # the library bisection on the library spline of the same table
        r = np.geomspace(1.2, 2000.0, 700)
        ref = CubicSpline(r, 1.0 - 2.0 / r)
        spec_ref = L.ManifoldSpec.custom(
            L.RadialProfile(ref, ref.derivative(1), ref.derivative(2),
                            support=(1.2, 2000.0)), 3, r_min=2.5)
        spec = L.ManifoldSpec.custom(
            L.RadialProfile.from_samples(r, 1.0 - 2.0 / r), 3, r_min=2.5)
        assert L.horizon_radius(spec) == self._reference_root(spec_ref, lo=1.2)

    def test_sampled_profile_horizon(self):
        r = np.linspace(1.8, 30.0, 4000)
        profile = L.RadialProfile.from_samples(r, 1.0 - 2.0 / r)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=2.01, r_max=30.0)
        assert L.horizon_radius(spec) == pytest.approx(2.0, abs=1e-6)


class TestDerivativeConsistency:
    def test_profile_and_potential_match_central_differences(self, schw3m1):
        # observed convergence order of the FD check itself must be ~2
        f = L.sqrt_potential(schw3m1)
        r = 3.3
        for value, deriv in ((schw3m1.profile.value, schw3m1.profile.deriv),
                             (f.value, f.deriv)):
            errs = []
            for h in (1e-2, 5e-3):
                fd = (value(r + h) - value(r - h)) / (2 * h)
                errs.append(abs(fd - deriv(r)))
            order = math.log2(errs[0] / errs[1])
            assert order > 1.9


class TestSpline:
    @staticmethod
    def _uneven_table(num=600):
        """A Schwarzschild V on num knots from 2.1 to 1000 whose spacing
        grows geometrically with a random +-25% jitter."""
        steps = np.geomspace(1.0, 50.0, num - 1) * np.random.default_rng(7).uniform(
            0.8, 1.25, num - 1)
        cum = np.concatenate(([0.0], np.cumsum(steps)))
        r = 2.1 + 997.9 * cum / cum[-1]
        return r, 1.0 - 2.0 / r

    def test_matches_library_cubic_spline(self):
        r, v = self._uneven_table()
        ours, ref = _spline(r, v), CubicSpline(r, v)
        probes = np.concatenate((r, 0.5 * (r[1:] + r[:-1]),
                                 [1.0, 2.0, 2.09, 1000.5, 1100.0, 5000.0]))
        for nu in (0, 1, 2):
            got = ours(probes) if nu == 0 else ours.derivative(nu)(probes)
            want = ref(probes) if nu == 0 else ref.derivative(nu)(probes)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), nu
        assert np.array_equal(ours(r), ref(r))
        assert np.array_equal(ours(r[:-1]), v[:-1])
        assert ours(r[5]) == v[5] and ours.x[0] == 2.1 and ours.x[-1] == r[-1]

    @pytest.mark.parametrize("r, y, match", [
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "at least 4 samples"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0], "at least 4 samples"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "at least 4 samples"),
        ([1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0], "strictly increasing"),
        ([1.0, 3.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0], "strictly increasing"),
        ([1.0, 2.0, np.nan, 4.0], [1.0, 2.0, 3.0, 4.0], "finite"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, np.inf, 3.0, 4.0], "finite"),
    ])
    def test_input_checks(self, r, y, match):
        with pytest.raises(ValueError, match=match):
            _spline(r, y)
        with pytest.raises(ValueError, match=match):
            L.RadialProfile.from_samples(np.asarray(r), np.asarray(y))


class TestSampledProfiles:
    def test_spline_profile_reproduces_schwarzschild(self):
        r = np.linspace(2.05, 30.0, 3000)
        profile = L.RadialProfile.from_samples(r, 1.0 - 2.0 / r)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=2.06, r_max=30.0)
        grid = np.geomspace(2.3, 25.0, 30)
        assert np.max(np.abs(L.scalar_curvature(spec, grid))) < 1e-5
        rr, tt = L.static_residual(spec, L.sqrt_potential(spec), grid)
        assert np.max(np.abs(rr)) < 1e-5
        assert np.max(np.abs(tt)) < 1e-5

    def test_sampled_potential_mass_chain(self):
        spec = L.ManifoldSpec.schwarzschild(3, 1.0)
        r = np.geomspace(2.5, 1000.0, 4000)
        pot = L.sampled_potential(r, np.sqrt(1.0 - 2.0 / r))
        m_hat = L.adm_mass_fit(spec, pot, (100.0, 1000.0))
        assert abs(m_hat - 1.0) < 1e-2
        assert L.adm_mass_flux(spec, pot, 500.0) == pytest.approx(1.0, abs=1e-4)
