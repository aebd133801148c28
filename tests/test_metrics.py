import inspect
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import bisect

import imcflab as L
from imcflab.errors import DomainError, FitQualityError
from imcflab.metrics import _spline

from conftest import SUITE_NM, suite_grid
from oracles import (scalar_curvature_fd, schwarzschild_derivatives_mp,
                     static_tensor_fd)


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
        profile = L.RadialProfile(
            lambda r: 1.0 - 2.0 * m / r + q**2 / r**2,
            lambda r: 2.0 * m / r**2 - 2.0 * q**2 / r**3,
            lambda r: -4.0 * m / r**3 + 6.0 * q**2 / r**4)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=2.0)
        assert L.scalar_curvature(spec, 2.0 + 1e-12) == pytest.approx(0.03125, rel=1e-9)
        assert L.scalar_curvature(spec, 4.0) == pytest.approx(2 * q**2 / 4.0**4, rel=1e-12)

    def test_matches_fd_ricci_oracle(self):
        # independent Christoffel/Ricci computation of the same metric
        m, q = 1.0, 0.5
        v = lambda r: 1.0 - 2.0 * m / r + q**2 / r**2
        profile = L.RadialProfile(
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

    def test_default_domain_is_the_parsers(self, tmp_path):
        # both end the domain at r_max = 1000 unless told otherwise
        cfg = L.parse_config("[manifold]\nfamily = schwarzschild\nn = 3\nm = 1\n"
                             "[surface]\nkind = sphere\nr0 = 4\n", base_dir=tmp_path)
        assert L.ManifoldSpec.schwarzschild(3, 1.0).r_max == cfg.surface.ambient.r_max
        assert cfg.surface.ambient.r_max == 1000.0

    def test_zero_mass_keeps_the_r_min_floor(self):
        # only a positive mass has a horizon to move r_min to
        assert L.ManifoldSpec.schwarzschild(3, 0.0).r_min == 0.1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_zero_mass_is_flat_space(self, n):
        # flat R^n is the m = 0 edge of the family: V = 1 with both
        # derivatives and the mass aspect exactly 0 from just outside the
        # floor to r_max, and no horizon; the floor is stored as a float
        spec = L.ManifoldSpec.schwarzschild(n, 0.0)
        r = np.geomspace(spec.r_min * (1 + 1e-12), spec.r_max, 200)
        p = spec.profile
        assert np.all(p.value(r) == 1.0) and np.all(p.deriv(r) == 0.0)
        assert np.all(p.deriv2(r) == 0.0) and np.all(p.mass_aspect(r) == 0.0)
        assert spec.r_min == 0.1 and L.horizon_radius(spec) is None
        floor = L.ManifoldSpec.schwarzschild(n, 0.0, r_max=5, r_min_floor=1).r_min
        assert type(floor) is float and floor == 1.0
        # an r_min = 0 domain admits radii just above where r^(n-1) leaves
        # the normal floats, and r^(-n) overflows there: V'' is still 0, so
        # the static residual of f = 1 is exactly 0, with no warning
        spec = L.ManifoldSpec.schwarzschild(n, 0.0, r_max=1.0, r_min_floor=0.0)
        tiny = 1.001 * sys.float_info.min ** (1.0 / (n - 1))
        for r in (np.array([tiny, 1e-3]), tiny):
            for component in L.static_residual(spec, L.sqrt_potential(spec), r):
                assert np.all(component == 0.0)

    def test_flat_space_has_no_second_path(self):
        # flat space is schwarzschild(n, 0.0) and its potential sqrt_potential
        for owner, name in ((L, "constant_potential"), (L.metrics, "constant_potential"),
                            (L.RadialProfile, "flat"), (L.ManifoldSpec, "flat")):
            assert not hasattr(owner, name), name
        assert "constant_potential" not in L.__all__ + L.metrics.__all__

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_dimension_outside_three_to_seven(self, n):
        with pytest.raises(ValueError, match="3 <= n <= 7"):
            L.ManifoldSpec.schwarzschild(n, 1.0)


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("r", [3.0, 10.0])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("m", [-0.5, 0.5])
def test_constant_potential_excess_off_flat_space(m, n, r, c):
    # a hand-built weight f = c has no aspect_excess, so its excess is the
    # plain c sqrt(V) - 1, which a table weight on a sphere also takes;
    # against 30 digits, V = 1 - 2m r^(2-n)
    with mpmath.workdps(30):
        exact = c * mpmath.sqrt(1 - 2 * mpmath.mpf(m) * mpmath.mpf(r) ** (2 - n)) - 1
    spec = L.ManifoldSpec.schwarzschild(n, m)
    weight = L.StaticPotential(value=lambda r: c, deriv=None, deriv2=None)
    assert weight.excess(r, spec.profile) == pytest.approx(float(exact), rel=1e-14)


class TestStaticResidual:
    def test_flat_constant_potential(self, flat3):
        rr, tt = L.static_residual(flat3, L.sqrt_potential(flat3), 1.0)
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
        assert L.harmonicity_residual(flat3, L.sqrt_potential(flat3), 2.0) == 0.0

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
        flat = L.ManifoldSpec.schwarzschild(3, 0.0)
        assert L.adm_mass_flux(flat, L.sqrt_potential(flat), 7.0) == 0.0

    def test_potential_accepts_mpmath_scalars(self, schw3m1):
        f = L.sqrt_potential(schw3m1)
        val = f.value(mpmath.mpf(4))
        assert isinstance(val, mpmath.mpf)
        assert float(val) == pytest.approx(math.sqrt(0.5), rel=1e-15)


class TestAdmMassFit:
    TAIL = (100.0, 1000.0)

    def test_schwarzschild_positive_mass(self, schw3m1):
        m_hat = L.adm_mass_fit(schw3m1, L.sqrt_potential(schw3m1), (100.0, 1000.0))
        assert abs(m_hat - 1.0) < 1e-2

    def test_negative_mass(self):
        spec = L.ManifoldSpec.schwarzschild(3, -0.5)
        m_hat = L.adm_mass_fit(spec, L.sqrt_potential(spec), (100.0, 1000.0))
        assert abs(m_hat - (-0.5)) < 1e-2

    def test_flat_gives_zero_exactly(self, flat3):
        assert L.adm_mass_fit(flat3, L.sqrt_potential(flat3), self.TAIL) == 0.0

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
            # a hand-built weight tending to 3: |f - 1| is largest at r = 1000
            L.adm_mass_fit(schw3m1, self._weight(lambda r: 3.0 - 100.0 / r), self.TAIL)
        assert "near 1" in str(exc.value)
        dev = re.search(r"max \|f - 1\| = (\S+)\)", str(exc.value))
        assert float(dev.group(1)) == pytest.approx(1.9)

    # Each rejection threshold t of the tail fits is pinned by a closed-form
    # weight on either side of it, inside (t / 1.5, 1.5 t): the flat n = 3
    # tail [100, 1000], where the model 1 - f = m / r is exact.

    @staticmethod
    def _weight(value):
        return L.StaticPotential(value=value, deriv=None, deriv2=None)

    def test_deviation_threshold(self, flat3):
        # max |f - 1| = m / 100 on the tail: 0.4 is fitted exactly, 0.6 is
        # rejected before any fit however well 1 - m / r models it
        assert L.adm_mass_fit(flat3, self._weight(lambda r: 1.0 - 40.0 / r), self.TAIL) \
            == pytest.approx(40.0, rel=1e-13)
        with pytest.raises(FitQualityError, match=r"not near 1 .*max \|f - 1\| = 0\.6\)"):
            L.adm_mass_fit(flat3, self._weight(lambda r: 1.0 - 60.0 / r), self.TAIL)

    @pytest.mark.parametrize("b, rejected", [(45.0, False), (80.0, True)])
    def test_relative_residual_threshold(self, flat3, b, rejected):
        # 1 - f = (1 + b / r) / r; the b / r^2 part the model cannot fit
        # leaves a relative residual of 0.080 (b = 45) or 0.120 (b = 80),
        # recomputed here by an independent least-squares solve
        rs = np.geomspace(100.0, 1000.0, 64)
        y = (1.0 + b / rs) / rs
        (m_ls,), *_ = np.linalg.lstsq((1.0 / rs)[:, None], y, rcond=None)
        ratio = np.linalg.norm(y - m_ls / rs) / np.linalg.norm(y)
        assert (0.1 < ratio < 0.15) if rejected else (0.1 / 1.5 < ratio < 0.1)
        weight = self._weight(lambda r: 1.0 - (1.0 + b / r) / r)
        if rejected:
            with pytest.raises(FitQualityError) as exc:
                L.adm_mass_fit(flat3, weight, self.TAIL)
            found = re.search(r"relative residual (\S+),", str(exc.value))
            assert float(found.group(1)) == pytest.approx(ratio, rel=1e-5)  # 6 digits
        else:
            assert L.adm_mass_fit(flat3, weight, self.TAIL) == pytest.approx(m_ls, rel=1e-12)

    @pytest.mark.parametrize("signal, rejected", [(0.8e-13, False), (1.2e-13, True)])
    def test_signal_floor(self, flat3, signal, rejected):
        # a constant f = 1 + d is no 1 - m / r at all (relative residual 0.6),
        # but a signal |1 - f| of 8 |d| (64 radii) below 1e-13 is rounding
        # and fits as it stands
        weight = self._weight(lambda r: r * 0.0 + 1.0 + signal / 8.0)
        if rejected:
            with pytest.raises(FitQualityError, match="relative residual"):
                L.adm_mass_fit(flat3, weight, self.TAIL)
        else:
            assert abs(L.adm_mass_fit(flat3, weight, self.TAIL)) < 1e-10

    @pytest.mark.parametrize("c, rejected", [(0.8e-12, True), (1.2e-12, False)])
    def test_rescale_constant_threshold(self, flat3, c, rejected):
        # a table (a weight with a support) is divided by its fitted
        # asymptotic constant, here c itself, which must exceed 1e-12
        r = np.geomspace(1.0, 1000.0, 50)
        table = L.sampled_potential(r, np.full_like(r, c))
        if rejected:
            with pytest.raises(FitQualityError, match=r"cannot rescale: .*c = 8e-13"):
                L.adm_mass_fit(flat3, table, self.TAIL)
        else:
            assert abs(L.adm_mass_fit(flat3, table, self.TAIL)) < 1e-10

    def test_rescale_then_fit(self, schw3m1):
        # a table of 3 sqrt(V) fits the mass of the table of sqrt(V): the
        # fitted constant scales by 3, up to rounding.  It carries the r^-2
        # tail term as a ~1e-5 relative bias, so the mass is good to 1e-2.
        # The same values without a support are a closed form far from 1
        r = np.geomspace(2.5, 1000.0, 4000)
        root_v = np.sqrt(1.0 - 2.0 / r)
        table1 = L.sampled_potential(r, root_v)
        table3 = L.sampled_potential(r, 3.0 * root_v)
        m_hat = L.adm_mass_fit(schw3m1, table3, self.TAIL)
        assert m_hat == pytest.approx(1.0, abs=1e-2)
        assert m_hat == pytest.approx(L.adm_mass_fit(schw3m1, table1, self.TAIL), rel=1e-12)
        with pytest.raises(FitQualityError, match="not near 1"):
            L.adm_mass_fit(schw3m1, table3._replace(support=None), self.TAIL)


@pytest.mark.parametrize("name, key", [("horizon_radius", "xtol"),
                                       ("adm_mass_fit", "num")])
def test_retired_parameters_rejected(schw3m1, name, key):
    # the bisection tolerance and the 64 radii of the tail fit are fixed
    args = (schw3m1,) if name == "horizon_radius" else (
        schw3m1, L.sqrt_potential(schw3m1), (100.0, 1000.0))
    with pytest.raises(TypeError, match=key):
        getattr(L, name)(*args, **{key: 64})


def test_verdict_path_takes_the_parsers_values():
    # the scenario parser owns the tail and eps_mono, so the library sets
    # no default for either, and a table's constant is fitted inside the tail fit
    for fn, key in ((L.adm_mass_fit, "tail"), (L.monotonicity_verdict, "eps_mono")):
        assert inspect.signature(fn).parameters[key].default is inspect.Parameter.empty
    assert not hasattr(L, "rescale_to_unit")
    assert not hasattr(L.metrics, "rescale_to_unit")


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

    def test_zero_at_the_first_node_is_the_root(self):
        # V(r) = r - 1e-8 vanishes on grid[0] = 1e-8 exactly
        spec = L.ManifoldSpec.custom(L.RadialProfile(lambda r: r - 1e-8, lambda r: 1.0,
                                                     lambda r: 0.0), 3, r_min=1e-8)
        assert L.horizon_radius(spec) == 1e-8

    def test_zero_at_a_later_node_is_the_root(self):
        # V(r) = r - g vanishes on a node g of the scan, with no bisection
        g = np.geomspace(1e-8, 1000.0, 512)[200]
        spec = L.ManifoldSpec.custom(L.RadialProfile(lambda r: r - g, lambda r: 1.0,
                                                     lambda r: 0.0), 3, r_min=g)
        assert L.horizon_radius(spec) == g

    def test_sampled_profile_horizon(self):
        r = np.linspace(1.8, 30.0, 4000)
        profile = L.RadialProfile.from_samples(r, 1.0 - 2.0 / r)
        spec = L.ManifoldSpec.custom(profile, 3, r_min=2.01, r_max=30.0)
        assert L.horizon_radius(spec) == pytest.approx(2.0, abs=1e-6)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("m", [-1.0, 0.0, 0.5])
    def test_closed_forms_match_mpmath_derivatives(self, n, m):
        # V, V', V'' of the profile and f, f', f'' of both closed-form
        # weights against 30-digit numerical differentiation; flat space's
        # derivatives must be exactly 0
        spec = L.ManifoldSpec.schwarzschild(n, m)
        p, f = spec.profile, L.sqrt_potential(spec)
        w = L.profile_weight(spec)
        for r in np.geomspace(1.05 * spec.r_min + 0.05, 1000.0, 60):
            v_ref, f_ref = schwarzschild_derivatives_mp(n, m, r)
            for fns, ref in (((p.value, p.deriv, p.deriv2), v_ref),
                             ((f.value, f.deriv, f.deriv2), f_ref),
                             ((w.value, w.deriv, w.deriv2), v_ref)):
                for k, (fn, want) in enumerate(zip(fns, ref)):
                    got = fn(r)
                    assert abs(got - want) <= 1e-13 * abs(want), (r, k, got, want)

    def test_hand_built_profile_is_the_record(self):
        # no finite-difference fallback: a profile names its derivatives
        assert not hasattr(L.RadialProfile, "from_callable")
        with pytest.raises(TypeError):
            L.RadialProfile(lambda r: 1.0 - 2.0 / r)

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

    def test_a_table_too_steep_is_rejected(self):
        # 1 + 0.1 r^3 on geometric knots to 1.2e100: the not-a-knot end row
        # overflows, which gave NaN coefficients and RuntimeWarnings (errors
        # under the suite's filter)
        r = np.geomspace(1.0, 1.2e100, 600)
        with pytest.raises(ValueError, match="coefficients overflow"):
            _spline(r, 1.0 + 0.1 * r**3)
        with pytest.raises(ValueError, match="coefficients overflow"):
            L.sampled_potential(r, 1.0 + 0.1 * r**3)


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
