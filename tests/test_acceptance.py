"""Acceptance suite: every shipped claim, at its stated tolerance.

One test per criterion; each prints a single PASS line on success (run
with -s or -rA to see them).  Criterion 9 carries one extra test about the
original acceptance checklist, which asks the flat-space 2:1 spheroid
deficit to exceed 0.1.  That threshold is unattainable: the deficit has an
elementary closed form, 0.0728094..., which the frozen u-quadrature oracle
and the package's discrete geometry (to 5e-5 at N = 400) both reproduce,
and since the deficit is linear in the size of the spheroid, 0.1 would
need a spheroid 1.37 times larger than the one the criterion describes.
The test pins the three routes to each other and asserts that 0.1 lies
above the exact value; the strict-positivity content of the criterion is
checked in its sibling test.
"""

import json
import math
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

import imcflab as L

from conftest import child_env, p2_graph
from oracles import (spheroid_deficit_closed, spheroid_integrals,
                     spheroid_polar_radius)

FOUR_SQRT_PI = 4 * math.sqrt(math.pi)
NS = (3, 4, 5, 6, 7)
MS = (-0.5, 0.5, 1.0, 2.0)
SPHEROID_DEFICIT_ORACLE = 0.07280940061681629  # u-quadrature, frozen pre-build


def sphere_r_grid(spec, m, num=12):
    lo = 1.1 * spec.r_min if m > 0 else 0.5
    return np.geomspace(lo, 50.0, num)


@pytest.fixture(scope="module")
def perturbed_traces(schw3m1):
    """Criterion 2's flows at N = 200 and N = 800 and their quantities,
    shared with 3 and 4."""
    f = L.sqrt_potential(schw3m1)
    m = float(L.adm_mass_flux(schw3m1, f, schw3m1.r_max))
    out = {"seconds": {}, "quantities": {}}
    t0 = time.perf_counter()
    for n_int in (200, 800):
        t1 = time.perf_counter()
        tr = L.flow_graph(p2_graph(schw3m1, 4.0, 0.3, n_int), 3.0)
        out["quantities"][n_int] = L.attach_quantities(tr, f, m)
        out[n_int] = tr
        out["seconds"][n_int] = time.perf_counter() - t1
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def spheroid_trace(flat3):
    return L.flow_graph(
        L.AxisymmetricGraph.from_function(spheroid_polar_radius, flat3, 200),
        1.0)


def test_criterion_01_equality_case():
    t0 = time.perf_counter()
    worst_deficit = worst_gap = 0.0
    for n in NS:
        for m in MS:
            spec = L.ManifoldSpec.schwarzschild(n, m)
            f = L.sqrt_potential(spec)
            target = L.limit_target(n)
            for r in sphere_r_grid(spec, m):
                geom = L.sphere_geometry(L.CoordinateSphere(float(r), spec))
                sq = L.slice_quantities(geom, f, m)
                d, q = sq.minkowski_deficit, sq.q
                worst_deficit = max(worst_deficit, abs(d))
                worst_gap = max(worst_gap, abs(q - target))
    elapsed = time.perf_counter() - t0
    assert worst_deficit < 1e-10
    assert worst_gap < 1e-10
    assert elapsed < 1.0
    print(f"ACCEPTANCE criterion 1: PASS (|deficit| <= {worst_deficit:.2e}, "
          f"|Q-limit| <= {worst_gap:.2e}, {elapsed:.2f}s)")


def test_criterion_02_q_monotonicity_along_flow(perturbed_traces, schw3m1):
    q200, q800 = perturbed_traces["quantities"][200], perturbed_traces["quantities"][800]
    v200 = L.monotonicity_verdict(perturbed_traces[200], q200, eps_mono=1e-6)
    v800 = L.monotonicity_verdict(perturbed_traces[800], q800, eps_mono=1e-8)
    qs = [sq.q for sq in q200]
    assert v200.worst_increase <= 1e-6
    assert qs[0] - qs[-1] > 1e-4           # strict decrease over the run
    assert perturbed_traces[200].geometries[0].umbilicity_deficit > 1e-3
    assert v800.worst_increase <= 1e-8     # refinement tightens the bound
    per_n = "; ".join(
        f"N={n}: {perturbed_traces['seconds'][n]:.2f}s, "
        f"{perturbed_traces[n].stats['steps']} steps" for n in (200, 800))
    assert perturbed_traces["elapsed"] < 60.0, (
        f"graph flows took {perturbed_traces['elapsed']:.2f}s against the "
        f"60 s gate ({per_n})")
    print(f"ACCEPTANCE criterion 2: PASS (worst increase {v200.worst_increase:.2e} "
          f"at N=200, {v800.worst_increase:.2e} at N=800, Q drop "
          f"{qs[0]-qs[-1]:.2e}, {perturbed_traces['elapsed']:.1f}s)")


def test_criterion_03_limit_of_q(perturbed_traces, schw3m1):
    v = L.monotonicity_verdict(perturbed_traces[200], perturbed_traces["quantities"][200],
                               eps_mono=1e-6)
    assert abs(v.limit_gap / FOUR_SQRT_PI) < 0.01
    print(f"ACCEPTANCE criterion 3: PASS (Q_T - target = {v.limit_gap:.3e}, "
          f"target {FOUR_SQRT_PI:.7f})")


def test_criterion_04_area_law(perturbed_traces, spheroid_trace, schw3m1, flat3):
    graph_residuals = {
        "perturbed N=200": L.area_law_residual(perturbed_traces[200]),
        "perturbed N=800": L.area_law_residual(perturbed_traces[800]),
        "spheroid": L.area_law_residual(spheroid_trace),
    }
    for name, res in graph_residuals.items():
        assert res < 1e-4, name
    sphere_specs = [(schw3m1, 4.0, 3.0), (flat3, 1.0, 3.0),
                    (L.ManifoldSpec.schwarzschild(5, 2.0), 3.0, 2.0)]
    for spec, r0, t_end in sphere_specs:
        res = L.area_law_residual(
            L.flow_sphere(L.CoordinateSphere(r0, spec), t_end))
        assert res < 1e-13
    print(f"ACCEPTANCE criterion 4: PASS (graph residuals "
          f"{max(graph_residuals.values()):.2e}, spheres at round-off)")


def test_criterion_05_mass_extraction():
    for n in NS:
        for m in MS:
            spec = L.ManifoldSpec.schwarzschild(n, m)
            f = L.sqrt_potential(spec)
            grid = np.geomspace(1.05 * spec.r_min if m > 0 else 0.5,
                                spec.r_max, 60)
            flux = np.asarray(L.adm_mass_flux(spec, f, grid))
            assert np.max(np.abs(flux - m)) < 1e-12
            fit = L.adm_mass_fit(spec, f, (100.0, 1000.0))
            assert abs(fit - m) <= 0.01 * max(1.0, abs(m))
    spec3 = {m: L.ManifoldSpec.schwarzschild(3, m) for m in MS}
    for m, spec in spec3.items():
        for r in sphere_r_grid(spec, m, num=8):
            geom = L.sphere_geometry(L.CoordinateSphere(float(r), spec))
            assert abs(geom.hawking_mass - m) < 1e-10
    print("ACCEPTANCE criterion 5: PASS (flux exact to 1e-12, fit within 1%, "
          "Hawking mass of round spheres equals m to 1e-10)")


def test_criterion_06_staticity_diagnostics():
    for n in NS:
        for m in MS:
            spec = L.ManifoldSpec.schwarzschild(n, m)
            grid = sphere_r_grid(spec, m, num=40)
            rr, tt = L.static_residual(spec, L.sqrt_potential(spec), grid)
            harm = L.harmonicity_residual(spec, L.sqrt_potential(spec), grid)
            assert max(np.max(np.abs(rr)), np.max(np.abs(tt))) < 1e-9
            assert np.max(np.abs(harm)) < 1e-9
            if m != 0:
                rr2, tt2 = L.static_residual(spec, L.profile_weight(spec), grid)
                harm2 = L.harmonicity_residual(spec, L.profile_weight(spec), grid)
                assert np.max(np.abs(np.stack([rr2, tt2]))) > 1e-3
                assert np.max(np.abs(harm2)) > 1e-3
    print("ACCEPTANCE criterion 6: PASS (sqrt(V) static to 1e-9; "
          "profile weight violates by > 1e-3)")


def test_criterion_07_negative_control_monotonicity(schw3m1):
    w = L.profile_weight(schw3m1)
    m = 1.0
    tr = L.flow_sphere(L.CoordinateSphere(4.0, schw3m1), 3.0)
    v = L.monotonicity_verdict(tr, L.attach_quantities(tr, w, m), eps_mono=1e-6)
    assert not v.monotone
    assert v.worst_increase > 1e-6
    print(f"ACCEPTANCE criterion 7: PASS (non-static weight drives Q up, "
          f"worst increase {v.worst_increase:.3e})")


def test_criterion_08_horizon_vanishing():
    worst = 0.0
    for n in NS:
        for m in (0.5, 1.0, 2.0):
            spec = L.ManifoldSpec.schwarzschild(n, m)
            f = L.sqrt_potential(spec)
            rh = L.horizon_radius(spec)
            assert rh == pytest.approx((2 * m) ** (1.0 / (n - 2)), abs=1e-11)
            with mpmath.workdps(40):
                root = mpmath.findroot(spec.profile.value, mpmath.mpf(rh))
                f_at_horizon = abs(complex(f.value(root)))
            worst = max(worst, float(f_at_horizon))
    assert worst < 1e-10
    print(f"ACCEPTANCE criterion 8: PASS (|f(r_h)| <= {worst:.2e} across the "
          f"positive-mass family)")


def test_criterion_09_classical_strictness(flat3):
    geom = L.graph_geometry(
        L.AxisymmetricGraph.from_function(spheroid_polar_radius, flat3, 400))
    d = L.slice_quantities(geom, L.constant_potential(1.0), 0.0).minkowski_deficit
    assert d == pytest.approx(SPHEROID_DEFICIT_ORACLE, abs=5e-5)
    assert d > 0.01  # strictly positive, far above discretization noise
    for r in (0.5, 1.0, 2.0, 10.0):
        s = L.sphere_geometry(L.CoordinateSphere(r, flat3))
        assert abs(L.slice_quantities(
            s, L.constant_potential(1.0), 0.0).minkowski_deficit) < 1e-10
    print(f"ACCEPTANCE criterion 9: PASS on strictness (spheroid deficit "
          f"{d:.7f} matches the pinned oracle {SPHEROID_DEFICIT_ORACLE:.7f}; "
          f"flat spheres at zero)")


def test_criterion_09_literal_threshold_contradicts_oracle(flat3):
    # The checklist's literal threshold, deficit > 0.1, cannot hold for the
    # 2:1 spheroid: its exact deficit is the elementary closed form
    # int H dA/(8 pi) - sqrt(area/(4 pi)) = 0.0728094..., linear in size, so
    # 0.1 would need the spheroid scaled by 1.37.  Pin the closed form to the
    # frozen quadrature oracle and the package's discrete geometry to the
    # closed form, then check that 0.1 lies above the exact value.
    exact = spheroid_deficit_closed()
    area, int_h, _ = spheroid_integrals()
    by_quadrature = int_h / (8 * math.pi) - math.sqrt(area / (4 * math.pi))
    geom = L.graph_geometry(
        L.AxisymmetricGraph.from_function(spheroid_polar_radius, flat3, 400))
    d = L.slice_quantities(geom, L.constant_potential(1.0), 0.0).minkowski_deficit
    numbers = (f"closed form {exact:.10f}, frozen oracle "
               f"{SPHEROID_DEFICIT_ORACLE:.10f}, package N=400 {d:.10f}, "
               f"literal threshold 0.1")
    assert exact == pytest.approx(SPHEROID_DEFICIT_ORACLE, rel=1e-12), numbers
    assert exact == pytest.approx(by_quadrature, rel=1e-12), numbers
    assert d == pytest.approx(exact, abs=5e-5), numbers
    assert exact < 0.1, numbers
    print(f"ACCEPTANCE criterion 9 (literal threshold): PASS ({numbers}; "
          f"0.1 needs the spheroid scaled by {0.1 / exact:.3f})")


SPHERE_CFG = """
[manifold]
family = schwarzschild
n = 3
m = 1.0

[surface]
kind = sphere
r0 = 4.0

[outputs]
id = sphere
"""

GRAPH_CFG = """
[manifold]
family = flat
n = 3

[surface]
kind = graph
rho0 = 2/sqrt(1 + 3*sin(theta)**2)

[solver]
N = 100
t_end = 0.5

[outputs]
id = spheroid
"""

BAD_KEY_CFG = SPHERE_CFG + "\ncolour = red\n"
HORIZON_CFG = SPHERE_CFG.replace("r0 = 4.0", "r0 = 1.5")
NEGCTL_CFG = SPHERE_CFG.replace("[surface]",
                                "[potential]\nkind = profile-weight\n\n[surface]")


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "imcflab", *argv],
                          capture_output=True, text=True, env=child_env())


def test_criterion_10_determinism_and_interface(tmp_path):
    # reruns must be byte-identical in CSV and JSON-modulo-volatile
    for name, text in (("sphere", SPHERE_CFG), ("spheroid", GRAPH_CFG)):
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(text)
        blobs = []
        for run in ("one", "two"):
            out = tmp_path / f"{name}-{run}"
            res = _cli("flow", "--config", str(cfg_file), "--out", str(out))
            assert res.returncode == 0, res.stderr
            csv_bytes = (out / f"{name}.csv").read_bytes()
            payload = json.loads((out / f"{name}.json").read_text())
            payload.pop("volatile")
            blobs.append((csv_bytes, payload))
        assert blobs[0][0] == blobs[1][0], f"{name}: CSV not byte-identical"
        assert blobs[0][1] == blobs[1][1], f"{name}: JSON summary differs"

    # exit-code contract on the three failing fixtures
    fixtures = (("badkey.cfg", BAD_KEY_CFG, 2),
                ("horizon.cfg", HORIZON_CFG, 2),
                ("negctl.cfg", NEGCTL_CFG, 4))
    for fname, text, expected in fixtures:
        path = tmp_path / fname
        path.write_text(text)
        res = _cli("flow", "--config", str(path), "--out", str(tmp_path / "o"))
        assert res.returncode == expected, (fname, res.returncode, res.stderr)
    print("ACCEPTANCE criterion 10: PASS (byte-identical reruns; exit codes "
          "2/2/4 for parse, horizon, monotonicity fixtures)")
