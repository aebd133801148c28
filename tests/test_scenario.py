import gc
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import imcflab as L
from imcflab import cli
from imcflab.cli import main
from imcflab.errors import ConfigError, SolverFailureError
from imcflab.scenario import (_SCHEMA, CSV_HEADER, exit_code_for, parse_config,
                              render_csv, run_scenario, static_diagnostics,
                              summary_dict)
from imcflab.surfaces import CoordinateSphere

from conftest import child_env, negative_h_beyond

MINIMAL = """
[manifold]
family = schwarzschild
n = 3
m = 1.0

[surface]
kind = sphere
r0 = 4.0
"""

SPHEROID = """
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

NEGCTL = """
[manifold]
family = schwarzschild
n = 3
m = 1.0

[potential]
kind = profile-weight

[surface]
kind = sphere
r0 = 4.0

[outputs]
id = negctl
"""

# a round m = 1 graph; with negative_h_beyond(monkeypatch, 4 e^0.01) its flow
# halts with H <= 0 before the first output time 0.1
HALTS_AT_ONCE = MINIMAL.replace(
    "kind = sphere\nr0 = 4.0", "kind = graph\nrho0 = 4.0\n[solver]\nN = 100\nt_end = 1.0")
HALT_MESSAGE = "solver failure: flow halted before its second output: H<=0 "


def custom_profile_config(tmp_path) -> str:
    """Write a tabulated m=1 Schwarzschild profile to tmp_path/prof.txt and
    return a sphere config on it (``family = custom``)."""
    r = np.linspace(2.5, 900.0, 5000)
    np.savetxt(tmp_path / "prof.txt", np.column_stack([r, 1 - 2 / r]))
    return ("[manifold]\nfamily = custom\nn = 3\nprofile_file = prof.txt\n"
            "r_min = 2.6\nr_max = 800\n"
            "[surface]\nkind = sphere\nr0 = 4.0\n[solver]\nt_end = 1.0\n"
            "[analysis]\ntail_lo = 100\ntail_hi = 800\n")


def sampled_potential_config(tmp_path) -> str:
    """Write a tabulated sqrt(V) for m = -0.5 Schwarzschild, running past
    r_max (the mass flux differentiates it there), to tmp_path/pot.txt and
    return a sphere config weighted by it (``kind = file``)."""
    r = np.geomspace(1.0, 4000.0, 3000)
    np.savetxt(tmp_path / "pot.txt", np.column_stack([r, np.sqrt(1 + 1 / r)]))
    return ("[manifold]\nfamily = schwarzschild\nn = 3\nm = -0.5\n"
            "[potential]\nkind = file\nfile = pot.txt\n"
            "[surface]\nkind = sphere\nr0 = 4.0\n[solver]\nt_end = 1.0\n")


NOT_MEAN_CONVEX = "[surface] invalid: initial slice is not strictly mean convex"

# (section, key, value) edits of a valid n=3, m=1, r0=4, t_end=3 sphere
# config, and what the exit-2 message must name
BAD_VALUES = [
    ([("solver", "dt_out", "0")], "[solver] dt_out"),
    ([("solver", "dt_out", "-0.1")], "[solver] dt_out"),
    ([("solver", "dt_out", "nan")], "[solver] dt_out"),
    # cfl_safety is retired: any value is an unknown key, still named
    ([("solver", "cfl_safety", "0")], "[solver] cfl_safety"),
    ([("solver", "cfl_safety", "-1")], "[solver] cfl_safety"),
    ([("solver", "rel_tol", "0")], "[solver] rel_tol"),
    ([("solver", "rel_tol", "-1")], "[solver] rel_tol"),
    ([("solver", "t_end", "nan")], "[solver] t_end"),
    ([("surface", "r0", "nan")], "[surface] r0"),
    ([("manifold", "m", "nan")], "[manifold] m"),
    # the flow reaches 4 e^1.5 = 17.92675628..., just beyond r_max
    ([("manifold", "r_max", "17.92675628"), ("analysis", "tail_lo", "10")],
     "[solver] t_end"),
    ([("manifold", "n", "2")], "3 <= n <= 7"),
    # the only spelling is profile-weight
    ([("potential", "kind", "profile_weight")], "[potential] kind"),
    # a negative tolerance can never hold, so each verdict would be false
    ([("analysis", "static_tol", "-1")], "[analysis] static_tol"),
    ([("analysis", "eps_mono", "-1")], "[analysis] eps_mono"),
    ([("analysis", "area_tol", "-1")], "[analysis] area_tol"),
    ([("analysis", "deficit_tol", "-1")], "[analysis] deficit_tol"),
    # sizes past their caps; each fails its allocation or exp at once unchecked
    ([("solver", "dt_out", "1e-12")], "[solver] dt_out"),
    ([("solver", "dt_out", "1e-300")], "[solver] dt_out"),
    ([("solver", "dt_out", "5e-324")], "[solver] dt_out"),
    ([("solver", "t_end", "1e200")], "[solver] t_end"),
    ([("solver", "N", "1000000000000")], "[solver] N"),
    # initial graphs that are not strictly mean convex
    ([("surface", "kind", "graph"), ("surface", "rho0", "4 + 0.3*P2(cos(theta))"),
      ("manifold", "m", "1.9")], NOT_MEAN_CONVEX),
    ([("surface", "kind", "graph"), ("surface", "rho0", "2.1 + 0.1*P2(cos(theta))")],
     NOT_MEAN_CONVEX),
    # r^(n-1) overflows while f' underflows, so the mass flux at r_max is nan
    ([("manifold", "r_max", "1e300")], "[manifold] r_max"),
    ([("manifold", "n", "7"), ("manifold", "r_max", "1e60")], "[manifold] r_max"),
    ([("manifold", "family", "flat"), ("manifold", "r_max", "1e300")],
     "[manifold] r_max"),
    ([("manifold", "n", "5"), ("manifold", "m", "-1"), ("manifold", "r_max", "1e100")],
     "[manifold] r_max"),
    # radii whose area scale r^2 is below the normal float64 range: the area
    # underflows to 0 or to a subnormal, or the profile's 1/r overflows
    *[([("manifold", "m", m), ("manifold", "r_min", r_min), ("surface", "r0", r0)],
       f"[surface] invalid: sphere radius {float(r0):g} is so small")
      for m, r_min, r0 in (("0", "0", "1e-300"), ("-1", "5e-324", "1e-300"),
                           ("0", "0", "5e-324"), ("-1", "1e-320", "1e-160"))],
    ([("manifold", "m", "-1"), ("manifold", "r_min", "0"), ("surface", "kind", "graph"),
      ("surface", "rho0", "1e-300 + 0*theta")],
     "[surface] invalid: graph radius 1e-300 is so small"),
    ([("manifold", "family", "flat"), ("manifold", "r_min", "0"),
      ("surface", "r0", "1e-170")],
     "[surface] invalid: sphere radius 1e-170 is so small"),
    # slices where r^(n-2) << |m|: Q cancels terms about |1 - V| times its
    # size, and past |1 - V| = 2^26 (r0 = 2.9e-8 is just past it) Q would
    # keep fewer than 8 digits; at 1e-20 its rounding read as a violation
    *[([("manifold", "m", "-1"), ("manifold", "r_min", "0"), ("surface", "r0", r0),
        ("solver", "t_end", "1"), ("solver", "dt_out", "0.25")],
       f"[surface] invalid: sphere radius {r0} has |1 - V| = {2 / float(r0):.3g} beyond 2^26")
      for r0 in ("1e-20", "2.9e-08")],
    *[([("manifold", "m", "-1"), ("manifold", "r_min", "0"), ("surface", "kind", "graph"),
        ("surface", "rho0", f"{scale}*(1 + 0.1*P2(cos(theta)))")],
       f"[surface] invalid: graph radius {0.95 * float(scale):g} has |1 - V|")
      for scale in ("1e-30", "1e-150")],
    # expression errors: an unknown name, a bad call, a non-numeric constant,
    # and an overflow and a NaN, which raise no numpy warning
    *[([("surface", "kind", "graph"), ("surface", "rho0", rho0)], "[surface] rho0: ")
      for rho0 in ("abc", "sin(theta, 1)", "'4'", "10**400", "4 + sqrt(cos(theta))")],
]


def run_cli(*argv, cwd=None):
    """Run the CLI in a child process under the suite's RuntimeWarning filter."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "imcflab",
                           *argv], capture_output=True, text=True, cwd=cwd, env=child_env())


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, no child process is left running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        spec = cfg.surface.ambient
        assert spec.n == 3
        # m = 1: r_min is the horizon and 1 - V = 2m/r in closed form
        assert (spec.r_min, spec.r_max) == (2.0, 1000.0)
        assert spec.profile.mass_aspect(4.0) == 0.5
        assert cfg.rel_tol == 1e-7
        assert cfg.dt_out == 0.1
        assert cfg.eps_mono == 1e-6
        assert cfg.t_end == 3.0
        assert isinstance(cfg.surface, CoordinateSphere)
        assert cfg.potential_kind == "static"

    def test_readme_example_lists_every_key_and_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(example).scenario_id == "demo"
        blocks = dict(block.split("]\n", 1) for block in example.split("[")[1:])
        # a commented "; key = value" line lists its key too
        listed = {sec: set(re.findall(r"^(?:; )?(\w+) = ", body, re.M))
                  for sec, body in blocks.items()}
        assert listed == _SCHEMA

    def test_eps_mono_scales_with_grid(self, tmp_path):
        text = MINIMAL + "\n[solver]\nN = 400\n"
        cfg = parse_config(text, base_dir=tmp_path)
        assert cfg.eps_mono == pytest.approx(1e-6 / 4.0)

    # cfl_safety scaled a stability cap that the graph stepper no longer has
    @pytest.mark.parametrize("sec, key", [("outputs", "colour"), ("solver", "cfl_safety")])
    def test_unknown_key_rejected_by_name(self, sec, key):
        with pytest.raises(ConfigError, match=rf"unknown key \[{sec}\] {key}"):
            parse_config(MINIMAL + f"\n[{sec}]\n{key} = 0.5\n")

    @pytest.mark.parametrize("csv, json_name", [("x.out", "x.out"), ("x.out", "./x.out"),
                                                ("s.json", None)])
    def test_csv_and_json_naming_one_file_rejected(self, tmp_path, csv, json_name):
        keys = f"csv = {csv}\n" + ("" if json_name is None else f"json = {json_name}\n")
        with pytest.raises(ConfigError, match=r"\[outputs\] csv and \[outputs\] json "
                                              r"name the same file"):
            parse_config(MINIMAL + "\n[outputs]\nid = s\n" + keys, base_dir=tmp_path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="extras"):
            parse_config(MINIMAL + "\n[extras]\nx = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match=r"\[manifold\] m"):
            parse_config("[manifold]\nfamily = schwarzschild\n"
                         "[surface]\nkind = sphere\nr0 = 4.0\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match=r"\[surface\] r0"):
            parse_config(MINIMAL.replace("r0 = 4.0", "r0 = four"))

    def test_surface_inside_horizon(self):
        with pytest.raises(ConfigError, match=r"^\[surface\] invalid: sphere radius 1.5 "
                                              r"is at or inside the inner boundary r_min = 2$"):
            parse_config(MINIMAL.replace("r0 = 4.0", "r0 = 1.5"))

    def test_graph_parses_and_runs_in_every_dimension(self):
        # a graph config at n = 4..7 parses and runs, every verdict passing
        for n in range(4, 8):
            cfg = parse_config(SPHEROID.replace("n = 3", f"n = {n}"))
            assert isinstance(cfg.surface, L.AxisymmetricGraph)
            assert cfg.surface.ambient.n == n
            report = run_scenario(cfg)
            assert report.trace.status == "completed"
            assert report.verdicts["overall_pass"] and exit_code_for(report) == 0

    def test_flow_must_stay_in_domain(self):
        with pytest.raises(ConfigError, match="r_max"):
            parse_config(MINIMAL + "\n[solver]\nt_end = 20\n")

    def test_graph_rho_expression_and_pole_check(self):
        bad = SPHEROID.replace("2/sqrt(1 + 3*sin(theta)**2)",
                               "1 + 0.1*sin(theta)")
        with pytest.raises(ConfigError, match="pole"):
            parse_config(bad)

    def test_expression_language_is_sandboxed(self):
        bad = SPHEROID.replace("2/sqrt(1 + 3*sin(theta)**2)",
                               "__import__('os').system('true')")
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("table, match", [
        ("1 1\n2 1\n3 1\n", r"\[potential\] invalid: .*4 samples"),
        ("abc\n", r"\[potential\] invalid: could not convert")])
    def test_bad_potential_table_names_the_section(self, tmp_path, table, match):
        (tmp_path / "f.txt").write_text(table)
        text = MINIMAL.replace("[surface]", "[potential]\nkind = file\nfile = f.txt\n\n[surface]")
        with pytest.raises(ConfigError, match=match):
            parse_config(text, base_dir=tmp_path)

    def test_graph_from_file(self, tmp_path, schw3m1):
        g = L.AxisymmetricGraph.constant(4.0, schw3m1, 100)
        L.save_graph(tmp_path / "g.txt", g)
        text = ("[manifold]\nfamily = schwarzschild\nn = 3\nm = 1.0\n"
                "[surface]\nkind = graph\nfile = g.txt\n"
                "[solver]\nN = 100\nt_end = 0.5\n")
        cfg = parse_config(text, base_dir=tmp_path)
        assert cfg.surface.n_intervals == 100

    def test_custom_profile_file(self, tmp_path):
        cfg = parse_config(custom_profile_config(tmp_path), base_dir=tmp_path)
        # a tabulated profile has no closed-form mass aspect
        assert cfg.surface.ambient.profile.aspect is None
        report = run_scenario(cfg)
        assert report.verdicts["mass_flux"] == pytest.approx(1.0, abs=1e-3)


class TestRunScenario:
    def test_runtime_covers_its_phases(self, tmp_path):
        # the runtime is read after the last phase ends and inside the call,
        # so it lies between the sum of the phase timings and the call's time
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        start = time.perf_counter()
        report = run_scenario(cfg)
        elapsed = time.perf_counter() - start
        assert 0.0 < sum(report.timings.values()) <= report.runtime_seconds <= elapsed

    def test_schwarzschild_sphere_end_to_end(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        report = run_scenario(cfg)
        v = report.verdicts
        assert report.trace.status == "completed"
        assert v["monotone"] and v["deficit_ok"] and v["area_law_ok"]
        assert v["overall_pass"]
        assert abs(v["worst_increase"]) < 1e-13
        assert v["mass_flux"] == pytest.approx(1.0, abs=1e-13)
        assert v["mass_fit"] == pytest.approx(1.0, abs=1e-2)
        assert v["weight_is_static"]
        assert len(report.quantities) == 31
        qs = [sq.q for sq in report.quantities]
        assert max(qs) - min(qs) < 1e-12
        assert qs[0] == pytest.approx(4 * math.sqrt(math.pi), abs=1e-12)
        assert exit_code_for(report) == 0

    def test_flat_spheroid_scenario(self, tmp_path):
        cfg = parse_config(SPHEROID, base_dir=tmp_path)
        report = run_scenario(cfg)
        assert report.verdicts["deficit_initial"] > 0.05
        assert report.verdicts["monotone"]
        assert report.verdicts["overall_pass"]
        assert exit_code_for(report) == 0

    def test_negative_control_fails_monotonicity(self, tmp_path):
        cfg = parse_config(NEGCTL, base_dir=tmp_path)
        report = run_scenario(cfg)
        assert not report.verdicts["monotone"]
        assert report.verdicts["worst_increase"] > 1e-2
        assert not report.verdicts["weight_is_static"]
        assert report.verdicts["static_residual_max"] > 1e-3
        assert exit_code_for(report) == 4

    def test_exit_code_precedence_deficit(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        report = run_scenario(cfg)
        report.verdicts["deficit_ok"] = False
        assert exit_code_for(report) == 5
        report.verdicts["monotone"] = False
        assert exit_code_for(report) == 4  # monotonicity outranks deficit

    def test_rejected_tail_fit_warning_names_its_residual(self, tmp_path):
        # a sampled weight 1 + 1/r^3 rescales to 1 on the tail, but its
        # tail is no 1 - m/r: the fit leaves 23% of the signal unexplained
        text = sampled_potential_config(tmp_path)
        r = np.geomspace(1.0, 4000.0, 3000)
        np.savetxt(tmp_path / "pot.txt", np.column_stack([r, 1 + 1 / r**3]))
        report = run_scenario(parse_config(text, base_dir=tmp_path))
        assert report.verdicts["mass_fit"] is None
        [warning] = [w for w in report.warnings if w.startswith("tail mass fit rejected")]
        residual = re.search(r"relative residual (\S+),", warning)
        assert float(residual.group(1)) == pytest.approx(0.227409, rel=1e-5)
        assert "m_hat = " in warning and "tail [100, 1000]" in warning

    def test_default_tail_lies_inside_a_narrow_domain(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("m = 1.0", "m = 1.0\nr_max = 80"),
                           base_dir=tmp_path)
        assert cfg.tail == ((2.0 + 80.0) / 2, 80.0)
        report = run_scenario(cfg)
        assert report.verdicts["mass_fit"] == pytest.approx(1.0098, abs=1e-4)
        assert report.warnings == []
        assert exit_code_for(report) == 0

    def test_halt_on_lost_mean_convexity_warns(self, tmp_path, monkeypatch):
        negative_h_beyond(monkeypatch, 4.0 * math.exp(0.125))
        text = MINIMAL.replace("kind = sphere\nr0 = 4.0",
                               "kind = graph\nrho0 = 4.0\n[solver]\nN = 100\nt_end = 1.0")
        report = run_scenario(parse_config(text, base_dir=tmp_path))
        assert report.trace.halt_reason == "H<=0"
        assert list(report.trace.times) == pytest.approx([0.0, 0.1, 0.2])
        assert "flow halted early: H<=0" in report.warnings
        assert summary_dict(report)["status"] == "halted"
        assert exit_code_for(report) == 0
        assert exit_code_for(report, strict=True) == 3

    def test_halt_after_the_first_output_still_gives_verdicts(self, tmp_path,
                                                               monkeypatch):
        # two slices are the fewest a verdict reads; this flow halts near t = 0.15
        negative_h_beyond(monkeypatch, 4.0 * math.exp(0.075))
        report = run_scenario(parse_config(HALTS_AT_ONCE, base_dir=tmp_path))
        assert list(report.trace.times) == pytest.approx([0.0, 0.1])
        assert "flow halted early: H<=0" in report.warnings
        assert report.verdicts["monotone"] and report.verdicts["deficit_ok"]
        assert exit_code_for(report) == 0

    def test_halt_before_the_second_output_is_a_solver_failure(self, tmp_path,
                                                                monkeypatch):
        negative_h_beyond(monkeypatch, 4.0 * math.exp(0.01))
        with pytest.raises(SolverFailureError,
                           match="halted before its second output: H<=0") as exc:
            run_scenario(parse_config(HALTS_AT_ONCE, base_dir=tmp_path))
        stats = exc.value.diagnostics
        assert stats["steps"] >= 1 and stats["min_H"] <= 0.0


class TestStaticDiagnostics:
    @pytest.mark.parametrize("r_min, start", [(0.0, 1000.0 * 1e-4), (1e-7, 1e-6),
                                              (0.5, 1.1 * 0.5)])
    def test_grid_start(self, r_min, start):
        # the grid starts at 1.1 r_min, at r_max 1e-4 when r_min = 0, and
        # never below 1e-6.  The control f = V on m = -1/2 has the closed
        # forms S_rr = 2 m V / r^3 and S_tt = 2 m^2 / r^4 - m V / r^3, both
        # largest in size at the grid's start
        m = -0.5
        text = NEGCTL.replace("m = 1.0", f"m = {m}\nr_min = {r_min!r}")
        diag, warning = static_diagnostics(parse_config(text))
        r = np.geomspace(start, 1000.0, 200)
        v = 1.0 - 2.0 * m / r
        s_rr, s_tt = 2.0 * m * v / r**3, 2.0 * m**2 / r**4 - m * v / r**3
        assert diag["static_residual_max"] == pytest.approx(
            max(np.max(np.abs(s_rr)), np.max(np.abs(s_tt))), rel=1e-12)
        assert warning is None  # the control is known not to be static

    def test_tabulated_weight_is_diagnosed_on_its_table(self, tmp_path):
        # sqrt(1 + 1/r) on [1, 4000] is the static sqrt(V) of m = -1/2.  Below
        # r = 1 the spline extrapolates (a residual of 1.343e+03 at r = 0.11);
        # on the table's part [1, 1000] of the domain what is left is the
        # spline's own error, largest at the table's first knot
        cfg = parse_config(sampled_potential_config(tmp_path), base_dir=tmp_path)
        assert cfg.weight.support == (1.0, 4000.0)
        diag, warning = static_diagnostics(cfg)
        s_rr, s_tt = L.static_residual(cfg.surface.ambient, cfg.weight,
                                       np.geomspace(1.0, 1000.0, 200))
        assert diag["static_residual_max"] == np.max(np.abs([s_rr, s_tt]))
        assert diag["static_residual_max"] == pytest.approx(6.445e-5, rel=1e-3)
        assert warning == ("declared potential fails the static equation "
                           "(max residual 6.445e-05)")

    def test_grid_ends_at_r_max(self, tmp_path):
        # f = r^3 on V = 1 + 1/r: S_rr = 6 r V + 1 and S_tt = 9 r V - 2 grow
        # with r, so the largest residual is at r_max = 1000, inside the table
        cfg = parse_config(sampled_potential_config(tmp_path), base_dir=tmp_path)
        cube = L.StaticPotential(lambda r: r**3, lambda r: 3 * r**2, lambda r: 6 * r,
                                 support=(1.0, 2000.0))
        diag, _ = static_diagnostics(cfg._replace(weight=cube))
        assert diag["static_residual_max"] == pytest.approx(9 * 1001 - 2, rel=1e-13)

    @pytest.mark.parametrize("first, last, message", [
        pytest.param(0.01, 0.1, "the table's radii [0.01, 0.1] end at or before "
                     "r_max = 1000, where the mass flux is read", id="0.01-0.1"),
        pytest.param(1000.0, 4000.0, "the flow's slices span radii [4, 6.59489], "
                     "outside the table's radii [1000, 4000]", id="1000.0-4000.0")])
    def test_table_outside_the_domain_exits_two(self, tmp_path, capsys, first, last,
                                                message):
        # each table meets the domain (0.1, 1000] in one end point at most: the
        # first ends below r_max, the second starts above the sphere r0 = 4
        text = sampled_potential_config(tmp_path)
        r = np.geomspace(first, last, 50)
        np.savetxt(tmp_path / "pot.txt", np.column_stack([r, np.sqrt(1 + 1 / r)]))
        (tmp_path / "p.cfg").write_text(text)
        for command in ("flow", "static-check"):
            assert main([command, "--config", str(tmp_path / "p.cfg")]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: [potential] file: {message}\n"
            assert captured.out == ""
        assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("section, config", [
    ("[potential] invalid: ", "[manifold]\nfamily = schwarzschild\nn = 3\nm = -0.5\n"
     "r_max = 1e100\n[potential]\nkind = file\nfile = t.txt\n"),
    ("[manifold] ", "[manifold]\nfamily = custom\nn = 3\nprofile_file = t.txt\n"
     "r_max = 1e100\n")])
def test_a_table_too_steep_exits_two_naming_its_section(tmp_path, section, config):
    # 1 + 0.1 r^3 on 600 geometric knots to 1.2e100 overflows its spline's
    # end row; static-check once printed two RuntimeWarnings and read a nan
    # mass flux, and under the warning filter it exited 1
    r = np.geomspace(1.0, 1.2e100, 600)
    np.savetxt(tmp_path / "t.txt", np.column_stack([r, 1.0 + 0.1 * r**3]))
    (tmp_path / "p.cfg").write_text(config + "[surface]\nkind = sphere\nr0 = 4\n")
    for command in ("flow", "static-check"):
        res = run_cli(command, "--config", str(tmp_path / "p.cfg"))
        assert res.returncode == 2, res.stderr
        assert res.stderr == (f"config error: {section}the spline's coefficients overflow; "
                              "the table is too steep\n")
    assert not (tmp_path / "p.csv").exists()


class TestSlicesOnTheTable:
    # sqrt(1 + 1/r) tabulated on [1, 4000] over m = -1/2: Q reads the table
    # at every slice radius and the mass flux reads it at r_max, so a config
    # whose slices start below it, or whose table ends at or before r_max,
    # fails to parse: flow and static-check both exit 2 with one message

    @staticmethod
    def _write(tmp_path, text, **keys):
        for key, value in keys.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        (tmp_path / "p.cfg").write_text(text)
        return str(tmp_path / "p.cfg")

    @pytest.mark.parametrize("r0", [0.6, 0.3])
    def test_sphere_below_the_first_radius_exits_two(self, tmp_path, capsys, r0):
        path = self._write(tmp_path, sampled_potential_config(tmp_path), r0=r0, t_end=2)
        for command in ("flow", "static-check"):
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err == (
                "config error: [potential] file: the flow's slices span radii "
                f"[{r0:g}, {r0 * math.e:g}], outside the table's radii [1, 4000]\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("r0", [1.0, 2.0])  # 1 is the table's first radius
    def test_sphere_on_the_table_runs(self, tmp_path, r0):
        path = self._write(tmp_path, sampled_potential_config(tmp_path), r0=r0, t_end=2)
        assert main(["flow", "--config", path]) == 0
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 1 + 21

    def test_graph_below_the_first_radius_exits_two(self, tmp_path, capsys):
        # rho0 spans [0.9, 1.8]: its pole lies on the table, its equator below
        text = sampled_potential_config(tmp_path).replace(
            "kind = sphere\nr0 = 4.0", "kind = graph\nrho0 = 1.2 + 0.6*P2(cos(theta))")
        assert main(["flow", "--config", self._write(tmp_path, text, t_end=2)]) == 2
        assert capsys.readouterr().err == (
            "config error: [potential] file: the flow's slices span radii "
            f"[0.9, {1.8 * math.e:g}], outside the table's radii [1, 4000]\n")

    @pytest.mark.parametrize("last, r_max", [(4000, 5000), (1000, 1000)])
    def test_table_ending_at_or_before_r_max_exits_two(self, tmp_path, capsys, last,
                                                       r_max):
        # the mass flux at r_max would read the spline past the table, or at
        # its last radius, where the natural end condition sets f'' = 0; from
        # r0 = 4 with t_end 1 these exited 4 and 5, judged on that flux
        text = sampled_potential_config(tmp_path).replace("m = -0.5",
                                                          f"m = -0.5\nr_max = {r_max}")
        r = np.geomspace(1.0, last, 3000)
        np.savetxt(tmp_path / "pot.txt", np.column_stack([r, np.sqrt(1 + 1 / r)]))
        path = self._write(tmp_path, text)
        for command in ("flow", "static-check"):
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err == (
                f"config error: [potential] file: the table's radii [1, {last}] end at "
                f"or before r_max = {r_max}, where the mass flux is read\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("r0", "0.6", "the flow's slices span radii [0.6, 0.989233], "
                     "outside the table's radii [1, 4000]", id="below-first-radius"),
        pytest.param("m", "-0.5\nr_max = 5000", "the table's radii [1, 4000] end at or "
                     "before r_max = 5000, where the mass flux is read",
                     id="ends-before-r_max")])
    def test_parser_raises_each_rule(self, tmp_path, key, value, message):
        # no command runs: parse_config itself rejects the config
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}",
                      sampled_potential_config(tmp_path), flags=re.M)
        with pytest.raises(ConfigError) as exc:
            parse_config(text, base_dir=tmp_path)
        assert str(exc.value) == f"[potential] file: {message}"

    def test_slices_run_up_to_r_max_inside_the_table(self, tmp_path):
        # from r0 = 4, t_end 13.8 reaches 4 e^6.9 = 3971, within r_max = 3999,
        # and the table runs on to 4000
        text = sampled_potential_config(tmp_path).replace("m = -0.5", "m = -0.5\nr_max = 3999")
        cfg = L.load_config(self._write(tmp_path, text, t_end=13.8))
        radius = run_scenario(cfg).trace.geometries[-1].radii[0]
        assert radius == pytest.approx(4 * math.exp(6.9), rel=1e-14)
        assert radius < 3999


class TestEmitOutputs:
    def test_csv_contract(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path, out_dir=tmp_path)
        report = run_scenario(cfg)
        csv_path, json_path = L.emit_outputs(report, cfg.csv_path, cfg.json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 31
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert float(first[1]) == pytest.approx(64 * math.pi, rel=1e-15)
        payload = json.loads(json_path.read_text())
        assert payload["limit_target"] == pytest.approx(4 * math.sqrt(math.pi),
                                                        rel=1e-15)
        assert payload["verdicts"]["overall_pass"] is True
        assert "volatile" in payload and "timestamp_utc" in payload["volatile"]
        timings = payload["volatile"]["timings"]
        assert sorted(timings) == ["diagnostics", "flow", "mass_fit", "quantities"]
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= payload["volatile"]["runtime_seconds"]

    def test_json_area_residual_is_the_csv_maximum(self, tmp_path):
        # math.exp and np.exp differ in the last bit at some of these times
        text = (MINIMAL.replace("m = 1.0", "m = 1.0\nr_max = 1e4")
                .replace("r0 = 4.0", "r0 = 4.5") + "[solver]\nt_end = 4\ndt_out = 0.01\n")
        cfg = parse_config(text, base_dir=tmp_path, out_dir=tmp_path)
        csv_path, json_path = L.emit_outputs(run_scenario(cfg), cfg.csv_path,
                                             cfg.json_path)
        column = [float(line.split(",")[-1])
                  for line in csv_path.read_text().splitlines()[1:]]
        assert len(column) == 401
        verdicts = json.loads(json_path.read_text())["verdicts"]
        assert verdicts["area_law_residual"] == max(column)

    def test_reruns_byte_identical(self, tmp_path):
        texts = []
        summaries = []
        for _ in range(2):
            cfg = parse_config(MINIMAL, base_dir=tmp_path)
            report = run_scenario(cfg)
            texts.append(render_csv(report))
            summaries.append(summary_dict(report))
        assert texts[0] == texts[1]
        assert summaries[0] == summaries[1]

    def test_rerun_writes_new_files(self, tmp_path, capsys):
        # an existing output is unlinked, not truncated in place: a hard
        # link to the old CSV keeps the old rows, a symlinked JSON is
        # replaced, not written through, and the sweep summary alike
        cfg, out = tmp_path / "s.cfg", tmp_path / "out"
        argv = ["flow", "--config", str(cfg), "--out", str(out)]
        cfg.write_text(MINIMAL)
        assert main(argv) == 0
        old_rows = (out / "s.csv").read_text()
        os.link(out / "s.csv", tmp_path / "old.csv")
        (tmp_path / "target.json").write_text("kept\n")
        (out / "s.json").unlink()
        (out / "s.json").symlink_to(tmp_path / "target.json")
        cfg.write_text(MINIMAL.replace("r0 = 4.0", "r0 = 5.0"))
        assert main(argv) == 0
        assert (tmp_path / "old.csv").read_text() == old_rows
        area0 = float((out / "s.csv").read_text().splitlines()[1].split(",")[1])
        assert area0 == pytest.approx(100.0 * math.pi, rel=1e-15)
        assert (tmp_path / "target.json").read_text() == "kept\n"
        assert not (out / "s.json").is_symlink()
        assert json.loads((out / "s.json").read_text())["verdicts"]["overall_pass"]
        sweep = ["sweep", "--config", str(tmp_path), "--out", str(out)]
        assert main(sweep) == 0
        old_summary = (out / "sweep_summary.json").read_text()
        os.link(out / "sweep_summary.json", tmp_path / "old_summary.json")
        assert main(sweep) == 0
        assert (tmp_path / "old_summary.json").read_text() == old_summary
        # the same exit codes, new runtimes
        assert (out / "sweep_summary.json").read_text() != old_summary

    def test_unwritable_path_reports_path(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        report = run_scenario(cfg)
        bad = tmp_path / "file.csv"
        bad.write_text("x")
        with pytest.raises(OSError, match="out.csv|cannot write"):
            L.emit_outputs(report, bad / "out.csv", tmp_path / "x.json")


class TestCli:
    def test_flow_exit_zero_and_outputs(self, tmp_path):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        out = tmp_path / "out"
        res = run_cli("flow", "--config", str(tmp_path / "s.cfg"),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "s.csv").exists() and (out / "s.json").exists()

    def test_parse_error_exit_two(self, tmp_path):
        (tmp_path / "bad.cfg").write_text(MINIMAL + "\n[outputs]\ncolour = red\n")
        res = run_cli("flow", "--config", str(tmp_path / "bad.cfg"))
        assert res.returncode == 2
        assert "colour" in res.stderr

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        (tmp_path / "u.cfg").write_bytes(MINIMAL.encode() + b"; caf\xff\n")
        for command in ("flow", "static-check"):
            assert main([command, "--config", str(tmp_path / "u.cfg")]) == 2
            err = capsys.readouterr().err
            assert f"cannot read config {tmp_path / 'u.cfg'}" in err
        assert not (tmp_path / "u.csv").exists()

    def test_integer_literal_beyond_float64_exits_two(self, tmp_path, capsys):
        (tmp_path / "g.cfg").write_text(MINIMAL.replace(
            "kind = sphere\nr0 = 4.0", "kind = graph\nrho0 = 4 + 0*1" + "0" * 400))
        assert main(["flow", "--config", str(tmp_path / "g.cfg")]) == 2
        assert "[surface] rho0" in capsys.readouterr().err

    def test_inside_horizon_exit_two(self, tmp_path):
        (tmp_path / "h.cfg").write_text(MINIMAL.replace("r0 = 4.0", "r0 = 1.5"))
        res = run_cli("flow", "--config", str(tmp_path / "h.cfg"))
        assert res.returncode == 2
        assert res.stderr == ("config error: [surface] invalid: sphere radius 1.5 is at "
                              "or inside the inner boundary r_min = 2\n")

    @pytest.mark.parametrize("edits, named", BAD_VALUES,
                             ids=["+".join(f"{k}={v}" for _s, k, v in e)
                                  for e, _n in BAD_VALUES])
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, edits, named):
        sections = {"manifold": {"family": "schwarzschild", "n": "3", "m": "1.0"},
                    "potential": {}, "surface": {"kind": "sphere", "r0": "4.0"},
                    "solver": {"t_end": "3.0"}, "analysis": {}}
        for sec, key, value in edits:
            sections[sec][key] = value
        (tmp_path / "bad.cfg").write_text("".join(
            f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for sec, items in sections.items()))
        out = tmp_path / "out"
        assert main(["flow", "--config", str(tmp_path / "bad.cfg"),
                     "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("surface", ["kind = sphere\nr0 = 2.000000001",
                                         "kind = graph\nrho0 = 2.000000001"],
                             ids=["sphere", "graph"])
    def test_flow_just_outside_the_horizon_exits_zero(self, tmp_path, capsys, surface):
        # m = 1 puts r_min at the horizon r = 2
        (tmp_path / "h.cfg").write_text(
            MINIMAL.replace("kind = sphere\nr0 = 4.0", surface)
            + "\n[solver]\nN = 200\nt_end = 0.5\n")
        assert main(["flow", "--config", str(tmp_path / "h.cfg"),
                     "--out", str(tmp_path)]) == 0
        assert "status=completed" in capsys.readouterr().out
        assert len((tmp_path / "h.csv").read_text().splitlines()) == 1 + 6

    def test_monotonicity_violation_exit_four(self, tmp_path):
        (tmp_path / "n.cfg").write_text(NEGCTL)
        res = run_cli("flow", "--config", str(tmp_path / "n.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 4

    def test_static_check_json(self, tmp_path):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        res = run_cli("static-check", "--config", str(tmp_path / "s.cfg"))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["is_static"] is True
        assert payload["horizon_radius"] == pytest.approx(2.0, abs=1e-10)
        assert payload["mass_flux_at_r_max"] == pytest.approx(1.0, abs=1e-12)

    def test_static_check_rejects_non_finite_mass_flux(self, tmp_path, capsys):
        text = MINIMAL.replace("m = 1.0", "m = 1.0\nr_max = 1e300")
        (tmp_path / "s.cfg").write_text(text)
        assert main(["static-check", "--config", str(tmp_path / "s.cfg")]) == 2
        captured = capsys.readouterr()
        assert "[manifold] r_max" in captured.err and captured.out == ""

    def test_area_scale_beyond_float64_exits_two(self, tmp_path):
        # r0 = 1e200 lies in the domain, whose sphere area at r_max overflows
        (tmp_path / "a.cfg").write_text(MINIMAL)
        (tmp_path / "big.cfg").write_text(MINIMAL.replace(
            "m = 1.0", "m = 1.0\nr_max = 1e300").replace("r0 = 4.0", "r0 = 1e200"))
        message = ("config error: [manifold] r_max = 1e+300 gives an area scale r^2 "
                   "beyond the float64 range")
        for command in ("flow", "static-check"):
            res = run_cli(command, "--config", str(tmp_path / "big.cfg"))
            assert (res.returncode, res.stdout, res.stderr) == (2, "", message + "\n")
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", str(tmp_path), "--out", str(out), "--jobs", "2")
        assert res.returncode == 2 and f"[big] {message}" in res.stderr
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert agg["exit_codes"] == {"a": 0, "big": 2}

    def test_flux_guard_rejects_a_steep_weight(self, tmp_path):
        # the table runs past r_max = 1e100, where the cubic's flux
        # sqrt(V) f' r^2 = 3e-92 r^4 overflows while the area scale r^2 does
        # not.  A steeper cubic would overflow the spline's own end conditions,
        # which multiply f' by the square of the last knot interval
        r = np.geomspace(1.0, 1.2e100, 600)
        np.savetxt(tmp_path / "f.txt", np.column_stack([r, 1.0 + 1e-92 * r**3]))
        (tmp_path / "x.cfg").write_text(
            "[manifold]\nfamily = schwarzschild\nn = 3\nm = -0.5\nr_max = 1e100\n"
            "[potential]\nkind = file\nfile = f.txt\n[surface]\nkind = sphere\nr0 = 4\n")
        for command in ("flow", "static-check"):
            res = run_cli(command, "--config", str(tmp_path / "x.cfg"), cwd=tmp_path)
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr == ("config error: [manifold] r_max = 1e+100: "
                                  "the mass flux there is inf\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n", range(4, 8))
    def test_p2_graph_flows_exit_zero_in_every_dimension(self, tmp_path, n):
        # measured (2 vCPU x86-64, numpy 2.4, N = 200, t_end = 3): delta0
        # 1.26e-3 to 1.41e-3, worst Q rise -9.2e-6 to -1.2e-4 (monotone) and
        # area-law residual at most 2.9e-6 at m = +-1
        for m in (1, -1):
            (tmp_path / f"m{m}.cfg").write_text(
                f"[manifold]\nfamily = schwarzschild\nn = {n}\nm = {m}\n[surface]\n"
                "kind = graph\nrho0 = 4 + 0.3*P2(cos(theta))\n[solver]\nN = 200\nt_end = 3\n")
            assert main(["flow", "--config", str(tmp_path / f"m{m}.cfg")]) == 0
            v = json.loads((tmp_path / f"m{m}.json").read_text())["verdicts"]
            assert 1.2e-3 < v["delta_initial"] < 1.5e-3 and v["worst_increase"] < 0.0

    def test_mean_convexity_is_scale_free(self, tmp_path, capsys):
        # scaled by 2^20, the flat 4 + 0.3 P2 graph has min H = 4.4e-7, but
        # min H * max rho is that of the unscaled graph
        (tmp_path / "g.cfg").write_text(
            f"[manifold]\nfamily = flat\nn = 3\nr_max = {2.0**30}\n[surface]\nkind = graph\n"
            f"rho0 = {2.0**20}*(4 + 0.3*P2(cos(theta)))\n[solver]\nN = 100\nt_end = 0.5\n")
        assert main(["flow", "--config", str(tmp_path / "g.cfg")]) == 0
        assert "status=completed" in capsys.readouterr().out

    def test_homothetic_configs_give_the_same_q(self, tmp_path):
        # r -> 2 r with m -> 2 m (n = 3) maps the flow onto itself, Q is
        # scale-free, and scaling by 2 is exact
        def config(lam):
            return (f"[manifold]\nfamily = schwarzschild\nn = 3\nm = {lam * 1.0}\n"
                    f"r_min = {lam * 0.1}\nr_max = {lam * 1000.0}\n[surface]\nkind = graph\n"
                    f"rho0 = {lam * 4.0} + {lam * 0.3}*P2(cos(theta))\n"
                    f"[solver]\nN = 100\nt_end = 1.0\n"
                    f"[analysis]\ntail_lo = {lam * 100.0}\ntail_hi = {lam * 1000.0}\n")
        columns = []
        for lam in (1.0, 2.0):
            (tmp_path / f"s{lam:g}.cfg").write_text(config(lam))
            assert main(["flow", "--config", str(tmp_path / f"s{lam:g}.cfg")]) == 0
            rows = [line.split(",") for line in
                    (tmp_path / f"s{lam:g}.csv").read_text().splitlines()]
            t, q = rows[0].index("t"), rows[0].index("Q")
            columns.append([(row[t], row[q]) for row in rows[1:]])
        assert len(columns[0]) == 11 and columns[0] == columns[1]

    def test_negative_delta_exits_five_at_every_scale(self, tmp_path):
        # delta0 = Q0/Q_inf - 1 is scale-free, while the deficit has units
        # of length (n = 3): -9.8e-8 at lam = 1 but -6.1e-9 at lam = 1/16,
        # on either side of deficit_tol = 1e-8.  Scaling by 2^k is exact.
        def config(lam):
            return (f"[manifold]\nfamily = schwarzschild\nn = 3\nm = {lam * 1.0}\n"
                    f"r_min = {lam * 0.1}\nr_max = {lam * 1000.0}\n[surface]\nkind = graph\n"
                    f"rho0 = {lam * 4.0} + {lam * 0.1}*cos(theta)\n"
                    f"[solver]\nN = 100\nt_end = 1.0\n"
                    f"[analysis]\ntail_lo = {lam * 100.0}\ntail_hi = {lam * 1000.0}\n")
        deltas, deficits = set(), set()
        for k in range(-4, 5):
            (tmp_path / f"s{k}.cfg").write_text(config(2.0 ** k))
            assert main(["flow", "--config", str(tmp_path / f"s{k}.cfg")]) == 5
            v = json.loads((tmp_path / f"s{k}.json").read_text())["verdicts"]
            deltas.add(v["delta_initial"])
            deficits.add(v["deficit_initial"] / 2.0 ** k)
        assert len(deltas) == len(deficits) == 1
        assert deltas.pop() < -1e-8

    # domains that end below the start of static_diagnostics' probe grid
    @pytest.mark.parametrize("manifold, r0, tail", [
        ("family = flat\nr_min = 0.95\nr_max = 1.0", 0.97, (0.96, 1.0)),
        ("family = schwarzschild\nm = 1\nr_max = 2.1", 2.05, (2.02, 2.1)),
        ("family = flat\nr_min = 0\nr_max = 5e-7", 4e-7, (1e-7, 5e-7)),
    ], ids=["flat-shell", "schwarzschild-near-horizon", "flat-tiny"])
    def test_narrow_domain_exits_zero(self, tmp_path, manifold, r0, tail):
        (tmp_path / "d.cfg").write_text(
            f"[manifold]\nn = 3\n{manifold}\n[surface]\nkind = sphere\nr0 = {r0}\n"
            f"[solver]\nt_end = 0.01\n[analysis]\ntail_lo = {tail[0]}\n"
            f"tail_hi = {tail[1]}\n")
        cfg = str(tmp_path / "d.cfg")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert main(["static-check", "--config", cfg]) == 0

    def test_oracle_reference_values(self):
        res = run_cli("oracle", "--n", "3", "--m", "1.0", "--r", "4.0")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["H"] == pytest.approx(2 * math.sqrt(0.5) / 4, rel=1e-14)
        assert payload["int_fH"] == pytest.approx(16 * math.pi, rel=1e-14)
        assert payload["Q"] == pytest.approx(4 * math.sqrt(math.pi), rel=1e-14)
        assert payload["hawking_mass"] == 1.0

    @pytest.mark.parametrize("argv, message", [
        (["--n", "2"], "3 <= n <= 7"),
        (["--n", "8"], "3 <= n <= 7"),
        (["--n", "3", "--m", "1.0", "--r", "2.0"], "inside the horizon"),
        (["--n", "5", "--m", "2.0", "--r", "1.5"], "inside the horizon"),
        (["--n", "4", "--m", "-1.0", "--r", "-1.0"], "positive finite r"),
        (["--n", "3", "--m", "nan"], "finite m"),
        # spheres whose area r^(n-1) leaves the float64 range
        (["--n", "3", "--m", "1", "--r", "1e308"], "r^2 beyond the float64 range"),
        (["--n", "7", "--m", "1e300", "--r", "1e100"], "r^6 beyond the float64 range"),
        (["--n", "3", "--m", "0", "--r", "5e-324"], "r^2 is below the normal float64"),
        (["--n", "3", "--m", "-1", "--r", "1e-300"], "r^2 is below the normal float64"),
        # |1 - V| = inf and 2e300 at the sphere, beyond 2^26
        (["--n", "3", "--m=-1e300", "--r", "1e-100"], "oracle: sphere radius 1e-100 has"),
        (["--n", "3", "--m=-1e200", "--r", "1e-100"], "oracle: sphere radius 1e-100 has"),
        # the domain reaches r = 1e200, whose area r^2 overflows
        (["--n", "3", "--m", "1", "--r", "1e200"], "r^2 beyond the float64 range"),
    ])
    def test_oracle_rejections_exit_two(self, argv, message):
        res = run_cli("oracle", *argv)
        assert res.returncode == 2
        assert message in res.stderr
        assert res.stdout == ""

    def test_oracle_reads_the_sphere_chain(self):
        # beyond the default r_max, and a negative mass with no horizon
        for n, m, r in ((7, 2.0, 1500.0), (4, -1.0, 0.3)):
            res = run_cli("oracle", "--n", str(n), "--m", str(m), "--r", str(r))
            assert res.returncode == 0, res.stderr
            payload = json.loads(res.stdout)
            spec = L.ManifoldSpec.schwarzschild(n, m, r_max=r + 1.0,
                                                r_min_floor=0.1 * r)
            geom = L.sphere_geometry(L.CoordinateSphere(r, spec))
            sq = L.slice_quantities(geom, L.sqrt_potential(spec), m)
            assert payload["area"] == geom.area
            assert payload["int_fH"] == sq.weighted_total_h
            assert payload["Q"] == sq.q
            assert payload["minkowski_deficit"] == sq.minkowski_deficit
            assert payload["hawking_mass"] is None
            assert payload["Q"] == pytest.approx(L.limit_target(n), rel=1e-14)

    def test_sweep_aggregates_multiset_of_summaries(self, tmp_path):
        cfgs = self._two_configs(tmp_path)
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", str(cfgs), "--out", str(out),
                      "--jobs", "2")
        assert res.returncode == 0, res.stderr
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert [s["id"] for s in agg["scenarios"]] == ["a", "b"]
        assert agg["passed"] == 2 and agg["failed"] == 0
        # aggregate entries equal the per-scenario summaries on disk
        for sid in ("a", "b"):
            individual = json.loads((out / f"{sid}.json").read_text())
            individual.pop("volatile")
            assert individual in agg["scenarios"]

    def test_sweep_summary_volatile_holds_runtimes_only(self, tmp_path):
        cfgs = self._two_configs(tmp_path)
        (cfgs / "c.cfg").write_text(MINIMAL + "\n[analysis]\nstatic_tol = -1\n")
        texts = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert main(["sweep", "--config", str(cfgs), "--out", str(out)]) == 2
            agg = json.loads((out / "sweep_summary.json").read_text())
            runtimes = agg.pop("volatile")["runtime_seconds"]
            assert list(runtimes) == list(agg["exit_codes"]) == ["a", "b", "c"]
            assert all(type(w) is float and w > 0.0 for w in runtimes.values())
            texts.append(json.dumps(agg, indent=2, sort_keys=True))
        assert texts[0] == texts[1]
        assert sorted(agg) == ["exit_codes", "failed", "passed", "scenarios"]

    @pytest.mark.parametrize("command, flag", [
        ("flow", "--seed"), ("sweep", "--seed"),
        ("static-check", "--seed"), ("static-check", "--out")],
        ids=["flow-seed", "sweep-seed", "static-check-seed", "static-check-out"])
    def test_retired_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        config = tmp_path if command == "sweep" else tmp_path / "s.cfg"
        value = str(tmp_path / "out") if flag == "--out" else "7"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.cfg"]

    @pytest.mark.parametrize("named, text", [
        ("[manifold] profile_file", "[manifold]\nfamily = custom\nprofile_file = sub\n"
         "[surface]\nkind = sphere\nr0 = 4.0\n"),
        ("[potential] file", MINIMAL + "[potential]\nkind = file\nfile = sub\n"),
        ("[surface] file", MINIMAL.replace("kind = sphere\nr0 = 4.0", "kind = graph\nfile = sub")),
    ], ids=["profile_file", "potential-file", "surface-file"])
    def test_data_file_naming_a_directory_exits_two(self, tmp_path, capsys, named, text):
        (tmp_path / "sub").mkdir()
        (tmp_path / "s.cfg").write_text(text)
        out = tmp_path / "out"
        assert main(["flow", "--config", str(tmp_path / "s.cfg"), "--out", str(out)]) == 2
        assert f"{named} is not an existing file" in capsys.readouterr().err
        assert not out.exists()

    def test_flow_with_csv_and_json_naming_one_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "s.cfg").write_text(MINIMAL + "\n[outputs]\ncsv = x.out\njson = x.out\n")
        out = tmp_path / "out"
        assert main(["flow", "--config", str(tmp_path / "s.cfg"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "[outputs] csv and [outputs] json name the same file" in captured.err
        assert captured.out == "" and not out.exists()

    def test_in_process_main_freezes_nothing(self, tmp_path, capsys):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        frozen = gc.get_freeze_count()
        assert main(["flow", "--config", str(tmp_path / "s.cfg"),
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["oracle"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_process_entry_writes_what_main_writes(self, tmp_path, capsys):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        res = run_cli("flow", "--config", str(tmp_path / "s.cfg"),
                      "--out", str(tmp_path / "child"))
        assert res.returncode == 0, res.stderr
        assert main(["flow", "--config", str(tmp_path / "s.cfg"),
                     "--out", str(tmp_path / "here")]) == 0
        child, here = tmp_path / "child", tmp_path / "here"
        assert res.stdout == capsys.readouterr().out.replace(str(here), str(child))
        assert (child / "s.csv").read_bytes() == (here / "s.csv").read_bytes()
        summaries = [json.loads((d / "s.json").read_text()) for d in (child, here)]
        for summary in summaries:
            summary.pop("volatile")
        assert summaries[0] == summaries[1]

    def test_run_freezes_before_the_interpreter_exits(self, tmp_path):
        # atexit handlers run after run() has raised SystemExit
        probe = ("import atexit, gc, sys\nfrom imcflab import cli\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
                 "sys.argv = ['imcflab', 'oracle', '--n', '2']\ncli.run()\n")
        res = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, env=child_env())
        assert res.returncode == 2
        assert "3 <= n <= 7" in res.stderr
        label, count = res.stdout.split()
        assert label == "frozen" and int(count) > 0

    def test_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"imcflab": "imcflab.cli:run"}

    @staticmethod
    def _fork_spy(monkeypatch):
        """Record the pid of every child ``os.fork`` makes from now on."""
        forks, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @staticmethod
    def _two_configs(tmp_path):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        (cfgs / "a.cfg").write_text(MINIMAL + "\n[outputs]\nid = a\n")
        (cfgs / "b.cfg").write_text(
            MINIMAL.replace("r0 = 4.0", "r0 = 6.0") + "\n[outputs]\nid = b\n")
        return cfgs

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_sweep_jobs_below_one_is_parse_error(self, tmp_path, monkeypatch,
                                                 capsys, jobs):
        forks = self._fork_spy(monkeypatch)
        cfgs = self._two_configs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfgs), "--out", str(tmp_path / "out"),
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert forks == []
        assert not (tmp_path / "out").exists()

    # workers: the worker count of each sweep that forks
    @pytest.mark.parametrize("jobs, workers", [("64", [2]), ("2", [2]), ("1", [])])
    def test_sweep_starts_at_most_one_worker_per_config(self, tmp_path, monkeypatch,
                                                        jobs, workers):
        forks = self._fork_spy(monkeypatch)
        cfgs = self._two_configs(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", jobs]) == 0
        assert len(forks) == sum(workers)
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert [s["id"] for s in agg["scenarios"]] == ["a", "b"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_records_failing_configs_and_goes_on(self, tmp_path, monkeypatch,
                                                       capfd, jobs):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        for name in ("a", "c", "d"):
            (cfgs / f"{name}.cfg").write_text(MINIMAL)
        (cfgs / "b.cfg").write_text(MINIMAL + "\n[analysis]\nstatic_tol = -1\n")
        real_run = cli.run_scenario

        def run_scenario(cfg):
            if cfg.scenario_id == "c":
                raise SolverFailureError("step size underflow", {"t": 0.5})
            return real_run(cfg)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        out = tmp_path / "out"
        # the first nonzero code by id
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", jobs]) == 2
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert agg["exit_codes"] == {"a": 0, "b": 2, "c": 3, "d": 0}
        assert agg["passed"] == 2 and agg["failed"] == 2
        assert [s["id"] for s in agg["scenarios"]] == ["a", "b", "c", "d"]
        assert sorted(p.name for p in out.glob("*.csv")) == ["a.csv", "d.csv"]
        # forked workers write to fd 2
        err = capfd.readouterr().err
        assert "[b] config error: " in err and "static_tol" in err
        assert "[c] solver failure: step size underflow" in err
        line = next(x for x in err.splitlines() if x.startswith("[c] "))
        assert json.loads(line[line.index("{"):]) == {"t": 0.5}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_rejects_configs_sharing_an_id(self, tmp_path, monkeypatch,
                                                 capsys, jobs):
        forks = self._fork_spy(monkeypatch)
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        (cfgs / "a.cfg").write_text(MINIMAL + "\n[outputs]\nid = same\n")
        (cfgs / "b.cfg").write_text(NEGCTL.replace("id = negctl", "id = same"))
        # a config that fails is recorded under its file stem
        (cfgs / "c.cfg").write_text(MINIMAL + "\n[outputs]\ncolour = red\n")
        (cfgs / "d.cfg").write_text(MINIMAL + "\n[outputs]\nid = c\n")
        (cfgs / "e.cfg").write_text(MINIMAL)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "config error: " in err
        assert "'same' is shared by configs a.cfg and b.cfg" in err
        assert "'c' is shared by configs c.cfg and d.cfg" in err
        assert not (out / "sweep_summary.json").exists()
        assert forks == []

    def test_sweep_rejects_configs_sharing_an_output_file(self, tmp_path, capsys):
        cfgs = self._two_configs(tmp_path)
        for name in ("a", "b"):
            with (cfgs / f"{name}.cfg").open("a") as cfg:
                cfg.write("csv = same.csv\n")
        assert main(["sweep", "--config", str(cfgs)]) == 2
        err = capsys.readouterr().err
        assert (f"output file {(cfgs / 'same.csv').resolve()} is shared by configs "
                f"a.cfg and b.cfg") in err
        assert "a.json" not in err and "b.json" not in err
        assert not (cfgs / "sweep_summary.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rejected_sweep_writes_nothing(self, tmp_path, monkeypatch, capsys, jobs):
        forks = self._fork_spy(monkeypatch)
        cfgs = self._two_configs(tmp_path)
        for name in ("a", "b"):
            with (cfgs / f"{name}.cfg").open("a") as cfg:
                cfg.write("csv = same.csv\n")
        assert main(["sweep", "--config", str(cfgs), "--jobs", jobs]) == 2
        assert "is shared by configs a.cfg and b.cfg" in capsys.readouterr().err
        assert sorted(p.name for p in cfgs.iterdir()) == ["a.cfg", "b.cfg"]
        assert forks == []

    @pytest.mark.parametrize("out", [None, "out"])
    def test_sweep_reserves_its_summary_file(self, tmp_path, capsys, out):
        cfgs = self._two_configs(tmp_path)
        argv = ["sweep", "--config", str(cfgs)]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
            name = f"../{out}/sweep_summary.json"
        else:
            name = "sweep_summary.json"
        with (cfgs / "b.cfg").open("a") as cfg:
            cfg.write(f"json = {name}\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config b.cfg writes" in err and "the sweep's summary file" in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.cfg", "b.cfg", "cfgs"]

    def test_flow_halting_before_its_second_output_exits_three(self, tmp_path,
                                                               monkeypatch, capsys):
        negative_h_beyond(monkeypatch, 4.0 * math.exp(0.01))
        (tmp_path / "halt.cfg").write_text(HALTS_AT_ONCE)
        out = tmp_path / "out"
        assert main(["flow", "--config", str(tmp_path / "halt.cfg"),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(HALT_MESSAGE)
        stats = json.loads(err[len(HALT_MESSAGE):])
        assert stats["steps"] >= 1 and stats["min_H"] <= 0.0
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_records_a_flow_halting_before_its_second_output(
            self, tmp_path, monkeypatch, capfd, jobs):
        negative_h_beyond(monkeypatch, 4.0 * math.exp(0.01))
        cfgs = self._two_configs(tmp_path)
        (cfgs / "a_halt.cfg").write_text(HALTS_AT_ONCE)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", jobs]) == 3
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert agg["exit_codes"] == {"a": 0, "a_halt": 3, "b": 0}
        assert sorted(p.name for p in out.glob("*.csv")) == ["a.csv", "b.csv"]
        assert f"[a_halt] {HALT_MESSAGE}" in capfd.readouterr().err

    def test_sweep_records_a_failing_config_under_its_id(self, tmp_path, capsys):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        (cfgs / "a.cfg").write_text(MINIMAL + "\n[analysis]\nstatic_tol = -1\n"
                                    "[outputs]\nid = x\n")
        # no [outputs] can be read from a syntax error, so its stem stands
        (cfgs / "b.cfg").write_text("not an ini document\n")
        assert main(["sweep", "--config", str(cfgs)]) == 2
        agg = json.loads((cfgs / "sweep_summary.json").read_text())
        assert agg["exit_codes"] == {"b": 2, "x": 2}
        err = capsys.readouterr().err
        assert "[x] config error: " in err and "[b] config error: " in err

    def test_sweep_records_a_config_that_is_not_utf8(self, tmp_path, capsys):
        cfgs, out = tmp_path / "cfgs", tmp_path / "out"
        cfgs.mkdir()
        (cfgs / "a.cfg").write_text(MINIMAL)
        (cfgs / "b.cfg").write_bytes(MINIMAL.encode() + b"; caf\xff\n")
        assert main(["sweep", "--config", str(cfgs), "--out", str(out)]) == 2
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert agg["exit_codes"] == {"a": 0, "b": 2}
        assert "cannot read config" in agg["scenarios"][1]["error"]
        assert sorted(p.name for p in out.glob("*.csv")) == ["a.csv"]

    def _dying_worker(self, monkeypatch, action):
        """Make the forked worker that runs config b call ``action``."""
        parent, real_run = os.getpid(), cli.run_scenario

        def run_scenario(cfg):
            if cfg.scenario_id == "b":
                assert os.getpid() != parent, "config b ran in the test process"
                action()
            return real_run(cfg)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)

    @pytest.mark.parametrize("death, reported", [
        (lambda: os._exit(9), "exited with code 9"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")],
        ids=["exit", "kill"])
    def test_sweep_worker_death_exits_one_naming_its_configs(self, tmp_path, monkeypatch,
                                                             capfd, death, reported):
        self._dying_worker(monkeypatch, death)
        cfgs, out = self._two_configs(tmp_path), tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", "2"]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: sweep failed: worker ")
        assert reported in err
        # a is worker 0's share and came back; b is the dead worker's
        assert err.splitlines()[-1].endswith("; no result for configs: b.cfg")
        assert not (out / "sweep_summary.json").exists()

    def test_sweep_without_fork_runs_in_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        parent, real_run, pids = os.getpid(), cli.run_scenario, []

        def run_scenario(cfg):
            pids.append(os.getpid())
            return real_run(cfg)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        cfgs, out = self._two_configs(tmp_path), tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", "2"]) == 0
        assert pids == [parent, parent]
        assert "sweep: 2 passed, 0 failed" in capsys.readouterr().out

    def test_sweep_worker_exception_prints_its_traceback(self, tmp_path, monkeypatch,
                                                         capfd):
        def boom():
            raise RuntimeError("boom")

        self._dying_worker(monkeypatch, boom)
        cfgs, out = self._two_configs(tmp_path), tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", "2"]) == 1
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err
        assert "exited with code 1" in err
        assert err.splitlines()[-1].endswith("; no result for configs: b.cfg")
        assert not (out / "sweep_summary.json").exists()

    def test_sweep_workers_take_fixed_shares(self, tmp_path, monkeypatch):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        for k in range(1, 6):
            (cfgs / f"c{k}.cfg").write_text(
                MINIMAL.replace("r0 = 4.0", f"r0 = {3 + k}.0") + f"\n[outputs]\nid = c{k}\n")
        log, real_run = tmp_path / "ran.log", cli.run_scenario

        def run_scenario(cfg):
            with open(log, "a") as fh:  # appends of one short line do not interleave
                fh.write(f"{cfg.scenario_id} {os.getpid()}\n")
            return real_run(cfg)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        forks = self._fork_spy(monkeypatch)
        assert main(["sweep", "--config", str(cfgs), "--out", str(tmp_path / "out"),
                     "--jobs", "2"]) == 0
        shares = {}
        for line in log.read_text().splitlines():
            sid, pid = line.split()
            shares.setdefault(int(pid), []).append(sid)
        # worker w of 2 runs the sorted configs w, w + 2, w + 4, in order
        assert shares == {forks[0]: ["c1", "c3", "c5"], forks[1]: ["c2", "c4"]}

    @pytest.mark.parametrize("jobs", ["2", "3", "8"])
    def test_forked_sweep_runs_each_config_once_as_jobs_one_does(self, tmp_path,
                                                                 monkeypatch, jobs):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        texts = {
            "s4": MINIMAL, "s6": MINIMAL.replace("r0 = 4.0", "r0 = 6.0"),
            "n5": MINIMAL.replace("n = 3", "n = 5"), "negctl": NEGCTL,
            "bad": MINIMAL + "\n[analysis]\nstatic_tol = -1\n",
            "graph": MINIMAL.replace("kind = sphere\nr0 = 4.0",
                                     "kind = graph\nrho0 = 4 + 0.3*P2(cos(theta))")
            + "\n[solver]\nN = 40\nt_end = 0.5\n"}
        for name, text in texts.items():
            (cfgs / f"{name}.cfg").write_text(text)
        log, real_run = tmp_path / "ran.log", cli.run_scenario

        def run_scenario(cfg):
            with open(log, "a") as fh:  # appends of one short line do not interleave
                fh.write(cfg.scenario_id + "\n")
            return real_run(cfg)

        monkeypatch.setattr(cli, "run_scenario", run_scenario)
        forks = self._fork_spy(monkeypatch)
        runs = {}
        for run in ("1", jobs):
            out = tmp_path / f"jobs{run}"
            assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                         "--jobs", run]) == 2
            runs[run] = out
            lines = log.read_text().split()
            log.unlink()
            # the bad config fails in parsing, before run_scenario
            assert sorted(lines) == sorted(set(texts) - {"bad"})
        assert len(forks) == min(int(jobs), len(texts))
        outputs = sorted(p.name for p in runs["1"].iterdir())
        assert outputs == sorted(p.name for p in runs[jobs].iterdir())
        assert len(outputs) == 2 * len(texts) - 1
        for name in outputs:
            one, many = (runs[r] / name for r in ("1", jobs))
            if name.endswith(".csv"):
                assert one.read_bytes() == many.read_bytes(), name
            else:
                summaries = [json.loads(p.read_text()) for p in (one, many)]
                for summary in summaries:
                    summary.pop("volatile")
                assert summaries[0] == summaries[1], name


# Modules that only some runs need; a cold start must not load them.
LAZY_MODULES = ("scipy", "concurrent.futures", "multiprocessing", "dataclasses", "mpmath")


def cold_start(argv=None) -> dict:
    """In a fresh interpreter, import imcflab and, given ``argv``, run the
    CLI on it; report which LAZY_MODULES got loaded and the exit code."""
    run = "" if argv is None else f"import imcflab.cli\ncode = imcflab.cli.main({argv!r})\n"
    probe = (f"import json, sys\nimport imcflab\ncode = None\n{run}"
             f"print(json.dumps({{'loaded': [m for m in {LAZY_MODULES!r} "
             f"if m in sys.modules], 'code': code}}))")
    res = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


class TestColdStart:
    def test_import_loads_no_scipy_and_no_process_pool(self):
        assert cold_start() == {"loaded": [], "code": None}

    def test_schwarzschild_sphere_flow_loads_no_scipy(self, tmp_path):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        assert cold_start(["flow", "--config", str(tmp_path / "s.cfg"),
                           "--out", str(tmp_path / "out")]) == {"loaded": [], "code": 0}
        assert (tmp_path / "out" / "s.csv").exists()

    def test_schwarzschild_graph_flow_loads_no_scipy(self, tmp_path):
        (tmp_path / "g.cfg").write_text(
            MINIMAL.replace("kind = sphere\nr0 = 4.0",
                            "kind = graph\nrho0 = 4 + 0.3*P2(cos(theta))")
            + "\n[solver]\nN = 40\nt_end = 0.5\n")
        assert cold_start(["flow", "--config", str(tmp_path / "g.cfg"),
                           "--out", str(tmp_path / "out")]) == {"loaded": [], "code": 0}
        assert (tmp_path / "out" / "g.csv").exists()

    def test_custom_tabulated_profile_loads_no_scipy(self, tmp_path):
        (tmp_path / "c.cfg").write_text(custom_profile_config(tmp_path))
        assert cold_start(["flow", "--config", str(tmp_path / "c.cfg"),
                           "--out", str(tmp_path / "out")]) == {"loaded": [], "code": 0}
        assert (tmp_path / "out" / "c.csv").exists()

    def test_sweep_over_tabulated_inputs_loads_no_scipy(self, tmp_path):
        # a custom profile and a sampled potential, the sweep's spline paths
        (tmp_path / "c.cfg").write_text(custom_profile_config(tmp_path))
        (tmp_path / "p.cfg").write_text(sampled_potential_config(tmp_path))
        assert cold_start(["sweep", "--config", str(tmp_path), "--jobs", "1",
                           "--out", str(tmp_path / "out")]) == {"loaded": [], "code": 0}
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert summary["exit_codes"] == {"c": 0, "p": 0}

    def test_forked_sweep_loads_no_process_pool(self, tmp_path):
        (tmp_path / "a.cfg").write_text(MINIMAL)
        (tmp_path / "b.cfg").write_text(NEGCTL)
        assert cold_start(["sweep", "--config", str(tmp_path), "--jobs", "2",
                           "--out", str(tmp_path / "out")]) == {"loaded": [], "code": 4}
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert summary["exit_codes"] == {"a": 0, "negctl": 4}

    def test_static_check_horizon_search_loads_no_scipy(self, tmp_path):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        assert cold_start(["static-check", "--config",
                           str(tmp_path / "s.cfg")]) == {"loaded": [], "code": 0}
