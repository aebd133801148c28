import json
import math
import subprocess
import sys

import numpy as np
import pytest

import imcflab as L
from imcflab.cli import main
from imcflab.errors import ConfigError
from imcflab.scenario import (CSV_HEADER, exit_code_for, parse_config,
                              render_csv, run_scenario, summary_dict)

from conftest import child_env

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


def custom_profile_config(tmp_path) -> str:
    """Write a tabulated m=1 Schwarzschild profile to tmp_path/prof.txt and
    return a sphere config on it (``family = custom``)."""
    r = np.linspace(2.5, 900.0, 5000)
    np.savetxt(tmp_path / "prof.txt", np.column_stack([r, 1 - 2 / r]))
    return ("[manifold]\nfamily = custom\nn = 3\nprofile_file = prof.txt\n"
            "r_min = 2.6\nr_max = 800\n"
            "[surface]\nkind = sphere\nr0 = 4.0\n[solver]\nt_end = 1.0\n"
            "[analysis]\ntail_lo = 100\ntail_hi = 800\n")


# (section, key, value) edits of a valid n=3, m=1, r0=4, t_end=3 sphere
# config, and what the exit-2 message must name
BAD_VALUES = [
    ([("solver", "dt_out", "0")], "[solver] dt_out"),
    ([("solver", "dt_out", "-0.1")], "[solver] dt_out"),
    ([("solver", "dt_out", "nan")], "[solver] dt_out"),
    ([("solver", "rel_tol", "0")], "[solver] rel_tol"),
    ([("solver", "rel_tol", "-1")], "[solver] rel_tol"),
    ([("solver", "cfl_safety", "0")], "[solver] cfl_safety"),
    ([("solver", "cfl_safety", "-1")], "[solver] cfl_safety"),
    ([("solver", "t_end", "nan")], "[solver] t_end"),
    ([("surface", "r0", "nan")], "[surface] r0"),
    ([("manifold", "m", "nan")], "[manifold] m"),
    # the flow reaches 4 e^1.5 = 17.92675628..., just beyond r_max
    ([("manifold", "r_max", "17.92675628"), ("analysis", "tail_lo", "10")],
     "[solver] t_end"),
    ([("manifold", "n", "2")], "3 <= n <= 7"),
]


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "imcflab", *argv],
                          capture_output=True, text=True, cwd=cwd, env=child_env())


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        assert cfg.manifold.n == 3
        assert cfg.manifold.mass_param == 1.0
        assert cfg.solver.rel_tol == 1e-7
        assert cfg.solver.dt_out == 0.1
        assert cfg.eps_mono == 1e-6
        assert cfg.t_end == 3.0
        assert cfg.surface_kind == "sphere"
        assert cfg.potential_kind == "static"

    def test_eps_mono_scales_with_grid(self, tmp_path):
        text = MINIMAL + "\n[solver]\nN = 400\n"
        cfg = parse_config(text, base_dir=tmp_path)
        assert cfg.eps_mono == pytest.approx(1e-6 / 4.0)

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="colour"):
            parse_config(MINIMAL + "\n[outputs]\ncolour = red\n")

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
        with pytest.raises(ConfigError, match=r"inside horizon \(r_h=2\)"):
            parse_config(MINIMAL.replace("r0 = 4.0", "r0 = 1.5"))

    def test_graph_requires_dimension_three(self):
        text = SPHEROID.replace("n = 3", "n = 4").replace("family = flat",
                                                          "family = flat")
        with pytest.raises(ConfigError, match="n = 3"):
            parse_config(text)

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
        assert cfg.manifold.mass_param is None
        report = run_scenario(cfg)
        assert report.verdicts["mass_flux"] == pytest.approx(1.0, abs=1e-3)


class TestRunScenario:
    def test_schwarzschild_sphere_end_to_end(self, tmp_path):
        cfg = parse_config(MINIMAL, base_dir=tmp_path)
        report = run_scenario(cfg)
        v = report.verdicts
        assert report.status == "completed"
        assert v["monotone"] and v["deficit_ok"] and v["area_law_ok"]
        assert v["overall_pass"]
        assert abs(v["worst_increase"]) < 1e-13
        assert v["mass_flux"] == pytest.approx(1.0, abs=1e-13)
        assert v["mass_fit"] == pytest.approx(1.0, abs=1e-2)
        assert v["weight_is_static"]
        assert len(report.rows) == 31
        qs = [row["Q"] for row in report.rows]
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

    def test_inside_horizon_exit_two(self, tmp_path):
        (tmp_path / "h.cfg").write_text(MINIMAL.replace("r0 = 4.0", "r0 = 1.5"))
        res = run_cli("flow", "--config", str(tmp_path / "h.cfg"))
        assert res.returncode == 2
        assert "inside horizon" in res.stderr

    @pytest.mark.parametrize("edits, named", BAD_VALUES,
                             ids=["+".join(f"{k}={v}" for _s, k, v in e)
                                  for e, _n in BAD_VALUES])
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, edits, named):
        sections = {"manifold": {"family": "schwarzschild", "n": "3", "m": "1.0"},
                    "surface": {"kind": "sphere", "r0": "4.0"},
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
            sq = L.slice_quantities(
                L.sphere_geometry(L.CoordinateSphere(r, spec)),
                L.sqrt_potential(spec), m)
            assert payload["area"] == sq.area
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

    def test_seed_flag_reserved_and_accepted(self, tmp_path):
        (tmp_path / "s.cfg").write_text(MINIMAL)
        res = run_cli("flow", "--config", str(tmp_path / "s.cfg"),
                      "--out", str(tmp_path), "--seed", "7")
        assert res.returncode == 0

    @staticmethod
    def _recording_pool(monkeypatch):
        """Replace the process pool by one that records its worker count
        and maps in-process, so no worker process is started."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return started

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
        started = self._recording_pool(monkeypatch)
        cfgs = self._two_configs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfgs), "--out", str(tmp_path / "out"),
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert started == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs, workers", [("64", [2]), ("2", [2]), ("1", [])])
    def test_sweep_starts_at_most_one_worker_per_config(self, tmp_path, monkeypatch,
                                                        jobs, workers):
        started = self._recording_pool(monkeypatch)
        cfgs = self._two_configs(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfgs), "--out", str(out),
                     "--jobs", jobs]) == 0
        assert started == workers
        agg = json.loads((out / "sweep_summary.json").read_text())
        assert [s["id"] for s in agg["scenarios"]] == ["a", "b"]


# Modules that only some runs need; a cold start must not load them.
LAZY_MODULES = ("scipy", "concurrent.futures.process", "mpmath")


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

    def test_custom_tabulated_profile_loads_scipy(self, tmp_path):
        (tmp_path / "c.cfg").write_text(custom_profile_config(tmp_path))
        assert cold_start(["flow", "--config", str(tmp_path / "c.cfg"),
                           "--out", str(tmp_path / "out")]) == {"loaded": ["scipy"],
                                                                "code": 0}
        assert (tmp_path / "out" / "c.csv").exists()
