"""Declarative scenario runner.

A scenario is a sectioned key=value text document (INI syntax) with
sections [manifold], [potential], [surface], [solver], [analysis] and
[outputs].  Parsing is strict: unknown sections or keys are rejected by
name, required keys must be present, data-file keys must name files,
every float key must be finite, every ``[analysis]`` tolerance
non-negative, and ``[outputs]`` csv and json must name two files.
Semantic rules are checked by their owners while the parser builds the
model objects; it re-raises their errors as a :class:`ConfigError` that
names the key, so a config that parses never fails later on one of them:

* ``ManifoldSpec``: 3 <= n <= 7, r_min < r_max, V > 0, radii in (r_min, r_max]
  with r^(n-1) a normal float, and |1 - V| <= 2^26 on the initial slice
* ``AxisymmetricGraph``: graphs need n = 3 and pole regularity
* ``GraphGrid.make``: ``[solver] N`` even, 8 to 10,000 (every surface kind)
* ``flow.require_positive``: rel_tol positive and finite
* ``flow.require_reach``: t_end > 0 and the flow inside the domain
* ``flow.output_times``: dt_out positive and finite, at most 10,000 slices
* ``flow.require_mean_convex``: a strictly mean convex initial graph
* ``metrics.tail_in_domain``: the mass-fit tail inside the domain

Example
-------
    [manifold]
    family = schwarzschild
    n = 3
    m = 1.0

    [surface]
    kind = sphere
    r0 = 4.0

    [solver]
    t_end = 3.0

Running a scenario produces a :class:`RunReport` holding the per-slice
quantity table and named verdicts; :func:`emit_outputs` renders it as a
CSV table plus a JSON summary.  Identical configs produce byte-identical
CSV, and JSON identical except for the single "volatile" key that holds
the timestamp, the runtime and its per-phase timings.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import (ConfigError, FitQualityError, InsideHorizonError, LabError,
                     SolverFailureError)
from .expressions import evaluate_radius_expression
from .flow import (FlowTrace, area_law_residual, area_residual, flow_graph,
                   flow_sphere, output_times, require_mean_convex, require_reach,
                   require_positive)
from .metrics import (ManifoldSpec, RadialProfile, StaticPotential,
                      adm_mass_flux, adm_mass_fit, harmonicity_residual,
                      horizon_radius, profile_weight, rescale_to_unit,
                      sampled_potential, sqrt_potential, static_residual,
                      tail_in_domain)
from .quantities import attach_quantities, limit_target, monotonicity_verdict
from .surfaces import (AxisymmetricGraph, CoordinateSphere, GraphGrid, load_graph,
                       read_columns)

__all__ = [
    "ScenarioConfig",
    "RunReport",
    "parse_config",
    "load_config",
    "config_outputs",
    "run_scenario",
    "static_diagnostics",
    "emit_outputs",
    "exit_code_for",
    "summary_dict",
    "render_csv",
    "CSV_HEADER",
]

CSV_HEADER = "t,area,int_fH,Q,deficit,hawking,umb_deficit,area_residual"

_SCHEMA = {
    "manifold": {"family", "n", "m", "r_max", "r_min", "profile_file"},
    "potential": {"kind", "file"},
    "surface": {"kind", "r0", "rho0", "file"},
    "solver": {"N", "rel_tol", "dt_out", "t_end"},
    "analysis": {"eps_mono", "tail_lo", "tail_hi", "deficit_tol",
                 "static_tol", "area_tol"},
    "outputs": {"id", "csv", "json"},
}


class ScenarioConfig(NamedTuple):
    """A fully validated scenario: built objects plus the raw echo."""

    scenario_id: str
    manifold: ManifoldSpec
    weight: StaticPotential            # goes into the integral of f H
    reference_potential: StaticPotential  # defines the manifold mass
    potential_kind: str
    surface: object                    # CoordinateSphere | AxisymmetricGraph
    surface_kind: str
    t_end: float
    dt_out: float
    rel_tol: float
    eps_mono: float
    tail: tuple[float, float]
    deficit_tol: float
    static_tol: float
    area_tol: float
    csv_path: Path
    json_path: Path
    echo: dict = {}                    # shared default, never mutated


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _nonnegative(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise ValueError("must be non-negative")
    return value


def _get(parser, sec, key, conv=str, default=None, required=False):
    section = parser[sec] if parser.has_section(sec) else {}
    if key not in section:
        if required:
            raise ConfigError(f"missing required key [{sec}] {key}")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{sec}] {key}: {raw!r} ({exc})") from exc


def _existing(base_dir: Path, sec: str, key: str, name: str) -> Path:
    path = base_dir / name
    if not path.is_file():
        raise ConfigError(f"[{sec}] {key} is not an existing file: {path}")
    return path


def _sections(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="__default__")
    parser.optionxform = str  # keys are case sensitive; keeps N literal
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    return parser


def _outputs(parser, out_base: Path, default_id: str) -> tuple[str, Path, Path]:
    """The one naming rule of ``[outputs]``: the scenario id (default
    ``default_id``) and the CSV and JSON paths under ``out_base`` (default
    ``<id>.csv`` and ``<id>.json``), which must be two files."""
    scenario_id = _get(parser, "outputs", "id", default=default_id)
    csv_path = out_base / _get(parser, "outputs", "csv", default=f"{scenario_id}.csv")
    json_path = out_base / _get(parser, "outputs", "json", default=f"{scenario_id}.json")
    if csv_path.resolve() == json_path.resolve():
        raise ConfigError(f"[outputs] csv and [outputs] json name the same file: {csv_path}")
    return scenario_id, csv_path, json_path


@contextmanager
def _invalid(prefix: str):
    """Re-raise a model's ValueError or LabError as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, LabError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def parse_config(text: str, *, base_dir: Path | None = None,
                 out_dir: Path | None = None,
                 default_id: str = "scenario") -> ScenarioConfig:
    """Parse and validate a scenario document into built objects.

    Rejection is strict and names the offending key path.  ``base_dir``
    anchors relative input files, ``out_dir`` anchors output paths (both
    default to the current directory).
    """
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    parser = _sections(text)
    echo: dict = {}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key [{sec}] {key}")
        echo[sec] = dict(parser[sec])

    family = _get(parser, "manifold", "family", required=True).lower()
    n = _get(parser, "manifold", "n", int, default=3)
    r_max = _get(parser, "manifold", "r_max", _finite, default=1000.0)
    r_min = _get(parser, "manifold", "r_min", _finite, default=0.1)
    with _invalid("[manifold] invalid: "):
        if family == "schwarzschild":
            m_param = _get(parser, "manifold", "m", _finite, required=True)
            spec = ManifoldSpec.schwarzschild(n, m_param, r_max=r_max,
                                              r_min_floor=r_min)
        elif family == "flat":
            spec = ManifoldSpec.flat(n, r_max=r_max, r_min=r_min)
        elif family == "custom":
            pf = _get(parser, "manifold", "profile_file", required=True)
            profile = RadialProfile.from_samples(*read_columns(
                _existing(base_dir, "manifold", "profile_file", pf), "r, V"))
            spec = ManifoldSpec.custom(profile, n, r_min=r_min, r_max=r_max)
        else:
            raise ConfigError(
                f"[manifold] family must be schwarzschild, flat or custom, got {family!r}")

    pot_kind = _get(parser, "potential", "kind", default="static").lower()
    reference = sqrt_potential(spec)
    if pot_kind == "static":
        weight = reference
    elif pot_kind == "profile-weight":
        weight = profile_weight(spec)
    elif pot_kind == "file":
        pf = _get(parser, "potential", "file", required=True)
        with _invalid("[potential] invalid: "):
            weight = sampled_potential(*read_columns(
                _existing(base_dir, "potential", "file", pf), "r, f"))
        reference = weight
    else:
        raise ConfigError(
            f"[potential] kind must be static, profile-weight or file, got {pot_kind!r}")

    n_grid = _get(parser, "solver", "N", int, default=200)
    t_end = _get(parser, "solver", "t_end", _finite, default=3.0)
    with _invalid("[solver] N: "):
        grid = GraphGrid.make(n_grid)
    rel_tol = _get(parser, "solver", "rel_tol", _finite, default=1e-7)
    dt_out = _get(parser, "solver", "dt_out", _finite, default=0.1)
    with _invalid("[solver] "):
        require_positive("rel_tol", rel_tol)

    surf_kind = _get(parser, "surface", "kind", required=True).lower()
    with _invalid("[surface] invalid: "):
        try:
            if surf_kind == "sphere":
                r0 = _get(parser, "surface", "r0", _finite, required=True)
                surface = CoordinateSphere(r0, spec)
                r_outer = r0
            elif surf_kind == "graph":
                expr = _get(parser, "surface", "rho0")
                fpath = _get(parser, "surface", "file")
                if (expr is None) == (fpath is None):
                    raise ConfigError(
                        "[surface] graph needs exactly one of rho0 (expression) or file")
                if expr is not None:
                    rho0 = evaluate_radius_expression(expr, grid.theta)
                    surface = AxisymmetricGraph(grid.theta, rho0, spec)
                else:
                    surface = load_graph(_existing(base_dir, "surface", "file", fpath), spec)
                require_mean_convex(surface)
                r_outer = float(np.max(surface.rho))
            else:
                raise ConfigError(
                    f"[surface] kind must be sphere or graph, got {surf_kind!r}")
        except InsideHorizonError as exc:
            rh = horizon_radius(spec)
            where = f" (r_h={rh:g})" if rh is not None else ""
            raise ConfigError(f"[surface] surface inside horizon{where}: {exc}") from exc
    with _invalid("[solver] "):
        require_reach(spec, r_outer, t_end)
        output_times(t_end, dt_out)

    eps_default = 1e-6 * (200.0 / n_grid) ** 2  # matches the O(dtheta^2) scheme
    eps_mono = _get(parser, "analysis", "eps_mono", _nonnegative, default=eps_default)
    tail_lo = _get(parser, "analysis", "tail_lo", _finite,
                   default=max(100.0, 1.1 * spec.r_min))
    tail_hi = _get(parser, "analysis", "tail_hi", _finite, default=spec.r_max)
    with _invalid("[analysis] "):
        tail = tail_in_domain(spec, (tail_lo, tail_hi))
    deficit_tol = _get(parser, "analysis", "deficit_tol", _nonnegative, default=1e-8)
    static_tol = _get(parser, "analysis", "static_tol", _nonnegative, default=1e-8)
    area_tol = _get(parser, "analysis", "area_tol", _nonnegative, default=1e-4)

    scenario_id, csv_path, json_path = _outputs(
        parser, Path(out_dir) if out_dir is not None else base_dir, default_id)

    return ScenarioConfig(
        scenario_id=scenario_id, manifold=spec, weight=weight,
        reference_potential=reference, potential_kind=pot_kind,
        surface=surface, surface_kind=surf_kind, t_end=t_end, dt_out=dt_out,
        rel_tol=rel_tol, eps_mono=eps_mono, tail=tail, deficit_tol=deficit_tol,
        static_tol=static_tol, area_tol=area_tol,
        csv_path=csv_path, json_path=json_path, echo=echo)


def _read_config(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_config(path, out_dir=None) -> ScenarioConfig:
    """Read a scenario file; relative paths resolve against its directory."""
    path = Path(path)
    return parse_config(_read_config(path), base_dir=path.parent, out_dir=out_dir,
                        default_id=path.stem)


def config_outputs(path, out_dir=None) -> tuple[str, Path, Path]:
    """The scenario id, CSV path and JSON path that ``load_config(path,
    out_dir)`` would give, read from the file's ``[outputs]`` alone: no data
    file is read and no model is built.  Raises the ConfigError
    ``load_config`` would for an unreadable file, a syntax error or an
    ``[outputs]`` csv and json naming one file."""
    path = Path(path)
    return _outputs(_sections(_read_config(path)),
                    Path(out_dir) if out_dir is not None else path.parent, path.stem)


class RunReport(NamedTuple):
    """Everything one scenario run produced."""

    scenario_id: str
    rows: list                      # per output time, dicts keyed like the CSV
    verdicts: dict
    tolerances: dict
    echo: dict
    warnings: list
    trace: FlowTrace
    runtime_seconds: float
    timings: dict                   # wall seconds per phase of run_scenario


def static_diagnostics(cfg: ScenarioConfig) -> tuple[dict, str | None]:
    """Staticity verdicts shared by ``run_scenario`` and ``static-check``: the
    weight's largest static-equation and harmonicity residuals on a 200-point
    log grid, ``weight_is_static`` (both below static_tol), the mass flux at
    r_max, and the non-static warning (None if static or profile-weight).
    A non-finite mass flux is a ConfigError naming ``[manifold] r_max``."""
    spec = cfg.manifold
    lo = 1.1 * spec.r_min if spec.r_min > 0 else spec.r_max * 1e-4
    # a domain narrower than that start collapses the grid onto r_max
    grid = np.geomspace(min(max(lo, 1e-6), spec.r_max), spec.r_max, 200)
    # at huge r_max these overflow; a non-finite flux is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        s_rr, s_tt = static_residual(spec, cfg.weight, grid)
        harm = harmonicity_residual(spec, cfg.weight, grid)
        mass = float(adm_mass_flux(spec, cfg.reference_potential, spec.r_max))
    static_max = float(np.max(np.abs(np.stack([s_rr, s_tt]))))
    harmonic_max = float(np.max(np.abs(harm)))
    is_static = static_max < cfg.static_tol and harmonic_max < cfg.static_tol
    warning = None
    if cfg.potential_kind != "profile-weight" and not is_static:
        warning = (f"declared potential fails the static equation "
                   f"(max residual {static_max:.3e})")
    if not math.isfinite(mass):
        raise ConfigError(f"[manifold] r_max = {spec.r_max:g}: the mass flux there is {mass}")
    return {"static_residual_max": static_max, "harmonic_residual_max": harmonic_max,
            "weight_is_static": is_static, "mass_flux": mass}, warning


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute one scenario: diagnostics, mass, flow, quantities, verdicts."""
    marks = [time.perf_counter()]   # phase boundaries
    spec = cfg.manifold
    diag, warning = static_diagnostics(cfg)
    warnings = [warning] if warning else []
    marks.append(time.perf_counter())

    mass = diag["mass_flux"]
    try:
        ref = cfg.reference_potential
        if cfg.potential_kind == "file":
            ref = rescale_to_unit(spec, ref, cfg.tail)
        mass_fit = float(adm_mass_fit(spec, ref, cfg.tail))
    except FitQualityError as exc:
        mass_fit = None
        warnings.append(f"tail mass fit rejected: {exc}")
    marks.append(time.perf_counter())

    if cfg.surface_kind == "sphere":
        trace = flow_sphere(cfg.surface, cfg.t_end, cfg.dt_out)
    else:
        trace = flow_graph(cfg.surface, cfg.t_end, cfg.dt_out, cfg.rel_tol)
    if trace.status == "halted":
        if len(trace.times) < 2:  # one slice leaves no verdict to draw
            raise SolverFailureError(
                f"flow halted before its second output: {trace.halt_reason}", trace.stats)
        warnings.append(f"flow halted early: {trace.halt_reason}")
    marks.append(time.perf_counter())

    quantities = attach_quantities(trace, cfg.weight, mass)
    verdict = monotonicity_verdict(trace, quantities, cfg.eps_mono)
    rows = []
    for t, sq in zip(trace.times, quantities):
        rows.append({
            "t": float(t),
            "area": sq.area,
            "int_fH": sq.weighted_total_h,
            "Q": sq.q,
            "deficit": sq.minkowski_deficit,
            "hawking": sq.hawking_mass if sq.hawking_mass is not None else float("nan"),
            "umb_deficit": sq.umbilicity_deficit,
            "area_residual": area_residual(t, sq.area, trace.initial_area),
        })

    area_res = area_law_residual(trace)
    deficit0 = quantities[0].minkowski_deficit
    verdicts = {
        **verdict._asdict(),
        "deficit_initial": deficit0,
        "deficit_ok": bool(deficit0 >= -cfg.deficit_tol),
        "area_law_residual": area_res,
        "area_law_ok": bool(area_res <= cfg.area_tol),
        "mass_fit": mass_fit,
        **diag,
    }
    verdicts["overall_pass"] = bool(
        verdicts["monotone"] and verdicts["deficit_ok"]
        and verdicts["area_law_ok"] and trace.status == "completed")
    marks.append(time.perf_counter())

    tolerances = {
        "eps_mono": cfg.eps_mono, "deficit_tol": cfg.deficit_tol,
        "static_tol": cfg.static_tol, "area_tol": cfg.area_tol, "rel_tol": cfg.rel_tol,
    }
    return RunReport(
        scenario_id=cfg.scenario_id, rows=rows, verdicts=verdicts,
        tolerances=tolerances, echo=cfg.echo, warnings=warnings, trace=trace,
        runtime_seconds=time.perf_counter() - marks[0],
        timings={phase: end - start for phase, start, end in zip(
            ("diagnostics", "mass_fit", "flow", "quantities"), marks, marks[1:])})


# the CLI exit-code contract
EXIT_OK = 0             # every verdict passes
EXIT_UNEXPECTED = 1     # an unexpected error
EXIT_PARSE = 2          # parse/validation error, raised before a report exists
EXIT_SOLVER = 3         # solver failure, halt under strict, area-law violation
EXIT_MONOTONE = 4       # monotonicity violation
EXIT_DEFICIT = 5        # deficit violation
EXIT_STRICT = 6         # strict-mode warning escalation


def exit_code_for(report: RunReport, strict: bool = False) -> int:
    """Map a report to the CLI exit-code contract (the ``EXIT_*`` codes);
    a violated verdict outranks the ones after it."""
    if not report.verdicts["monotone"]:
        return EXIT_MONOTONE
    if not report.verdicts["deficit_ok"]:
        return EXIT_DEFICIT
    if not report.verdicts["area_law_ok"]:
        return EXIT_SOLVER
    if report.trace.status != "completed":
        return EXIT_SOLVER if strict else EXIT_OK
    if strict and report.warnings:
        return EXIT_STRICT
    return EXIT_OK


def summary_dict(report: RunReport) -> dict:
    """The deterministic part of the JSON summary."""
    n = report.trace.ambient.n
    return {
        "id": report.scenario_id,
        "version": __version__,
        "status": report.trace.status,
        "halt_reason": report.trace.halt_reason,
        "limit_target": limit_target(n),
        "verdicts": report.verdicts,
        "tolerances": report.tolerances,
        "warnings": list(report.warnings),
        "config": report.echo,
        "solver_stats": dict(report.trace.stats),
    }


def render_csv(report: RunReport) -> str:
    """Full-precision CSV text for the per-slice table."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    cols = CSV_HEADER.split(",")
    for row in report.rows:
        buf.write(",".join(repr(float(row[c])) for c in cols) + "\n")
    return buf.getvalue()


def write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as a new file.  An existing file is
    unlinked first: truncating it in place costs a flush to disk at close
    on ext4 (its ``auto_da_alloc`` rule, 20-60 ms a file), while a new file
    costs none.  So a symlink there is replaced, not written through, and
    other hard links keep the old contents."""
    path.unlink(missing_ok=True)
    path.write_text(text)


def emit_outputs(report: RunReport, csv_path, json_path) -> tuple[Path, Path]:
    """Write the CSV table and the JSON summary.

    The JSON is deterministic except for the single "volatile" key holding
    the timestamp, the runtime and its per-phase ``timings``.
    """
    csv_path, json_path = Path(csv_path), Path(json_path)
    payload = summary_dict(report)
    payload["volatile"] = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": report.runtime_seconds,
        "timings": report.timings,
    }
    for path, text in ((csv_path, render_csv(report)),
                       (json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_new(path, text)
        except OSError as exc:
            raise OSError(f"cannot write output {path}: {exc}") from exc
    return csv_path, json_path
