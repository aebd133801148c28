"""Declarative scenario runner.

A scenario is a sectioned key=value text document (INI syntax) with
sections [manifold], [potential], [surface], [solver], [analysis] and
[outputs].  Parsing is strict: unknown sections or keys are rejected by
name, required keys must be present, and semantic constraints (surface
outside the horizon, flow staying inside the working domain, tails inside
the domain) are validated up front so runs fail before any stepping.

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
the timestamp and runtime.
"""

from __future__ import annotations

import configparser
import io
import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, DomainError, FitQualityError,
                     InsideHorizonError, LabError)
from .expressions import evaluate_radius_expression
from .flow import FlowTrace, SolverParams, area_law_residual, flow_graph, flow_sphere
from .metrics import (ManifoldSpec, RadialProfile, StaticPotential,
                      adm_mass_flux, adm_mass_fit, harmonicity_residual,
                      horizon_radius, profile_weight, rescale_to_unit,
                      sampled_potential, sqrt_potential, static_residual)
from .quantities import attach_quantities, limit_target, monotonicity_verdict
from .surfaces import AxisymmetricGraph, CoordinateSphere, load_graph

__all__ = [
    "ScenarioConfig",
    "RunReport",
    "parse_config",
    "load_config",
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
    "solver": {"N", "rel_tol", "dt_out", "t_end", "cfl_safety"},
    "analysis": {"eps_mono", "tail_lo", "tail_hi", "deficit_tol",
                 "static_tol", "area_tol"},
    "outputs": {"id", "csv", "json"},
}


@dataclass
class ScenarioConfig:
    """A fully validated scenario: built objects plus the raw echo."""

    scenario_id: str
    manifold: ManifoldSpec
    weight: StaticPotential            # goes into the integral of f H
    reference_potential: StaticPotential  # defines the manifold mass
    potential_kind: str
    surface: object                    # CoordinateSphere | AxisymmetricGraph
    surface_kind: str
    solver: SolverParams
    t_end: float
    eps_mono: float
    tail: tuple[float, float]
    deficit_tol: float
    static_tol: float
    area_tol: float
    csv_path: Path
    json_path: Path
    echo: dict = field(default_factory=dict)


def _get(section, sec_name, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key [{sec_name}] {key}")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value for [{sec_name}] {key}: {raw!r} ({exc})") from exc


def parse_config(text: str, *, base_dir: Path | None = None,
                 out_dir: Path | None = None,
                 default_id: str = "scenario") -> ScenarioConfig:
    """Parse and validate a scenario document into built objects.

    Rejection is strict and names the offending key path.  ``base_dir``
    anchors relative input files, ``out_dir`` anchors output paths (both
    default to the current directory).
    """
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="__default__")
    parser.optionxform = str  # keys are case sensitive; keeps N literal
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    echo: dict = {}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key [{sec}] {key}")
        echo[sec] = dict(parser[sec])

    man = parser["manifold"] if parser.has_section("manifold") else {}
    family = _get(man, "manifold", "family", str, required=True).lower()
    n = _get(man, "manifold", "n", int, default=3)
    r_max = _get(man, "manifold", "r_max", float, default=1000.0)
    r_min = _get(man, "manifold", "r_min", float, default=0.1)
    try:
        if family == "schwarzschild":
            m_param = _get(man, "manifold", "m", float, required=True)
            spec = ManifoldSpec.schwarzschild(n, m_param, r_max=r_max,
                                              r_min_floor=r_min)
        elif family == "flat":
            spec = ManifoldSpec.flat(n, r_max=r_max, r_min=r_min)
        elif family == "custom":
            pf = _get(man, "manifold", "profile_file", str, required=True)
            path = base_dir / pf
            if not path.exists():
                raise ConfigError(f"[manifold] profile_file does not exist: {path}")
            data = np.loadtxt(path)
            if data.ndim != 2 or data.shape[1] != 2:
                raise ConfigError(
                    f"[manifold] profile_file must be two numeric columns (r, V): {path}")
            profile = RadialProfile.from_samples(data[:, 0], data[:, 1])
            spec = ManifoldSpec.custom(profile, n, r_min=r_min, r_max=r_max)
        else:
            raise ConfigError(
                f"[manifold] family must be schwarzschild, flat or custom, got {family!r}")
    except (ValueError, LabError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[manifold] invalid: {exc}") from exc

    pot_sec = parser["potential"] if parser.has_section("potential") else {}
    pot_kind = _get(pot_sec, "potential", "kind", str, default="static").lower()
    reference = sqrt_potential(spec)
    if pot_kind == "static":
        weight = reference
    elif pot_kind in ("profile-weight", "profile_weight"):
        weight = profile_weight(spec)
        pot_kind = "profile-weight"
    elif pot_kind == "file":
        pf = _get(pot_sec, "potential", "file", str, required=True)
        path = base_dir / pf
        if not path.exists():
            raise ConfigError(f"[potential] file does not exist: {path}")
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError(
                f"[potential] file must be two numeric columns (r, f): {path}")
        weight = sampled_potential(data[:, 0], data[:, 1])
        reference = weight
    else:
        raise ConfigError(
            f"[potential] kind must be static, profile-weight or file, got {pot_kind!r}")

    sol = parser["solver"] if parser.has_section("solver") else {}
    n_grid = _get(sol, "solver", "N", int, default=200)
    if n_grid < 8 or n_grid % 2:
        raise ConfigError(f"[solver] N must be even and at least 8, got {n_grid}")
    t_end = _get(sol, "solver", "t_end", float, default=3.0)
    if t_end <= 0:
        raise ConfigError(f"[solver] t_end must be positive, got {t_end}")
    solver = SolverParams(
        rel_tol=_get(sol, "solver", "rel_tol", float, default=1e-7),
        dt_out=_get(sol, "solver", "dt_out", float, default=0.1),
        cfl_safety=_get(sol, "solver", "cfl_safety", float, default=0.5))

    surf_sec = parser["surface"] if parser.has_section("surface") else {}
    surf_kind = _get(surf_sec, "surface", "kind", str, required=True).lower()
    try:
        if surf_kind == "sphere":
            r0 = _get(surf_sec, "surface", "r0", float, required=True)
            surface = CoordinateSphere(r0, spec)
            reach = r0 * np.exp(t_end / (spec.n - 1))
        elif surf_kind == "graph":
            if spec.n != 3:
                raise ConfigError(
                    f"[surface] graphs require n = 3, got n = {spec.n}")
            expr = _get(surf_sec, "surface", "rho0", str)
            fpath = _get(surf_sec, "surface", "file", str)
            if (expr is None) == (fpath is None):
                raise ConfigError(
                    "[surface] graph needs exactly one of rho0 (expression) or file")
            if expr is not None:
                theta = np.linspace(0.0, np.pi, n_grid + 1)
                rho0 = evaluate_radius_expression(expr, theta)
                surface = AxisymmetricGraph(theta, rho0, spec)
            else:
                path = base_dir / fpath
                if not path.exists():
                    raise ConfigError(f"[surface] file does not exist: {path}")
                surface = load_graph(path, spec)
            reach = float(np.max(surface.rho)) * np.exp(t_end / (spec.n - 1))
        else:
            raise ConfigError(
                f"[surface] kind must be sphere or graph, got {surf_kind!r}")
    except InsideHorizonError as exc:
        rh = horizon_radius(spec)
        where = f" (r_h={rh:g})" if rh is not None else ""
        raise ConfigError(f"[surface] surface inside horizon{where}: {exc}") from exc
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"[surface] invalid: {exc}") from exc
    if reach > spec.r_max * (1.0 + 1e-9):
        raise ConfigError(
            f"[solver] t_end = {t_end:g} flows the surface to r = {reach:g}, "
            f"beyond r_max = {spec.r_max:g}; enlarge [manifold] r_max")

    ana = parser["analysis"] if parser.has_section("analysis") else {}
    eps_default = 1e-6 * (200.0 / n_grid) ** 2  # matches the O(dtheta^2) scheme
    eps_mono = _get(ana, "analysis", "eps_mono", float, default=eps_default)
    tail_lo = _get(ana, "analysis", "tail_lo", float,
                   default=max(100.0, 1.1 * spec.r_min))
    tail_hi = _get(ana, "analysis", "tail_hi", float, default=spec.r_max)
    if not (spec.r_min < tail_lo < tail_hi <= spec.r_max):
        raise ConfigError(
            f"[analysis] tail [{tail_lo:g}, {tail_hi:g}] not inside domain "
            f"({spec.r_min:g}, {spec.r_max:g}]")
    deficit_tol = _get(ana, "analysis", "deficit_tol", float, default=1e-8)
    static_tol = _get(ana, "analysis", "static_tol", float, default=1e-8)
    area_tol = _get(ana, "analysis", "area_tol", float, default=1e-4)

    out_sec = parser["outputs"] if parser.has_section("outputs") else {}
    scenario_id = _get(out_sec, "outputs", "id", str, default=default_id)
    out_base = Path(out_dir) if out_dir is not None else base_dir
    csv_path = out_base / _get(out_sec, "outputs", "csv", str,
                               default=f"{scenario_id}.csv")
    json_path = out_base / _get(out_sec, "outputs", "json", str,
                                default=f"{scenario_id}.json")

    return ScenarioConfig(
        scenario_id=scenario_id, manifold=spec, weight=weight,
        reference_potential=reference, potential_kind=pot_kind,
        surface=surface, surface_kind=surf_kind, solver=solver, t_end=t_end,
        eps_mono=eps_mono, tail=(tail_lo, tail_hi), deficit_tol=deficit_tol,
        static_tol=static_tol, area_tol=area_tol,
        csv_path=csv_path, json_path=json_path, echo=echo)


def load_config(path, out_dir=None) -> ScenarioConfig:
    """Read a scenario file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=path.parent, out_dir=out_dir,
                        default_id=path.stem)


@dataclass
class RunReport:
    """Everything one scenario run produced."""

    scenario_id: str
    rows: list                      # per output time, dicts keyed like the CSV
    verdicts: dict
    tolerances: dict
    echo: dict
    status: str
    halt_reason: str | None
    warnings: list
    trace: FlowTrace
    runtime_seconds: float
    version: str = __version__


def static_diagnostics(cfg: ScenarioConfig) -> dict:
    """Largest static-equation and harmonicity residuals of the weight on a
    200-point log grid spanning the working domain."""
    spec = cfg.manifold
    lo = 1.1 * spec.r_min if spec.r_min > 0 else spec.r_max * 1e-4
    grid = np.geomspace(max(lo, 1e-6), spec.r_max, 200)
    s_rr, s_tt = static_residual(spec, cfg.weight, grid)
    harm = harmonicity_residual(spec, cfg.weight, grid)
    return {
        "static_residual_max": float(np.max(np.abs(np.stack([s_rr, s_tt])))),
        "harmonic_residual_max": float(np.max(np.abs(harm))),
    }


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute one scenario: diagnostics, mass, flow, quantities, verdicts."""
    t_start = time.perf_counter()
    spec = cfg.manifold
    warnings: list[str] = []

    diag = static_diagnostics(cfg)
    weight_is_static = (diag["static_residual_max"] < cfg.static_tol
                        and diag["harmonic_residual_max"] < cfg.static_tol)
    if cfg.potential_kind != "profile-weight" and not weight_is_static:
        warnings.append(
            f"declared potential fails the static equation "
            f"(max residual {diag['static_residual_max']:.3e})")

    mass = float(adm_mass_flux(spec, cfg.reference_potential, spec.r_max))
    try:
        ref = cfg.reference_potential
        if ref.kind == "sampled":
            ref = rescale_to_unit(spec, ref, cfg.tail)
        mass_fit = float(adm_mass_fit(spec, ref, cfg.tail))
    except FitQualityError as exc:
        mass_fit = None
        warnings.append(f"tail mass fit rejected: {exc}")

    if cfg.surface_kind == "sphere":
        trace = flow_sphere(cfg.surface, cfg.t_end, dt_out=cfg.solver.dt_out)
    else:
        trace = flow_graph(cfg.surface, cfg.t_end, cfg.solver)
    if trace.status == "halted":
        warnings.append(f"flow halted early: {trace.halt_reason}")

    attach_quantities(trace, cfg.weight, mass)
    verdict = monotonicity_verdict(trace, cfg.weight, mass, cfg.eps_mono)
    a0 = trace.initial_area
    rows = []
    for t, geom, sq in zip(trace.times, trace.geometries, trace.quantities):
        rows.append({
            "t": float(t),
            "area": sq.area,
            "int_fH": sq.weighted_total_h,
            "Q": sq.q,
            "deficit": sq.minkowski_deficit,
            "hawking": sq.hawking_mass if sq.hawking_mass is not None else float("nan"),
            "umb_deficit": sq.umbilicity_deficit,
            "area_residual": abs(sq.area * float(np.exp(-t)) / a0 - 1.0),
        })

    area_res = area_law_residual(trace)
    deficit0 = trace.quantities[0].minkowski_deficit
    verdicts = {
        "monotone": bool(verdict.monotone),
        "worst_increase": verdict.worst_increase,
        "limit_gap": verdict.limit_gap,
        "q_extrapolated": verdict.q_extrapolated,
        "deficit_initial": deficit0,
        "deficit_ok": bool(deficit0 >= -cfg.deficit_tol),
        "area_law_residual": area_res,
        "area_law_ok": bool(area_res <= cfg.area_tol),
        "weight_is_static": bool(weight_is_static),
        "mass_flux": mass,
        "mass_fit": mass_fit,
        **diag,
    }
    verdicts["overall_pass"] = bool(
        verdicts["monotone"] and verdicts["deficit_ok"]
        and verdicts["area_law_ok"] and trace.status == "completed")

    tolerances = {
        "eps_mono": cfg.eps_mono, "deficit_tol": cfg.deficit_tol,
        "static_tol": cfg.static_tol, "area_tol": cfg.area_tol,
        "rel_tol": cfg.solver.rel_tol, "cfl_safety": cfg.solver.cfl_safety,
    }
    return RunReport(
        scenario_id=cfg.scenario_id, rows=rows, verdicts=verdicts,
        tolerances=tolerances, echo=cfg.echo, status=trace.status,
        halt_reason=trace.halt_reason, warnings=warnings, trace=trace,
        runtime_seconds=time.perf_counter() - t_start)


def exit_code_for(report: RunReport, strict: bool = False) -> int:
    """Map a report to the CLI exit-code contract.

    0 pass; 2 parse/validation (raised before a report exists); 3 solver
    trouble (failure, halt under ``strict``, area-law violation); 4
    monotonicity violation; 5 deficit violation; 6 strict-mode warnings.
    """
    if not report.verdicts["monotone"]:
        return 4
    if not report.verdicts["deficit_ok"]:
        return 5
    if not report.verdicts["area_law_ok"]:
        return 3
    if report.status != "completed":
        return 3 if strict else 0
    if strict and report.warnings:
        return 6
    return 0


def summary_dict(report: RunReport) -> dict:
    """The deterministic part of the JSON summary."""
    n = report.trace.ambient.n
    return {
        "id": report.scenario_id,
        "version": report.version,
        "status": report.status,
        "halt_reason": report.halt_reason,
        "limit_target": limit_target(n),
        "verdicts": report.verdicts,
        "tolerances": report.tolerances,
        "warnings": list(report.warnings),
        "config": report.echo,
    }


def render_csv(report: RunReport) -> str:
    """Full-precision CSV text for the per-slice table."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    cols = CSV_HEADER.split(",")
    for row in report.rows:
        buf.write(",".join(repr(float(row[c])) for c in cols) + "\n")
    return buf.getvalue()


def emit_outputs(report: RunReport, csv_path, json_path) -> tuple[Path, Path]:
    """Write the CSV table and the JSON summary.

    The JSON is deterministic except for the single "volatile" key holding
    the timestamp and runtime.
    """
    csv_path, json_path = Path(csv_path), Path(json_path)
    payload = summary_dict(report)
    payload["volatile"] = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": report.runtime_seconds,
    }
    for path, text in ((csv_path, render_csv(report)),
                       (json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise OSError(f"cannot write output {path}: {exc}") from exc
    return csv_path, json_path
