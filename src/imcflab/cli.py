"""Command line entry points.

Subcommands:

* ``flow``         run one scenario config, write CSV + JSON, exit per contract
* ``sweep``        run every *.cfg in a directory (distinct ids and outputs)
* ``static-check`` metric/potential diagnostics only, no flow, no files
* ``oracle``       print the closed-form Schwarzschild sphere reference chain

Exit codes: 0 all verdicts pass, 1 unexpected error, 2 parse/validation
error, 3 solver failure (or halt/area-law trouble), 4 monotonicity
violation, 5 deficit violation, 6 strict-mode warning escalation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ConfigError, InsideHorizonError, LabError, SolverFailureError
from .metrics import ManifoldSpec, horizon_radius, sqrt_potential, unit_sphere_area
from .quantities import limit_target, slice_quantities
from .scenario import (emit_outputs, exit_code_for, load_config, run_scenario,
                       static_diagnostics, summary_dict)
from .surfaces import CoordinateSphere, sphere_geometry

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_STRICT = 6


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imcflab",
        description="Inverse mean curvature flow laboratory for static "
                    "asymptotically flat manifolds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run one scenario")
    p_flow.add_argument("--config", type=Path, required=True)

    p_sweep = sub.add_parser("sweep", help="run a directory of scenarios")
    p_sweep.add_argument("--config", type=Path, required=True,
                         help="directory containing *.cfg scenario files")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes, at most one per config")

    p_static = sub.add_parser("static-check",
                              help="staticity and mass diagnostics only")
    p_static.add_argument("--config", type=Path, required=True)
    for p in (p_flow, p_sweep):
        p.add_argument("--out", type=Path, default=None,
                       help="directory for CSV/JSON outputs (default: config dir)")
    for p in (p_flow, p_sweep, p_static):
        p.add_argument("--strict", action="store_true",
                       help="treat warnings (halts, staticity mismatches) as errors")

    p_oracle = sub.add_parser("oracle",
                              help="closed-form reference values for a "
                                   "Schwarzschild coordinate sphere")
    p_oracle.add_argument("--n", type=int, default=3)
    p_oracle.add_argument("--m", type=float, default=1.0)
    p_oracle.add_argument("--r", type=float, default=4.0)
    return parser


def _cmd_flow(args) -> int:
    cfg = load_config(args.config, out_dir=args.out)
    report = run_scenario(cfg)
    csv_path, json_path = emit_outputs(report, cfg.csv_path, cfg.json_path)
    code = exit_code_for(report, strict=args.strict)
    v = report.verdicts
    print(f"[{report.scenario_id}] status={report.trace.status} "
          f"monotone={v['monotone']} worst_increase={v['worst_increase']:.3e} "
          f"deficit0={v['deficit_initial']:.3e} "
          f"area_residual={v['area_law_residual']:.3e}")
    for w in report.warnings:
        print(f"[{report.scenario_id}] warning: {w}")
    print(f"[{report.scenario_id}] wrote {csv_path} and {json_path} "
          f"(exit {code})")
    return code


def _failure(exc: LabError | OSError) -> tuple[int, str]:
    """The exit code and stderr message the CLI gives an error."""
    if isinstance(exc, ConfigError):
        return EXIT_PARSE, f"config error: {exc}"
    if isinstance(exc, SolverFailureError):
        diagnostics = json.dumps(exc.diagnostics, sort_keys=True)
        return EXIT_SOLVER, f"solver failure: {exc} {diagnostics}"
    if isinstance(exc, LabError):
        return EXIT_UNEXPECTED, f"error: {exc}"
    return EXIT_UNEXPECTED, f"i/o error: {exc}"


def _run_one(job) -> tuple[str, int, dict, float, tuple]:
    """Sweep worker: run one config, write outputs, return its id, exit
    code, summary, wall seconds (parse, run and write) and output paths.

    A config that fails is recorded under its file stem, with no outputs and
    the exit code and message ``flow`` would give it, so the sweep goes on.
    """
    config_path, out_dir, strict = job
    start = time.perf_counter()
    try:
        cfg = load_config(Path(config_path),
                          out_dir=None if out_dir is None else Path(out_dir))
        report = run_scenario(cfg)
        emit_outputs(report, cfg.csv_path, cfg.json_path)
    except (LabError, OSError) as exc:
        code, message = _failure(exc)
        stem = Path(config_path).stem
        print(f"[{stem}] {message}", file=sys.stderr)
        return stem, code, {"id": stem, "error": message}, time.perf_counter() - start, ()
    return (report.scenario_id, exit_code_for(report, strict=strict), summary_dict(report),
            time.perf_counter() - start,
            tuple(str(p.resolve()) for p in (cfg.csv_path, cfg.json_path)))


def _cmd_sweep(args) -> int:
    cfg_dir = Path(args.config)
    if not cfg_dir.is_dir():
        raise ConfigError(f"sweep expects a directory of configs, got {cfg_dir}")
    paths = sorted(cfg_dir.glob("*.cfg"))
    if not paths:
        raise ConfigError(f"no *.cfg files in {cfg_dir}")
    jobs = [(str(p), None if args.out is None else str(args.out), args.strict)
            for p in paths]
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]
    # ids and output paths are known only once a worker has parsed its config
    claims: dict = {}
    for path, (sid, _c, _s, _w, outputs) in zip(paths, results):
        for claim in (f"scenario id {sid!r}", *(f"output file {o}" for o in outputs)):
            claims.setdefault(claim, []).append(path.name)
    shared = [f"{claim} is shared by configs {' and '.join(names)}"
              for claim, names in sorted(claims.items()) if len(names) > 1]
    if shared:
        raise ConfigError("; ".join(shared))
    results.sort(key=lambda r: r[0])
    codes = {i: c for (i, c, _s, _w, _o) in results}
    aggregate = {
        "scenarios": [s for (_i, _c, s, _w, _o) in results],
        "exit_codes": codes,
        "passed": sum(1 for c in codes.values() if c == 0),
        "failed": sum(1 for c in codes.values() if c != 0),
        # the one key that differs between reruns
        "volatile": {"runtime_seconds": {i: w for (i, _c, _s, w, _o) in results}},
    }
    out_base = Path(args.out) if args.out is not None else cfg_dir
    out_base.mkdir(parents=True, exist_ok=True)
    agg_path = out_base / "sweep_summary.json"
    agg_path.write_text(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    for i in sorted(codes):
        print(f"[{i}] exit {codes[i]}")
    print(f"sweep: {aggregate['passed']} passed, {aggregate['failed']} failed; "
          f"summary in {agg_path}")
    failing = [codes[i] for i in sorted(codes) if codes[i] != 0]
    return failing[0] if failing else 0


def _cmd_static_check(args) -> int:
    cfg = load_config(args.config)
    diag, warning = static_diagnostics(cfg)
    out = {
        "id": cfg.scenario_id,
        "static_residual_max": diag["static_residual_max"],
        "harmonic_residual_max": diag["harmonic_residual_max"],
        "static_tol": cfg.static_tol,
        "mass_flux_at_r_max": diag["mass_flux"],
        "horizon_radius": horizon_radius(cfg.manifold),
        "potential_kind": cfg.potential_kind,
        "is_static": diag["weight_is_static"],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_STRICT if args.strict and warning else EXIT_OK


def _cmd_oracle(args) -> int:
    n, m, r = args.n, args.m, args.r
    if not (math.isfinite(m) and 0.0 < r < math.inf):
        raise ConfigError(f"oracle needs a finite m and a positive finite r, "
                          f"got m = {m:g}, r = {r:g}")
    # the working domain only has to contain r; the horizon (or 0.5 r when
    # there is none) bounds it from below
    try:
        spec = ManifoldSpec.schwarzschild(n, m, r_max=max(r, 1000.0),
                                          r_min_floor=0.5 * r)
        geom = sphere_geometry(CoordinateSphere(r, spec))
    except InsideHorizonError as exc:
        raise ConfigError(f"oracle radius {r:g} is inside the horizon "
                          f"r_h = {spec.r_min:g}") from exc
    except ValueError as exc:
        # the spec rejects n outside 3..7, and a horizon beyond max(r, 1000)
        raise ConfigError(f"oracle: {exc}") from exc
    f = sqrt_potential(spec)
    sq = slice_quantities(geom, f, m)
    out = {
        "n": n, "m": m, "r": r,
        "horizon_radius": spec.r_min if m > 0 else None,
        "V": float(spec.profile.value(r)),
        "f": float(f.value(r)),
        "H": float(geom.mean_curvature[0]),
        "area": sq.area,
        "int_fH": sq.weighted_total_h,
        "Q": sq.q,                    # constant on Schwarzschild spheres
        "limit_target": limit_target(n),
        "minkowski_deficit": sq.minkowski_deficit,  # equality case
        "hawking_mass": sq.hawking_mass,
        "flow_radius_factor": math.exp(1.0 / (n - 1)),  # growth per unit flow time
        "unit_sphere_area": unit_sphere_area(n - 1),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"flow": _cmd_flow, "sweep": _cmd_sweep,
                "static-check": _cmd_static_check, "oracle": _cmd_oracle}
    try:
        return commands[args.command](args)
    except (LabError, OSError) as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
