"""Command line entry points.

Subcommands:

* ``flow``         run one scenario config, write CSV + JSON, exit per contract
* ``sweep``        run every *.cfg in a directory (distinct ids and outputs,
                   checked before any flow runs), ``--jobs`` J on up to J
                   forked workers
* ``static-check`` metric/potential diagnostics only, no flow, no files
* ``oracle``       print the closed-form Schwarzschild sphere reference chain

Exit codes are the ``EXIT_*`` table of :mod:`imcflab.scenario`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (ConfigError, DomainError, InsideHorizonError, LabError,
                     SolverFailureError)
from .metrics import ManifoldSpec, horizon_radius, sqrt_potential, unit_sphere_area
from .quantities import limit_target, slice_quantities
from .scenario import (EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_STRICT,
                       EXIT_UNEXPECTED, config_outputs, emit_outputs, exit_code_for,
                       load_config, run_scenario, static_diagnostics, summary_dict,
                       write_new)
from .surfaces import CoordinateSphere, sphere_geometry


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


def _run_one(job) -> tuple[int, dict, float]:
    """Sweep worker: run one config and write its outputs; return its exit
    code, summary and wall seconds (parse, run and write).

    A config that fails is recorded under the id the sweep resolved for it,
    with no outputs and the exit code and message ``flow`` would give it, so
    the sweep goes on.
    """
    config_path, sid, out_dir, strict = job
    start = time.perf_counter()
    try:
        cfg = load_config(Path(config_path),
                          out_dir=None if out_dir is None else Path(out_dir))
        report = run_scenario(cfg)
        emit_outputs(report, cfg.csv_path, cfg.json_path)
    except (LabError, OSError) as exc:
        code, message = _failure(exc)
        print(f"[{sid}] {message}", file=sys.stderr)
        return code, {"id": sid, "error": message}, time.perf_counter() - start
    return (exit_code_for(report, strict=strict), summary_dict(report),
            time.perf_counter() - start)


def _sweep_ids(paths: list, out_dir, agg_path: Path) -> list:
    """Each config's scenario id, read from its ``[outputs]`` before any flow
    runs (the file stem where that fails, as the worker will fail too).

    Two configs that share an id or an output file, or a config that would
    write the sweep's own summary file, are a ConfigError naming the configs.
    """
    ids, claims, problems = [], {}, []
    agg = agg_path.resolve()
    for path in paths:
        try:
            sid, *outputs = config_outputs(path, out_dir=out_dir)
        except ConfigError:
            sid, outputs = path.stem, []
        outputs = [o.resolve() for o in outputs]
        if agg in outputs:
            problems.append(f"config {path.name} writes {agg}, the sweep's summary file")
        ids.append(sid)
        for claim in (f"scenario id {sid!r}", *(f"output file {o}" for o in outputs)):
            claims.setdefault(claim, []).append(path.name)
    problems += [f"{claim} is shared by configs {' and '.join(names)}"
                 for claim, names in sorted(claims.items()) if len(names) > 1]
    if problems:
        raise ConfigError("; ".join(problems))
    return ids


_RECORD = 4  # bytes per job index in the task pipe


def _work(jobs: list, tasks: int, out: int, foreign: list) -> None:
    """Body of a forked sweep worker; it never returns.

    It closes the pipe ends it does not own (a worker holding the task
    pipe's write end would never see EOF), runs :func:`_run_one` on each job
    index it reads from ``tasks`` until EOF, and then writes its
    ``[index, result]`` list to ``out`` as JSON.  Exit status 0 means the
    list was sent; an unexpected exception prints its traceback and exits 1,
    as an interrupt does without one.
    """
    code = 1
    try:
        for fd in foreign:
            os.close(fd)
        done = []
        # each write to the task pipe is one record, and pipe writes that
        # small are atomic, so a read of one record gets a whole one or EOF
        while record := os.read(tasks, _RECORD):
            index = int.from_bytes(record, "little")
            done.append((index, _run_one(jobs[index])))
        with open(out, "w") as fh:
            json.dump(done, fh)
        code = 0
    except Exception:
        import traceback
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _run_forked(jobs: list, workers: int) -> list:
    """The :func:`_run_one` result of every job, in job order, from
    ``workers`` children made by ``os.fork``.

    The workers take job indices one at a time from one shared pipe, so a
    slow config holds up no other, and each sends its results back on a
    pipe of its own.  The parent only deals, collects and reaps: every child
    is waited for before this returns or raises.  A worker that dies or
    exits non-zero is a LabError naming the configs that got no result.
    Forked workers start with numpy and the package already imported,
    which a spawned worker would import again.
    """
    # a child would otherwise write the parent's buffered text again
    sys.stdout.flush()
    sys.stderr.flush()
    results, children, failures = {}, [], []
    tasks, deal = os.pipe()
    owned = {tasks, deal}  # fds the parent has yet to close

    def close(fd):
        owned.discard(fd)
        os.close(fd)

    try:
        for _ in range(workers):
            back, out = os.pipe()
            owned.update((back, out))
            pid = os.fork()
            if pid == 0:
                _work(jobs, tasks, out, [deal, back, *(fd for _, fd in children)])
            children.append((pid, back))
            close(out)
        close(tasks)
        try:
            for i in range(len(jobs)):
                os.write(deal, i.to_bytes(_RECORD, "little"))
        except BrokenPipeError:
            pass  # every worker is gone; the jobs left undealt get no result
        close(deal)
        for _, back in children:
            owned.discard(back)
            with open(back, "rb") as fh:
                text = fh.read()
            try:
                results.update((i, result) for i, result in json.loads(text))
            except ValueError:
                pass  # a worker that died while writing sent nothing usable
    finally:
        for fd in list(owned):
            close(fd)
        for pid, _ in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failures.append(f"worker {pid} " + (f"exited with code {code}" if code > 0
                                                    else f"was killed by signal {-code}"))
    # a worker exits 0 only once it has sent every job it took
    if failures:
        lost = [Path(job[0]).name for i, job in enumerate(jobs) if i not in results]
        raise LabError(f"sweep failed: {'; '.join(failures)}; "
                       f"no result for configs: {', '.join(lost) or 'none'}")
    return [results[i] for i in range(len(jobs))]


def _cmd_sweep(args) -> int:
    cfg_dir = Path(args.config)
    if not cfg_dir.is_dir():
        raise ConfigError(f"sweep expects a directory of configs, got {cfg_dir}")
    paths = sorted(cfg_dir.glob("*.cfg"))
    if not paths:
        raise ConfigError(f"no *.cfg files in {cfg_dir}")
    out_base = Path(args.out) if args.out is not None else cfg_dir
    agg_path = out_base / "sweep_summary.json"
    ids = _sweep_ids(paths, args.out, agg_path)
    jobs = [(str(p), sid, None if args.out is None else str(args.out), args.strict)
            for p, sid in zip(paths, ids)]
    workers = min(args.jobs, len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        results = _run_forked(jobs, workers)
    else:
        results = [_run_one(j) for j in jobs]
    results = sorted(((sid, *r) for sid, r in zip(ids, results)), key=lambda r: r[0])
    codes = {i: c for (i, c, _s, _w) in results}
    aggregate = {
        "scenarios": [s for (_i, _c, s, _w) in results],
        "exit_codes": codes,
        "passed": sum(1 for c in codes.values() if c == 0),
        "failed": sum(1 for c in codes.values() if c != 0),
        # the one key that differs between reruns
        "volatile": {"runtime_seconds": {i: w for (i, _c, _s, w) in results}},
    }
    out_base.mkdir(parents=True, exist_ok=True)
    write_new(agg_path, json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    for i in sorted(codes):
        print(f"[{i}] exit {codes[i]}")
    print(f"sweep: {aggregate['passed']} passed, {aggregate['failed']} failed; "
          f"summary in {agg_path}")
    failing = [codes[i] for i in sorted(codes) if codes[i] != 0]
    return failing[0] if failing else EXIT_OK


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
        f = sqrt_potential(spec)
        sq = slice_quantities(geom, f, m)
    except InsideHorizonError as exc:
        raise ConfigError(f"oracle radius {r:g} is inside the horizon "
                          f"r_h = {spec.r_min:g}") from exc
    except (ValueError, DomainError) as exc:
        # n outside 3..7, a horizon beyond max(r, 1000), an r^(n-1) that
        # underflows or a |1 - V| beyond 2^26 there
        raise ConfigError(f"oracle: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"oracle: the sphere of radius r = {r:g} has an area "
                          f"r^{n - 1} beyond the float64 range") from exc
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


def run() -> None:
    """Process entry point (``imcflab``, ``python -m imcflab``): exit with
    the code of :func:`main`.

    ``gc.freeze()`` moves every tracked object into the permanent
    generation, which the interpreter's full collections at exit skip; they
    cost 9-15 ms of a ~0.1 s ``flow`` process.  Refcount teardown, atexit
    handlers and stdio flushing still run.  ``main`` never freezes: called
    in-process, as tests do, it would pin the caller's live objects.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
