#!/usr/bin/env python3
"""Benchmark of imcflab: three closed-loop workloads, one op at a time.

    python3 bench/run.py --workload graph-flow --seed 1 --seconds 30 --trace 0

Workloads (inputs generated from ``--seed`` by ``gen.py``):

* ``graph-flow``  in-process parse_config -> run_scenario -> emit_outputs
  on N=200 Schwarzschild radial graphs (the explicit stepper's traffic);
* ``sphere-cli``  cold ``python -m imcflab flow`` calls on coordinate
  spheres with ~400 slices (import plus the extended-precision sphere path);
* ``sweep``       ``python -m imcflab sweep --jobs 2`` over directories of
  mixed scenarios (many short runs, file inputs, many outputs).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics, measured by replaying the same inputs in-process with
spans around the program's public functions, plus import, CLI and sweep
probes.  Every op's outputs are checked (``checks.py``) and every scenario's
CSV digest and step counters must repeat exactly.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Reports, spans and the determinism registry go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import checks
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
SETUP_REPS = 2           # before the loop; one more runs between rounds
JOBS = 2
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60.0
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import imcflab; "
                  "print(repr(time.perf_counter() - t))")


# ----------------------------------------------------------------- statistics

def tail(values) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    That is the order statistic x_(n-10), at percentile 100 (n-10)/n.  When
    it does not lie above the median (fewer than 2*TAIL_BEYOND + 1
    samples), no percentile above the median qualifies and the median is
    reported, at percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND
    if 2 * k > n:
        value, pct = xs[k - 1], 100.0 * k / n
    else:
        value, pct = statistics.median(xs), 50.0
    return {"value": value, "percentile": pct, "samples": n,
            "beyond": sum(1 for x in xs if x > value)}


def per_call(agg: dict, name: str, scale: float = 1.0) -> float:
    a = agg.get(name)
    return scale * a["total"] / a["calls"] if a else 0.0


# ------------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv, log: Path):
    """Run one child to completion: (exit code, wall s, peak RSS MB)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env(), start_new_session=True)
        # a hung child is killed with its whole group (a sweep's workers too)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_lab():
    """Import the checkout's imcflab into this process."""
    sys.path.insert(0, str(SRC))
    import imcflab
    from imcflab import scenario
    if not Path(imcflab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {imcflab.__file__}, not the checkout's")
    return scenario


API = ("parse_config", "run_scenario", "emit_outputs", "exit_code_for")


def plain_api(scenario):
    return SimpleNamespace(**{a: getattr(scenario, a) for a in API})


# ------------------------------------------------------------------------ ops

class Runner:
    """Runs ops, checks what they emit and records each outcome."""

    def __init__(self, work: Path, registry: checks.Registry):
        self.work = work
        self.registry = registry
        self.count = 0
        self.failures: list = []

    def _dir(self, tag: str) -> Path:
        self.count += 1
        return self.work / "ops" / f"{self.count:05d}-{tag}"

    def _finish(self, op, out: Path, codes: dict, wall: float, rss: float,
                extra: dict | None = None, problems: list | None = None) -> dict:
        problems, runtimes, written = list(problems or ()), [], 0
        for sc in op.scenarios:
            csv_path, json_path = out / f"{sc.sid}.csv", out / f"{sc.sid}.json"
            problems += checks.check_scenario(sc, codes.get(sc.sid), csv_path, json_path)
            if csv_path.exists() and json_path.exists():
                written += csv_path.stat().st_size + json_path.stat().st_size
                record = {"csv_sha256": checks.sha256_file(csv_path)}
                record.update((extra or {}).get(sc.sid, {}))
                problems += self.registry.check(sc.key, sc.sid, record)
                runtimes.append(json.loads(json_path.read_text())
                                ["volatile"]["runtime_seconds"])
        if problems:
            self.failures.append({"op": op.name, "problems": problems})
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "rss": rss, "scenarios": len(op.scenarios),
                "ok": not problems, "runtimes": runtimes, "bytes": written}

    def inprocess(self, op, api, tracer=None, tag="inproc") -> dict:
        """parse_config -> run_scenario -> emit_outputs for each scenario,
        inside one ``bench.scenario`` span per scenario when traced."""
        out = self._dir(f"{tag}-{op.name}")
        codes, stats, problems = {}, {}, []

        def one(sc):
            cfg = api.parse_config(sc.cfg.read_text(), base_dir=sc.cfg.parent,
                                   out_dir=out, default_id=sc.sid)
            report = api.run_scenario(cfg)
            api.emit_outputs(report, cfg.csv_path, cfg.json_path)
            return report

        run = one if tracer is None else tracer.wrap("bench.scenario", one)
        t0 = time.perf_counter()
        for sc in op.scenarios:
            if tracer is not None:
                tracer.op = f"{self.count}:{sc.sid}"
            try:
                report = run(sc)
            except Exception:  # one failing scenario must not stop the run
                problems.append(f"{sc.sid}: raised {traceback.format_exc(limit=3)}")
                continue
            codes[sc.sid] = api.exit_code_for(report)
            stats[sc.sid] = {k: report.trace.stats[k] for k in ("steps", "rejected")}
        wall = time.perf_counter() - t0
        res = self._finish(op, out, codes, wall,
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                           stats, problems)
        res["stats"] = stats
        return res

    def cli_flow(self, op) -> dict:
        (sc,) = op.scenarios
        out = self._dir(f"flow-{op.name}")
        code, wall, rss = run_child(
            [PY, "-m", "imcflab", "flow", "--config", str(sc.cfg), "--out", str(out)],
            self.work / "logs" / f"{self.count:05d}.log")
        return self._finish(op, out, {sc.sid: code}, wall, rss)

    def cli_sweep(self, op, jobs: int = JOBS) -> dict:
        out = self._dir(f"sweep{jobs}-{op.name}")
        code, wall, rss = run_child(
            [PY, "-m", "imcflab", "sweep", "--config", str(op.target),
             "--jobs", str(jobs), "--out", str(out)],
            self.work / "logs" / f"{self.count:05d}.log")
        try:
            codes = json.loads((out / "sweep_summary.json").read_text())["exit_codes"]
        except (OSError, ValueError, KeyError):
            codes = {}
        problems = [] if code == op.exit else [f"sweep exit {code}, expected {op.exit}"]
        return self._finish(op, out, codes, wall, rss, problems=problems)


def closed_loop(ops, run_op, seconds: float, between) -> list:
    """Whole rounds over ``ops``, one op at a time, until the next round
    would end more than half a round past ``seconds``; ``between()`` runs
    untimed between rounds."""
    results, start = [], time.perf_counter()
    while True:
        r0 = time.perf_counter()
        results += [run_op(op) for op in ops]
        now = time.perf_counter()
        if (now - start) + 0.5 * (now - r0) > seconds:
            return results
        between()


class SetUp:
    """One set-up: generate the inputs and import the package cold.

    Repeated before and between rounds, so its median spans the run; every
    repeat must regenerate the same inputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.seconds: list = []
        self.import_s: list = []
        self.keys = None

    def __call__(self) -> list:
        t0 = time.perf_counter()
        shutil.rmtree(self.work / "inputs", ignore_errors=True)
        ops = gen.generate(self.workload, self.work / "inputs", self.seed)
        log = self.work / "logs" / f"setup{len(self.seconds)}.log"
        code, _, _ = run_child([PY, "-c", IMPORT_SNIPPET], log)
        self.seconds.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import imcflab failed (exit {code}), see {log}")
        self.import_s.append(float(log.read_text().split()[-1]))
        keys = [sc.key for op in ops for sc in op.scenarios]
        if self.keys not in (None, keys):
            raise RuntimeError("the generator wrote different inputs for the same seed")
        self.keys = keys
        return ops


# -------------------------------------------------------------------- tracing

def trace_targets(scenario):
    """(module, attribute, span name[, label]) for every traced lookup site."""
    from imcflab import flow, quantities, surfaces
    return [
        (scenario, "static_residual", "metrics.static_residual"),
        (scenario, "harmonicity_residual", "metrics.harmonicity_residual"),
        (scenario, "adm_mass_flux", "metrics.adm_mass_flux"),
        (scenario, "adm_mass_fit", "metrics.adm_mass_fit"),
        (scenario, "flow_graph", "flow.flow_graph"),
        (scenario, "flow_sphere", "flow.flow_sphere"),
        (scenario, "area_law_residual", "flow.area_law_residual"),
        (scenario, "attach_quantities", "quantities.attach_quantities"),
        (scenario, "monotonicity_verdict", "quantities.monotonicity_verdict"),
        (scenario, "render_csv", "scenario.render_csv"),
        (flow, "graph_frame", "surfaces.graph_frame"),
        (flow, "graph_geometry", "surfaces.graph_geometry"),
        (flow, "sphere_geometry", "surfaces.sphere_geometry"),
        (surfaces, "graph_frame", "surfaces.graph_frame"),
        (quantities, "slice_quantities", "quantities.slice_quantities",
         lambda geom, *a, **k: geom.kind),
    ]


def importtime_parts(text: str, packages=("scipy", "mpmath")) -> dict:
    """Seconds each package took in ``-X importtime`` output: the cumulative
    time of its outermost modules, so nested imports count once."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip().split(".")[0], int(cum_us) * 1e-6))
    parts = dict.fromkeys(packages, 0.0)
    stack: list = []  # (depth, package counted at or above it), in pre-order
    for depth, top, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else None
        if top in parts and inside != top:
            parts[top] += cum
            inside = top
        stack.append((depth, inside))
    return parts


def import_parts(work: Path) -> dict:
    log = work / "logs" / "importtime.log"
    code, _, _ = run_child([PY, "-X", "importtime", "-c", "import imcflab"], log)
    if code != 0:
        raise RuntimeError(f"import imcflab failed (exit {code}), see {log}")
    return importtime_parts(log.read_text())


def rhs_evals(tracer, lo: int, hi: int) -> dict:
    """Right-hand-side calls of the graph stepper per scenario id: the
    ``graph_frame`` spans whose parent is ``flow_graph``."""
    out: dict = {}
    for name, _s, _e, parent, op in tracer.spans[lo:hi]:
        if (name == "surfaces.graph_frame" and parent >= 0
                and tracer.spans[parent][0] == "flow.flow_graph"):
            sid = op.split(":", 1)[1]
            out[sid] = out.get(sid, 0) + 1
    return out


def run_traced(workload, ops, seconds, runner, scenario, import_times):
    """Probes plus an untraced/traced in-process replay of the same inputs.

    Returns (op results, per-layer metrics, tracer)."""
    start = time.perf_counter()
    tracer = spans.Tracer()
    plain = plain_api(scenario)
    api = SimpleNamespace(**{a: tracer.wrap(f"scenario.{a}", getattr(scenario, a))
                             for a in API[:3]}, exit_code_for=scenario.exit_code_for)
    targets = trace_targets(scenario)
    results = []
    parts = import_parts(runner.work)

    # CLI probe: `imcflab flow` on the first scenario of up to three ops.
    overheads = []
    for op in ops[:3]:
        sc = op.scenarios[0]
        res = runner.cli_flow(gen.Op(sc.sid, sc.cfg, [sc]))
        results.append(res)
        overheads += [res["wall"] - rt for rt in res["runtimes"]]
        if time.perf_counter() - start > 0.2 * seconds:
            break

    # Sweep probe: --jobs 2 against the --jobs 1 baseline on one directory.
    if workload == "sweep":
        probe = ops[0]
    else:
        d = runner.work / "sweep-probe"
        d.mkdir(parents=True, exist_ok=True)
        scen = []
        for op in ops[:2]:
            sc = op.scenarios[0]
            shutil.copy(sc.cfg, d / sc.cfg.name)
            scen.append(dataclasses.replace(sc, cfg=d / sc.cfg.name))
        probe = gen.Op("sweep-probe", d, scen)
    par = runner.cli_sweep(probe, JOBS)
    seq = runner.cli_sweep(probe, 1)
    results += [par, seq]

    # Replay: each op untraced, then traced; counters from the first round.
    pairs, rnd = [], 0
    while True:
        rnd += 1
        r0 = time.perf_counter()
        for op in ops:
            base = runner.inprocess(op, plain, tag=f"replay{rnd}")
            lo = len(tracer.spans)
            tracer.install(targets)
            try:
                traced = runner.inprocess(op, api, tracer, tag=f"traced{rnd}")
            finally:
                tracer.uninstall()
            hi = len(tracer.spans)
            rhs = rhs_evals(tracer, lo, hi)
            for sc in op.scenarios:
                drift = runner.registry.check(sc.key, sc.sid, {"rhs_evals": rhs.get(sc.sid, 0)})
                if drift:
                    runner.failures.append({"op": op.name, "problems": drift})
                    traced["ok"] = False
            results += [base, traced]
            pairs.append({"base": base, "traced": traced, "round": rnd,
                          "lo": lo, "hi": hi, "rhs": sum(rhs.values())})
        now = time.perf_counter()
        if (now - start) + 0.5 * (now - r0) > seconds:
            break

    agg = spans.summarize(tracer.spans)
    n = len(pairs)
    layer_self: dict = {}
    for name, a in agg.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + a["self"]
    first = [p for p in pairs if p["round"] == 1]
    first_spans = [s for p in first for s in tracer.spans[p["lo"]:p["hi"]]]
    steps = sum(st["steps"] for p in first for st in p["traced"]["stats"].values())
    rejected = sum(st["rejected"] for p in first for st in p["traced"]["stats"].values())
    rhs = sum(p["rhs"] for p in first)
    base_wall = sum(p["base"]["wall"] for p in pairs)
    traced_wall = sum(p["traced"]["wall"] for p in pairs)

    def calls(name):
        return agg.get(name, {"calls": 0})["calls"]

    def count(name):
        return sum(1 for s in first_spans if s[0].startswith(name))

    def timing(name, scale=1.0, unit="s"):
        return (per_call(agg, name, scale), unit, calls(name))

    nf = len(first)
    m = {
        "import.imcflab_s": (statistics.median(import_times), "s", len(import_times)),
        "import.scipy_s": (parts["scipy"], "s", 1),
        "import.mpmath_s": (parts["mpmath"], "s", 1),
        "flow.flow_graph_s": timing("flow.flow_graph"),
        "flow.steps": (steps, "count", nf),
        "flow.rejected": (rejected, "count", nf),
        "flow.rhs_evals": (rhs, "count", nf),
        "flow.rhs_evals_per_step": (rhs / steps if steps else 0.0, "ratio", nf),
        "surfaces.graph_frame_us": timing("surfaces.graph_frame", 1e6, "us"),
        "surfaces.graph_frame_calls": (count("surfaces.graph_frame"), "count", nf),
        "surfaces.graph_geometry_us": timing("surfaces.graph_geometry", 1e6, "us"),
        "quantities.slice_quantities_sphere_us":
            timing("quantities.slice_quantities:sphere", 1e6, "us"),
        "quantities.slice_quantities_graph_us":
            timing("quantities.slice_quantities:graph", 1e6, "us"),
        "quantities.slices": (count("quantities.slice_quantities"), "count", nf),
        "quantities.monotonicity_verdict_s": timing("quantities.monotonicity_verdict"),
        "metrics.static_residual_s": timing("metrics.static_residual"),
        "metrics.harmonicity_residual_s": timing("metrics.harmonicity_residual"),
        "metrics.adm_mass_flux_s": timing("metrics.adm_mass_flux"),
        "metrics.adm_mass_fit_s": timing("metrics.adm_mass_fit"),
        "scenario.parse_config_s": timing("scenario.parse_config"),
        "scenario.emit_outputs_s": timing("scenario.emit_outputs"),
        "scenario.bytes_written": (statistics.mean(p["traced"]["bytes"] for p in pairs),
                                   "bytes", n),
        "cli.process_overhead_s": (statistics.median(overheads) if overheads else 0.0,
                                   "s", len(overheads)),
        "cli.sweep_parallel_efficiency": (sum(par["runtimes"]) / (JOBS * par["wall"]),
                                          "ratio", 1),
        "cli.sweep_speedup": (seq["wall"] / par["wall"], "ratio", 1),
        "trace.overhead_s": ((traced_wall - base_wall) / n, "s", n),
        "trace.overhead_ratio": (traced_wall / base_wall - 1.0, "ratio", n),
        "trace.spans": (len(tracer.spans), "count", n),
    }
    for layer in ("bench", "scenario", "metrics", "flow", "surfaces", "quantities"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / n, "s", n)
    return results, m, tracer


# ----------------------------------------------------------------------- main

def loadavg_1m() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             "cpu_model": cpu, "python": platform.python_version(), "seed": seed,
             "loadavg_1m_before": loadavg_1m()}
    facts.update({p: metadata.version(p) for p in ("numpy", "scipy", "mpmath")})
    return facts


def end_to_end(results, setups):
    walls = [r["wall"] for r in results]
    t = tail(walls)
    n = len(walls)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_s.p50": (statistics.median(walls), "s", n),
        "op_s.tail": (t["value"], "s", n),
        "scenarios_per_s": (sum(r["scenarios"] for r in results) / sum(walls), "1/s", n),
        "peak_rss_mb": (max(r["rss"] for r in results), "MB", n),
    }, t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "imcflab" / "__init__.py").is_file():
        print(f"error: no imcflab sources under {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts(args.seed)
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    registry = checks.Registry(OUT / f"registry-{checks.source_digest(SRC)[:16]}.json")

    setup = SetUp(args.workload, args.seed, work)
    try:
        for _ in range(SETUP_REPS):
            ops = setup()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = Runner(work, registry)
    tail_info = None
    if args.trace or args.workload == "graph-flow":
        t0 = time.perf_counter()
        scenario = import_lab()
        facts["import_inprocess_s"] = time.perf_counter() - t0
    if args.trace:
        results, metrics, tracer = run_traced(args.workload, ops, args.seconds,
                                              runner, scenario, setup.import_s)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    else:
        run_op = {"graph-flow": lambda op: runner.inprocess(op, plain_api(scenario)),
                  "sphere-cli": runner.cli_flow,
                  "sweep": runner.cli_sweep}[args.workload]
        results = closed_loop(ops, run_op, args.seconds, setup)
        metrics, tail_info = end_to_end(results, setup.seconds)
    registry.save()
    facts["loadavg_1m_after"] = loadavg_1m()
    if not runner.failures:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(results)
    failed = sum(1 for r in results if not r["ok"])
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "machine": facts, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "tail": tail_info,
              "failures": runner.failures,
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload={args.workload} closed loop, 1 client, ops={attempted}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={samples}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6} n={attempted}")
    if tail_info:
        print(f"  op_s.tail is p{tail_info['percentile']:.1f}: "
              f"{tail_info['beyond']} of {tail_info['samples']} ops beyond it")
    for f in runner.failures:
        print(f"  FAILED {f['op']}: {'; '.join(f['problems'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _s) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
