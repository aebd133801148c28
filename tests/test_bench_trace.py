"""The benchmark's ``--trace 1`` spans wrap attributes the package still has:
every traced name records a span on a graph and a sphere scenario, and
uninstalling the tracer puts the package's own functions back."""

from pathlib import Path

import pytest

from imcflab import scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"

GRAPH = """
[manifold]
family = schwarzschild
n = 3
m = 1.0
[surface]
kind = graph
rho0 = 4 + 0.3*P2(cos(theta))
[solver]
N = 40
t_end = 0.2
[outputs]
id = graph
"""

SPHERE = """
[manifold]
family = schwarzschild
n = 4
m = 0.5
[surface]
kind = sphere
r0 = 3.0
[solver]
t_end = 0.5
[outputs]
id = sphere
"""


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py and bench/spans.py, imported as the benchmark imports them."""
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans
    return run, spans


def test_every_traced_name_records_a_span_and_uninstall_restores(bench, tmp_path):
    run, spans = bench
    targets = run.trace_targets(scenario)
    originals = [getattr(module, attr) for module, attr, *_ in targets]
    tracer = spans.Tracer()
    tracer.install(targets)
    reports = {}
    try:
        for text in (GRAPH, SPHERE):
            cfg = scenario.parse_config(text, base_dir=tmp_path, out_dir=tmp_path)
            tracer.op = f"0:{cfg.scenario_id}"
            reports[cfg.scenario_id] = scenario.run_scenario(cfg)
            scenario.emit_outputs(reports[cfg.scenario_id], cfg.csv_path, cfg.json_path)
    finally:
        tracer.uninstall()

    recorded = {rec[0] for rec in tracer.spans}
    plain = {name for _m, _a, name, *label in targets if not label}
    assert plain <= recorded
    assert {"quantities.slice_quantities:graph",
            "quantities.slice_quantities:sphere"} <= recorded
    assert all(getattr(module, attr) is fn
               for (module, attr, *_), fn in zip(targets, originals))
    # the stepper's right-hand sides, as the benchmark counts them
    rhs = run.rhs_evals(tracer, 0, len(tracer.spans))
    assert rhs == {"graph": reports["graph"].trace.stats["rhs_evals"]}
