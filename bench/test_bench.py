"""Tests of the benchmark's own arithmetic and generator.

    python -m pytest bench/test_bench.py
"""

import math

import checks
import gen
import pytest
import run
import spans


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    a = gen.generate(workload, tmp_path / "a", 7)
    b = gen.generate(workload, tmp_path / "b", 7)
    c = gen.generate(workload, tmp_path / "c", 8)
    fa, fb, fc = _files(tmp_path / "a"), _files(tmp_path / "b"), _files(tmp_path / "c")
    assert fa and fa == fb
    assert fa.keys() == fc.keys() and fa != fc
    assert [s.key for op in a for s in op.scenarios] == [s.key for op in b for s in op.scenarios]
    assert [op.exit for op in a] == [op.exit for op in b]


def test_generated_inputs_cover_the_issue_cases(tmp_path):
    flows = gen.generate("graph-flow", tmp_path / "g", 3)
    masses = [float(op.target.read_text().split("m = ")[1].split()[0]) for op in flows]
    assert min(masses) < 0 < max(masses)
    spheres = gen.generate("sphere-cli", tmp_path / "s", 3)
    assert sorted(op.scenarios[0].n for op in spheres) == [3, 4, 5, 6, 7]
    for op in gen.generate("sweep", tmp_path / "w", 3):
        checks_by_id = {s.sid: s.check for s in op.scenarios}
        assert checks_by_id["control"] == "control" and op.exit == 4
        assert (op.target / "custom_profile.txt").exists()
        assert (op.target / "potential_f.txt").exists()


@pytest.mark.parametrize("n, value, pct", [
    (100, 90.0, 90.0),   # x_(90): ten samples beyond it
    (30, 20.0, 66.6667),
    (21, 11.0, 52.381),
    (20, 10.5, 50.0),    # no percentile above the median qualifies
    (5, 3.0, 50.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, pct):
    xs = [float(i) for i in range(n, 0, -1)]
    t = run.tail(xs)
    assert t["value"] == value
    assert t["percentile"] == pytest.approx(pct, abs=1e-3)
    assert t["samples"] == n
    if pct > 50.0:
        assert t["beyond"] == 10


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        ["root", 0.0, 10.0, -1, "op1"],
        ["a", 1.0, 4.0, 0, "op1"],
        ["b", 5.0, 9.0, 0, "op1"],
        ["b.child", 6.0, 7.0, 2, "op1"],
        ["b.child2", 6.5, 8.0, 2, "op1"],   # overlaps its sibling
        ["late", 8.5, 12.0, 0, "op1"],      # runs past its parent's end
    ]
    # root: children cover [1, 4], [5, 9] and the clipped [9, 10]; b: [6, 8]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 4 - 1, 3, 4 - 2, 1, 1.5, 3.5])
    agg = spans.summarize(tree)
    assert agg["root"] == {"calls": 1, "total": 10.0, "self": pytest.approx(2.0)}


def test_tracer_records_nesting_and_restores_targets():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.inner(x) * 2

    original = Mod.inner
    tracer.install([(Mod, "inner", "m.inner"), (Mod, "outer", "m.outer")])
    tracer.op = "op7"
    assert Mod.outer(1) == 4
    tracer.uninstall()
    assert Mod.inner is original
    assert [s[0] for s in tracer.spans] == ["m.outer", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert all(s[4] == "op7" for s in tracer.spans)
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_importtime_parts_count_outermost_modules_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        10 |        200 |     scipy",
        "import time:        30 |        300 |     scipy.interpolate",
        "import time:        40 |         40 |     mpmath",
        "import time:        20 |        700 |   imcflab.metrics",
        "import time:        20 |        750 | imcflab",
    ])
    assert run.importtime_parts(text) == pytest.approx({"scipy": 500e-6, "mpmath": 40e-6})


def test_limit_target_matches_closed_forms():
    assert checks.limit_target(3) == pytest.approx(4.0 * math.sqrt(math.pi), rel=1e-15)
    # n = 4: omega_3 = 2 pi^2
    assert checks.limit_target(4) == pytest.approx(3.0 * (2.0 * math.pi**2) ** (1 / 3), rel=1e-15)


def test_registry_flags_drift(tmp_path):
    reg = checks.Registry(tmp_path / "r.json")
    assert reg.check("k", "s", {"csv_sha256": "aa", "steps": 3}) == []
    reg.save()
    again = checks.Registry(tmp_path / "r.json")
    assert again.check("k", "s", {"steps": 3, "rhs_evals": 9}) == []
    assert again.check("k", "s", {"csv_sha256": "ab"}) == ["s: csv_sha256 drifted ('aa' -> 'ab')"]
