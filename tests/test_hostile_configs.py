"""Hostile configs: valid configs with 1-3 keys set to extreme or malformed
values must end in a documented exit code (0, 2 to 6), never in exit 1 or
an uncaught exception."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from imcflab.cli import main
from imcflab.scenario import _SCHEMA

DOCUMENTED = {0, 2, 3, 4, 5, 6}

POOL = ["0", "-1", "nan", "inf", "-inf", "1e-300", "5e-324", "1e300", "1e200",
        "abc", "1000000000000"]

KEYS = sorted((sec, key) for sec, keys in _SCHEMA.items() for key in keys)

SPHERE = {"manifold": {"family": "schwarzschild", "n": "3", "m": "1"},
          "surface": {"kind": "sphere", "r0": "4"},
          "solver": {"t_end": "1", "dt_out": "0.25"}}

GRAPH = {"manifold": {"family": "schwarzschild", "n": "3", "m": "1"},
         "surface": {"kind": "graph", "rho0": "4 + 0.3*P2(cos(theta))"},
         "solver": {"N": "40", "t_end": "0.5", "dt_out": "0.25"}}

# radii whose area r^2 is below the normal float64 range, each three
# coordinated edits away from a base, which the fuzz does not reach: the
# area underflows to 0 or to a subnormal, or the profile's 1/r overflows
TINY_RADII = [
    *[(SPHERE, [(("manifold", "m"), m), (("manifold", "r_min"), r_min),
                (("surface", "r0"), r0)])
      for m in ("0", "-1") for r_min, r0 in (("0", "1e-300"), ("5e-324", "1e-300"),
                                            ("0", "5e-324"))],
    *[(GRAPH, [(("manifold", "m"), m), (("manifold", "r_min"), "0"),
               (("surface", "rho0"), "1e-300 + 0*theta")]) for m in ("0", "-1")],
    (SPHERE, [(("manifold", "family"), "flat"), (("manifold", "r_min"), "0"),
              (("surface", "r0"), "1e-170")]),
    (SPHERE, [(("manifold", "m"), "-1"), (("manifold", "r_min"), "1e-320"),
              (("surface", "r0"), "1e-160")]),
]


# slices where r^(n-2) << |m|, so |1 - V| is beyond 2^26 and Q is mostly
# rounding: the sphere exited 4 on a rounding jump, the graphs 0
DEEP_MASS = [
    (SPHERE, [(("manifold", "m"), "-1"), (("manifold", "r_min"), "0"),
              (("surface", "r0"), "1e-20")]),
    *[(GRAPH, [(("manifold", "m"), "-1"), (("manifold", "r_min"), "0"),
               (("surface", "rho0"), f"{scale}*(1 + 0.1*P2(cos(theta)))")])
      for scale in ("1e-30", "1e-150")],
]


def with_edge_examples(test):
    for base, changes in TINY_RADII + DEEP_MASS:
        test = example(base=base, changes=changes)(test)
    return test


edits = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(POOL)),
                 min_size=1, max_size=3, unique_by=lambda e: e[0])

hostile = settings(deadline=None, derandomize=True, database=None)


def render(base: dict, changes=()) -> str:
    sections = {sec: dict(items) for sec, items in base.items()}
    for (sec, key), value in changes:
        sections.setdefault(sec, {})[key] = value
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                   for sec, items in sections.items())


def run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(hostile, max_examples=300)
@given(base=st.sampled_from([SPHERE, GRAPH]), changes=edits)
@with_edge_examples
def test_flow_exits_with_a_documented_code(base, changes):
    text = render(base, changes)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "h.cfg").write_text(text)
        code, err = run("flow", "--config", f"{tmp}/h.cfg", "--out", f"{tmp}/out")
    assert code in DOCUMENTED, f"exit {code}: {err}\n{text}"


@settings(hostile, max_examples=200)
@given(base=st.sampled_from([SPHERE, GRAPH]), changes=edits)
def test_static_check_exits_with_a_documented_code(base, changes):
    text = render(base, changes)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "h.cfg").write_text(text)
        code, err = run("static-check", "--config", f"{tmp}/h.cfg")
    assert code in DOCUMENTED, f"exit {code}: {err}\n{text}"


@settings(hostile, max_examples=30)
@given(changes=edits)
def test_sweep_with_one_hostile_config(changes):
    text = render(SPHERE, changes)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a", "c"):
            (Path(tmp) / f"{name}.cfg").write_text(render(SPHERE))
        (Path(tmp) / "b.cfg").write_text(text)
        code, err = run("sweep", "--config", tmp, "--out", f"{tmp}/out")
    assert code in DOCUMENTED, f"exit {code}: {err}\n{text}"
