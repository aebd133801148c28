"""Seed-driven input generator for the imcflab benchmark.

Every workload's inputs are scenario config files (plus the two-column data
files that custom profiles and sampled potentials reference), written from
one ``random.Random`` stream per workload and seed with fixed-precision
formatting, so the same seed gives byte-identical files.  Alongside the inputs the generator
returns the expectations each scenario must meet; those come from the
generator's own knowledge of what it built (a static weight, a control, a
sphere), never from the program's defaults, and the program never sees them.

Costs of the graph flows depend mostly on the mass (the explicit stepper's
stability cap scales with min V over the slice), so graphs are stratified:
one per mass stratum, jittered inside it.  Every run then covers the same
strata, so the median op time depends little on which masses a seed drew.

The held-out seed for confirming claims is documented in README.md.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Mass strata of the N=200 graph flows (one config per stratum per round).
GRAPH_FLOW_MASSES = (-1.0, -0.5, 0.0, 0.5, 1.0)
# Mass strata of the N=100 graphs inside each sweep directory.
SWEEP_GRAPH_MASSES = (-0.8, 0.0, 0.8)
SPHERE_DIMS = (3, 4, 5, 6, 7)
SWEEP_DIRS = 4


@dataclass
class Scenario:
    """One config file and what it must produce."""

    sid: str
    cfg: Path                 # the config file
    key: str                  # sha256 of the config and every file it reads
    exit: int                 # expected exit code
    check: str                # "sphere" | "graph" | "control" | "exit"
    n: int = 3


@dataclass
class Op:
    """One timed operation: a single scenario or a whole sweep directory."""

    name: str
    target: Path              # config file (flow) or directory (sweep)
    scenarios: list = field(default_factory=list)

    @property
    def exit(self) -> int:
        """Exit code of the CLI call: the first nonzero code by id, else 0."""
        codes = [s.exit for s in sorted(self.scenarios, key=lambda s: s.sid)]
        return next((c for c in codes if c != 0), 0)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _horizon(n: int, m: float) -> float:
    return (2.0 * m) ** (1.0 / (n - 2)) if m > 0 else 0.0


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _scenario(cfg: Path, text: str, data: dict, **kw) -> Scenario:
    """Write a config (and its data files) and digest everything it reads."""
    digest = hashlib.sha256(text.encode())
    for name in sorted(data):
        _write(cfg.parent / name, data[name])
        digest.update(name.encode() + b"\0" + data[name].encode())
    _write(cfg, text)
    return Scenario(sid=cfg.stem, cfg=cfg, key=digest.hexdigest(), **kw)


def _config(sections: dict) -> str:
    out = []
    for sec, items in sections.items():
        out.append(f"[{sec}]")
        out += [f"{k} = {v}" for k, v in items.items()]
        out.append("")
    return "\n".join(out)


def _sphere_text(sid, n, m, r0, t_end, dt_out, potential=None):
    secs = {"manifold": {"family": "schwarzschild", "n": n, "m": _fmt(m)}}
    if potential:
        secs["potential"] = potential
    secs["surface"] = {"kind": "sphere", "r0": _fmt(r0)}
    secs["solver"] = {"t_end": _fmt(t_end), "dt_out": _fmt(dt_out)}
    secs["outputs"] = {"id": sid}
    return _config(secs)


def _graph_secs(sid, manifold, r0, amp, n_grid):
    return {"manifold": manifold,
            "surface": {"kind": "graph",
                        "rho0": f"{_fmt(r0)} + ({_fmt(amp)})*P2(cos(theta))"},
            "solver": {"N": n_grid, "t_end": "3.0"},
            "outputs": {"id": sid}}


def _graph_params(rng, m_center):
    m = m_center + rng.uniform(-0.1, 0.1)
    r0 = rng.uniform(4.0, 5.0)
    amp = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.35)
    return m, r0, amp


def _sphere_params(rng, n, sign):
    m = sign * rng.uniform(0.2, 1.5)
    r0 = rng.uniform(1.5, 3.0) * max(1.0, _horizon(n, m))
    return m, r0


def _signs(rng, k):
    """k mass signs with at least one of each, in seed order."""
    signs = [-1.0, 1.0] + [rng.choice((-1.0, 1.0)) for _ in range(k - 2)]
    rng.shuffle(signs)
    return signs


def graph_flow(root: Path, seed: int) -> list:
    """N=200 Schwarzschild graphs, one per mass stratum (m<0 included)."""
    rng = random.Random(f"graph-flow:{seed}")
    ops = []
    for i, mc in enumerate(GRAPH_FLOW_MASSES):
        sid = f"graph{i}"
        m, r0, amp = _graph_params(rng, mc)
        text = _config(_graph_secs(
            sid, {"family": "schwarzschild", "n": 3, "m": _fmt(m)}, r0, amp, 200))
        sc = _scenario(root / f"{sid}.cfg", text, {}, exit=0, check="graph")
        ops.append(Op(sid, sc.cfg, [sc]))
    return ops


def sphere_cli(root: Path, seed: int) -> list:
    """Coordinate spheres for n=3..7 with ~400 output slices each."""
    rng = random.Random(f"sphere-cli:{seed}")
    ops = []
    for n, sign in zip(SPHERE_DIMS, _signs(rng, len(SPHERE_DIMS))):
        sid = f"sphere{n}"
        m, r0 = _sphere_params(rng, n, sign)
        text = _sphere_text(sid, n, m, r0, t_end=4.0, dt_out=0.01)
        sc = _scenario(root / f"{sid}.cfg", text, {}, exit=0, check="sphere", n=n)
        ops.append(Op(sid, sc.cfg, [sc]))
    return ops


def _table(r, values) -> str:
    return "".join(f"{a:.12e} {b:.17e}\n" for a, b in zip(r, values))


def _sweep_dir(d: Path, rng: random.Random) -> list:
    scen = []
    for i, (n, sign) in enumerate(zip(rng.sample(SPHERE_DIMS, 3), _signs(rng, 3))):
        sid = f"sphere{i}"
        m, r0 = _sphere_params(rng, n, sign)
        scen.append(_scenario(d / f"{sid}.cfg",
                              _sphere_text(sid, n, m, r0, t_end=2.0, dt_out=0.1),
                              {}, exit=0, check="sphere", n=n))
    for i, mc in enumerate(SWEEP_GRAPH_MASSES):
        sid = f"graph{i}"
        m, r0, amp = _graph_params(rng, mc)
        text = _config(_graph_secs(
            sid, {"family": "schwarzschild", "n": 3, "m": _fmt(m)}, r0, amp, 100))
        scen.append(_scenario(d / f"{sid}.cfg", text, {}, exit=0, check="graph"))

    # Negative control: the profile itself as weight breaks staticity, so Q
    # must rise along the exact sphere flow (criterion 7's construction).
    m = rng.uniform(0.5, 1.5)
    r0 = 2.0 * m * rng.uniform(1.6, 2.4)
    scen.append(_scenario(d / "control.cfg",
                          _sphere_text("control", 3, m, r0, t_end=3.0,
                                       dt_out=0.1,
                                       potential={"kind": "profile-weight"}),
                          {}, exit=4, check="control"))

    # Tabulated Schwarzschild profile: the same manifold through the spline
    # path, so a perturbed graph must still show Q dropping.
    m = rng.uniform(0.3, 1.0)
    r = [2.0 * m * 1.05 * (1000.0 / (2.0 * m * 1.05)) ** (k / 599) for k in range(600)]
    r[-1] = 1000.0
    prof = _table(r, [1.0 - 2.0 * m / x for x in r])
    _, r0, amp = _graph_params(rng, 0.0)
    secs = _graph_secs("custom", {"family": "custom", "n": 3,
                                  "profile_file": "custom_profile.txt",
                                  "r_min": _fmt(2.0 * m * 1.05)}, r0, amp, 100)
    scen.append(_scenario(d / "custom.cfg", _config(secs),
                          {"custom_profile.txt": prof}, exit=0, check="graph"))

    # Sampled static potential sqrt(V) on a Schwarzschild sphere.  The table
    # runs past r_max = 1000, where the mass flux differentiates the spline.
    m = float(_fmt(rng.uniform(0.3, 1.0)))
    r = [4000.0 ** (k / 2999) for k in range(3000)]
    pot = _table(r, [math.sqrt(1.0 + 2.0 * m / x) for x in r])
    r0 = rng.uniform(2.0, 6.0)
    text = _sphere_text("potential", 3, -m, r0, t_end=2.0, dt_out=0.1,
                        potential={"kind": "file", "file": "potential_f.txt"})
    scen.append(_scenario(d / "potential.cfg", text,
                          {"potential_f.txt": pot}, exit=0, check="exit"))
    return scen


def sweep(root: Path, seed: int) -> list:
    """Directories of mixed scenarios, one ``imcflab sweep`` call each."""
    rng = random.Random(f"sweep:{seed}")
    ops = []
    for i in range(SWEEP_DIRS):
        d = root / f"sweep{i}"
        ops.append(Op(f"sweep{i}", d, _sweep_dir(d, rng)))
    return ops


GENERATORS = {"graph-flow": graph_flow, "sphere-cli": sphere_cli, "sweep": sweep}


def generate(workload: str, root: Path, seed: int) -> list:
    """Write the inputs of ``workload`` for ``seed`` under ``root``."""
    return GENERATORS[workload](Path(root), seed)
