"""Correctness gate and determinism registry of the imcflab benchmark.

Expectations mirror the acceptance criteria with their own numbers, not the
program's defaults:

* sphere rows: ``Q`` within 1e-10 of ``(n-1) omega^(1/(n-1))`` (omega from
  ``math.gamma``) and ``|deficit| < 1e-10`` on every emitted slice;
* static graphs: largest increase of ``Q`` between slices at most 1e-6,
  area-law residual below 1e-4 (recomputed here from the emitted ``t`` and
  ``area`` columns) and ``Q`` lower at the end than at the start;
* the profile-weight control: exit 4 and ``monotone = false``;
* every scenario: the exit code the generator expects.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

SPHERE_TOL = 1e-10
MONOTONE_TOL = 1e-6
AREA_TOL = 1e-4


def limit_target(n: int) -> float:
    """(n-1) omega_{n-1}^(1/(n-1)), omega_{n-1} = 2 pi^(n/2) / Gamma(n/2)."""
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return (n - 1) * omega ** (1.0 / (n - 1))


def read_table(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: no rows")
    return {k: [float(r[k]) for r in rows] for k in rows[0]}


def check_scenario(sc, code: int, csv_path: Path, json_path: Path) -> list:
    """Problems with one scenario's exit code and emitted outputs."""
    if code != sc.exit:
        return [f"{sc.sid}: exit {code}, expected {sc.exit}"]
    try:
        table = read_table(csv_path)
        summary = json.loads(Path(json_path).read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"{sc.sid}: unreadable outputs ({exc})"]
    q, t, area = table["Q"], table["t"], table["area"]
    problems = []
    if sc.check == "sphere":
        target = limit_target(sc.n)
        gap = max(abs(x - target) for x in q)
        deficit = max(abs(x) for x in table["deficit"])
        if not gap < SPHERE_TOL:
            problems.append(f"{sc.sid}: |Q - limit| = {gap:.3e}")
        if not deficit < SPHERE_TOL:
            problems.append(f"{sc.sid}: |deficit| = {deficit:.3e}")
    elif sc.check == "graph":
        rise = max(b - a for a, b in zip(q, q[1:]))
        area_res = max(abs(a * math.exp(-s) / area[0] - 1.0) for s, a in zip(t, area))
        if not rise <= MONOTONE_TOL:
            problems.append(f"{sc.sid}: Q rises by {rise:.3e}")
        if not area_res < AREA_TOL:
            problems.append(f"{sc.sid}: area-law residual {area_res:.3e}")
        if not q[-1] < q[0]:
            problems.append(f"{sc.sid}: Q does not drop ({q[0]!r} -> {q[-1]!r})")
    elif sc.check == "control":
        if summary["verdicts"]["monotone"] is not False:
            problems.append(f"{sc.sid}: control reported monotone")
    return problems


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest(src: Path) -> str:
    """sha256 over the package sources, so the registry is per program."""
    h = hashlib.sha256()
    for p in sorted(Path(src).rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Registry:
    """Deterministic counters and CSV digests seen for each scenario input.

    Keyed by the sha256 of a scenario's config and data files and stored per
    program source digest, so any rerun of the same input by the same code,
    in this run or an earlier one, must reproduce every recorded value.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, key: str, sid: str, record: dict) -> list:
        seen = self.data.setdefault(key, {})
        problems = [f"{sid}: {k} drifted ({seen[k]!r} -> {v!r})"
                    for k, v in record.items() if k in seen and seen[k] != v]
        for k, v in record.items():
            seen.setdefault(k, v)
        return problems

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
