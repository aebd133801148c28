import os
from pathlib import Path

import numpy as np
import pytest

import imcflab as L
from imcflab import flow

# the source tree the tests import imcflab from
SRC_DIR = str(Path(L.__file__).resolve().parent.parent)

# the (n, m) family exercised across the metric-side tests
SUITE_NM = [(n, m) for n in range(3, 8) for m in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]


def child_env() -> dict:
    """Environment for a child interpreter that imports the same imcflab."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def suite_grid(spec, num=40, r_hi=None):
    """Log-spaced radii safely inside the working domain."""
    # 1.1 r_min is beyond the horizon of every positive mass of SUITE_NM,
    # and 0.5 clears the 0.1 cutoff of the others
    lo = max(1.1 * spec.r_min, 0.5)
    hi = r_hi if r_hi is not None else spec.r_max
    return np.geomspace(lo, hi, num)


def p2_graph(spec, r0, amp, n_intervals):
    """Initial slice r0 + amp * P2(cos theta) on the standard grid."""
    theta = np.linspace(0.0, np.pi, n_intervals + 1)
    rho = r0 + amp * (1.5 * np.cos(theta) ** 2 - 0.5)
    return L.AxisymmetricGraph(theta, rho, spec)


def negative_h_beyond(monkeypatch, rho_lim):
    """Make the flow's graph_frame report H < 0 at one node of every state
    reaching past rho_lim, so a graph flow outgrowing rho_lim loses mean
    convexity there; return the min radius of each state so reported."""
    real = flow.graph_frame
    flipped = []

    def frame(rho, spec, grid):
        fr = real(rho, spec, grid)
        if np.min(rho) > rho_lim:
            fr.h[len(rho) // 2] = -abs(fr.h[len(rho) // 2])
            flipped.append(float(np.min(rho)))
        return fr

    monkeypatch.setattr(flow, "graph_frame", frame)
    return flipped


@pytest.fixture(scope="session")
def schw3m1():
    return L.ManifoldSpec.schwarzschild(3, 1.0)


@pytest.fixture(scope="session")
def flat3():
    return L.ManifoldSpec.flat(3)
