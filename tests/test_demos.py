"""Every demo script runs to completion against the package it ships with,
with numpy's RuntimeWarnings raised as errors."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
