"""The demos run end to end against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_jets_and_quadrature_demo_runs(tmp_path):
    stdout = run_demo("jets_and_quadrature.py", tmp_path)
    # the hand-built jet agrees with sympy to every printed digit
    for label in ("value", "d2/dxdy"):
        line = next(l for l in stdout.splitlines() if l.strip().startswith(label))
        words = line.split()
        assert words[words.index("jet") + 1] == words[words.index("sympy") + 1], line
    assert list(tmp_path.iterdir()) == []  # writes nothing


@pytest.mark.parametrize("name", ["penalty_failure.py", "certified_poisson.py",
                                  "parabolic_heat.py"])
def test_demo_runs(tmp_path, name):
    run_demo(name, tmp_path)
