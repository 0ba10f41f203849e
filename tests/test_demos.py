"""The jets demo runs end to end against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_jets_and_quadrature_demo_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "jets_and_quadrature.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the hand-built jet agrees with sympy to every printed digit
    for label in ("value", "d2/dxdy"):
        line = next(l for l in proc.stdout.splitlines() if l.strip().startswith(label))
        words = line.split()
        assert words[words.index("jet") + 1] == words[words.index("sympy") + 1], line
    assert list(tmp_path.iterdir()) == []  # writes nothing
