"""The traced benchmark run as a tier-1 guard: a rename that zeroes one of
the benchmark's expected per-layer metrics (a span or counter it looks up by
name, or the ``schedule=`` keyword it reads off ``train``) turns a traced
run's ``"correct"`` to false, and this finds it before a timing run does, on
each workload of the benchmark."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the one check a one-second run may fail for noise: the share of the traced
# run time that lies outside every rescert span
COVERAGE_NOTE = "layer self times cover only"


@pytest.mark.parametrize("workload", ["p1_certify", "p2_certify_dense"])
def test_traced_benchmark_run_fails_no_call_and_no_named_check(workload):
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert any(l.startswith("calls: ") and ", failed 0," in l for l in lines), out.stdout
    failed = [l for l in lines if l.startswith("check failed:")]
    assert all(COVERAGE_NOTE in l for l in failed), failed
