"""Driver calls with the one untraced instrument, and the correctness gate.

The only instrument in an untraced call is a clock read at entry and exit of
every ``on_checkpoint`` callback.  ``experiments`` reaches ``train`` through
its own global name, so ``CheckpointClock`` wraps it there.  The rows a
driver returns (step, loss, bound, ...) are matched to the clock reads after
the call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pkgutil
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import LOSS, REFERENCE_RTOL, REFERENCE_SEEDS

# One BLAS thread, for this process and the set-up probes it starts.  On a
# 2-core machine a second OpenBLAS thread shares a core with whatever else
# runs there, and every GEMM the network splits across both waits for it:
# with one busy process beside it, a loop of the network's GEMMs ran 2.3x
# slower on two threads and 1.1x slower on one.  This must run before numpy
# is first imported; the values found are kept for the environment block.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS_FOUND = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
HIDDEN = (16, 16)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_rescert():
    """Import rescert from this checkout's src/ and return (package, modules)."""
    if not (SRC / "rescert" / "__init__.py").is_file():
        raise BenchError(f"no rescert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import rescert
    except ImportError as err:
        raise BenchError(f"cannot import rescert from {SRC}: {err}") from None
    if not Path(rescert.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"rescert imported from {rescert.__file__}, not {SRC}")
    modules = {m.name: importlib.import_module(f"rescert.{m.name}")
               for m in pkgutil.iter_modules(rescert.__path__)
               if not m.name.startswith("_")}
    return rescert, modules


def init_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


class CheckpointClock:
    """Wraps ``experiments.train`` so every on_checkpoint callback is timed.

    With a tracer, the callback also becomes the span
    ``experiments.on_checkpoint``.
    """

    def __init__(self, experiments, tracer=None):
        self.experiments = experiments
        self.tracer = tracer
        self.trains: list[list] = []   # per train() call: (step, t_in, t_out)
        self._original = None

    def __enter__(self):
        self._original = original = self.experiments.train

        def train(*args, **kwargs):
            marks = []
            self.trains.append(marks)
            callback = kwargs.get("on_checkpoint")
            if callback is not None:
                kwargs["on_checkpoint"] = self._timed(callback, marks)
            return original(*args, **kwargs)

        self.experiments.train = train
        return self

    def __exit__(self, *exc):
        self.experiments.train = self._original

    def _timed(self, callback, marks):
        tracer = self.tracer

        def on_checkpoint(step, flat, loss):
            t_in = time.perf_counter()
            span = tracer.open("experiments.on_checkpoint") if tracer else None
            try:
                callback(step, flat, loss)
            finally:
                if tracer:
                    tracer.close(span)
            marks.append((step, t_in, time.perf_counter()))

        return on_checkpoint


@dataclass
class CallResult:
    ok: bool
    reason: str = ""
    wall_s: float = 0.0
    time_to_target_s: float | None = None
    target_step: int | None = None
    step_ms: list = field(default_factory=list)
    checkpoint_ms: list = field(default_factory=list)
    digest: str = ""
    final_loss: float | None = None
    final_error: float | None = None
    trajectory: list = field(default_factory=list)   # (step, certified bound)


@dataclass
class Drive:
    """A driver call made but not yet gated: its output directory and clock."""
    out: Path
    clock: CheckpointClock
    t0: float = 0.0
    wall: float = 0.0
    run: object = None
    error: str = ""


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def load_reference(workload: str, seed: int):
    try:
        table = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {REFERENCE}: {err}") from None
    return table.get(workload, {}).get(str(seed))


def _close(value, ref, rtol=REFERENCE_RTOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


class Harness:
    """Runs one workload's driver at one initialisation seed and gates each call."""

    def __init__(self, modules, workload, seed: int, reference=None):
        self.m = modules
        self.w = workload
        self.seed = seed
        self.reference = reference
        self.problem = modules["problems"].get_problem(workload.problem)
        self.first_digest = None
        OUT.mkdir(exist_ok=True)

    def config(self):
        return self.m["experiments"].ExperimentConfig(
            problem=self.w.problem, hidden=HIDDEN, quad_n=self.w.quad_n,
            steps=self.w.steps, record_every=self.w.record_every,
            seeds=(self.seed,))

    def audit(self):
        """fd_check on the workload's loss; returns (passed, report line)."""
        spec = self.m["problems"].default_spec(self.problem, hidden=HIDDEN, seed=self.seed)
        cfg = self.m["losses"].make_config(self.problem, LOSS, self.w.quad_n)
        report = self.m["training"].fd_check(spec, self.problem, cfg, n_coords=20,
                                             seed=self.seed)
        passed = report.passed()
        return passed, (f"fd_check {LOSS}: max relative discrepancy "
                        f"{report.max_discrepancy:.3e}, passed {passed}")

    def call(self) -> CallResult:
        return self.gate(self.drive())

    def drive(self, tracer=None) -> Drive:
        """One driver call and nothing else, so a tracer sees only the program."""
        exp = self.m["experiments"]
        d = Drive(Path(tempfile.mkdtemp(prefix="call-", dir=OUT)), CheckpointClock(exp, tracer))
        config = self.config()
        with d.clock:
            d.t0 = time.perf_counter()
            try:
                d.run = exp.run_certified(config, out_dir=d.out)[0]
            except (self.m["certify"].BoundViolation,
                    self.m["training"].DivergenceError) as err:
                d.error = f"{type(err).__name__}: {err}"
            except Exception as err:  # a crash in the program is a failed run
                traceback.print_exc(file=sys.stderr)
                d.error = f"{type(err).__name__}: {err}"
            d.wall = time.perf_counter() - d.t0
        return d

    def gate(self, d: Drive) -> CallResult:
        try:
            if d.error:
                return CallResult(False, d.error)
            digest = tree_digest(d.out)
        finally:
            shutil.rmtree(d.out, ignore_errors=True)
        return self._check(d, digest)

    def _check(self, d: Drive, digest) -> CallResult:
        """Checks one CertifiedRun; its rows are (step, loss, bound, h2, h1, l2)."""
        run = d.run
        final = run.final_report
        res = CallResult(True, wall_s=d.wall, digest=digest, final_loss=final.loss,
                         final_error=final.measured_error,
                         trajectory=[(r[0], r[2]) for r in run.rows])
        (marks,) = d.clock.trains
        if len(marks) != len(run.rows):
            raise RuntimeError(f"{len(marks)} checkpoint clock reads for "
                               f"{len(run.rows)} rows")
        for (s0, _, t_out), (s1, t_in, _) in zip(marks, marks[1:]):
            res.step_ms.append(1e3 * (t_in - t_out) / (s1 - s0))
        res.checkpoint_ms.extend(1e3 * (b - a) for _, a, b in marks)
        problems = []
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("CSV bytes differ from the first call with this seed")
        certify = self.m["certify"]
        reports = [certify.certified_h2_bound(loss, self.problem.domain, self.problem,
                                              measured_error=h2)
                   for _, loss, _, h2, _, _ in run.rows] + [final]
        for rep in reports:
            if not rep.certified:
                problems.append(f"checkpoint at loss {rep.loss!r} not certified")
            elif not rep.bound_holds():
                problems.append(f"bound {rep.bound!r} violated by {rep.measured_error!r}")
        hit = next((k for k, r in enumerate(run.rows) if r[2] <= self.w.target), None)
        if hit is None:
            problems.append(f"target {self.w.target} never met")
        else:
            res.target_step = run.rows[hit][0]
            res.time_to_target_s = marks[hit][2] - d.t0
        if self.reference is not None:
            if not (_close(final.loss, self.reference["loss"])
                    and _close(final.measured_error, self.reference["error"])):
                problems.append(
                    f"final loss/error {final.loss!r}/{final.measured_error!r} differ "
                    f"from reference {self.reference['loss']!r}/"
                    f"{self.reference['error']!r}")
        if problems:
            res.ok = False
            res.reason = "; ".join(problems)
        return res
