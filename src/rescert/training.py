"""Deterministic full-batch Adam on the discretised losses.

The gradient is the exact derivative of the quadrature sum (reverse
accumulation through the jet forward pass), so it can be checked against
central finite differences of the loss value; ``fd_check`` does exactly that
and is the standing correctness oracle for the whole differentiation path.

The divergence guard stops a run with ``DivergenceError`` once its loss is
not finite or above ``DIVERGENCE_FACTOR`` (1e6) times the initial loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ansatz import AnsatzSpec
from .losses import LossConfig, build_objective
from .problems import PdeProblem

DIVERGENCE_FACTOR = 1e6
FD_REL_STEP = 1e-4
FD_ZERO_SCALE = 1e-8
FD_REL_TOL = 1e-5
FD_ABS_TOL = 1e-8


class DivergenceError(RuntimeError):
    """Raised when the loss blows past the divergence guard."""

    def __init__(self, step, loss, initial):
        super().__init__(
            f"training diverged at step {step}: loss {loss:.3e} exceeds "
            f"1e6 x initial loss {initial:.3e}"
        )
        self.step = step
        self.loss = loss


@dataclass
class AdamSchedule:
    steps: int = 5000
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    record_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class TrainState:
    """Best-seen parameters and loss, and the loss trajectory at recording
    resolution."""

    params: np.ndarray            # best-loss parameters seen
    step: int
    loss: float                   # best loss seen (min over history)
    history: list = field(default_factory=list)  # (step, loss) pairs

    def __post_init__(self):
        steps = [s for s, _ in self.history]
        if steps != sorted(set(steps)):
            raise ValueError("history steps must be strictly increasing")


@dataclass(frozen=True)
class FdCheckRow:
    index: int
    analytic: float
    numeric: float
    discrepancy: float  # relative where the scale allows, absolute near zero
    relative: bool


@dataclass(frozen=True)
class FdCheckReport:
    rows: tuple
    max_discrepancy: float
    max_absolute_near_zero: float

    def passed(self) -> bool:
        return all(
            (r.discrepancy < FD_REL_TOL) if r.relative else (r.discrepancy < FD_ABS_TOL)
            for r in self.rows
        )


def fd_check(spec: AnsatzSpec, problem: PdeProblem, cfg: LossConfig,
             n_coords: int = 20, seed: int = 0) -> FdCheckReport:
    """Central-difference audit of the analytic gradient on random coordinates.

    Steps are FD_REL_STEP * (1 + |theta_i|).  Coordinates where both the
    analytic and numeric values sit below FD_ZERO_SCALE are compared
    absolutely instead of relatively.
    """
    objective = build_objective(spec, problem, cfg)
    theta = spec.params.flatten()
    g = objective.value_and_grad(theta)[1]
    rng = np.random.default_rng(seed)
    n_coords = min(n_coords, theta.size)
    coords = rng.choice(theta.size, size=n_coords, replace=False)
    rows = []
    for i in sorted(int(c) for c in coords):
        h = FD_REL_STEP * (1.0 + abs(float(theta[i])))
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        num = (objective.value(tp) - objective.value(tm)) / (2.0 * h)
        ana = float(g[i])
        scale = max(abs(ana), abs(num))
        if scale < FD_ZERO_SCALE:
            rows.append(FdCheckRow(i, ana, num, abs(ana - num), relative=False))
        else:
            rows.append(FdCheckRow(i, ana, num, abs(ana - num) / scale, relative=True))
    rel = [r.discrepancy for r in rows if r.relative]
    zer = [r.discrepancy for r in rows if not r.relative]
    return FdCheckReport(tuple(rows),
                         max(rel) if rel else 0.0,
                         max(zer) if zer else 0.0)


def train(spec: AnsatzSpec, problem: PdeProblem, cfg: LossConfig,
          schedule: AdamSchedule = AdamSchedule(),
          on_checkpoint: Optional[Callable] = None):
    """Full-batch Adam.  Returns (TrainState, spec at best-seen parameters).

    ``on_checkpoint(step, flat_params, loss)`` fires at every recorded step
    (step 0, every record_every, and the final step).  The run aborts with
    DivergenceError if the loss exceeds DIVERGENCE_FACTOR times its initial
    value; parameters are left untouched by that failure.
    """
    objective = build_objective(spec, problem, cfg)
    theta = spec.params.flatten()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history: list[tuple[int, float]] = []
    best_loss = np.inf
    best_theta = theta.copy()
    best_step = 0
    initial_loss = None

    def record(step, loss, theta_now):
        history.append((step, loss))
        if on_checkpoint is not None:
            on_checkpoint(step, theta_now.copy(), loss)

    for step in range(schedule.steps + 1):
        if step < schedule.steps:
            loss, grad = objective.value_and_grad(theta)
        else:
            loss, grad = objective.value(theta), None
        if initial_loss is None:
            initial_loss = loss
        if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-300):
            raise DivergenceError(step, loss, initial_loss)
        if loss < best_loss:
            best_loss, best_theta, best_step = loss, theta.copy(), step
        if step % schedule.record_every == 0 or step == schedule.steps:
            record(step, loss, theta)
        if step == schedule.steps:
            break
        m = schedule.beta1 * m + (1.0 - schedule.beta1) * grad
        v = schedule.beta2 * v + (1.0 - schedule.beta2) * grad * grad
        t = step + 1
        m_hat = m / (1.0 - schedule.beta1**t)
        v_hat = v / (1.0 - schedule.beta2**t)
        theta = theta - schedule.lr * m_hat / (np.sqrt(v_hat) + schedule.eps)

    # keep the best-seen loss visible in the history without reordering it
    if all(s != best_step for s, _ in history):
        history.append((best_step, best_loss))
        history.sort(key=lambda p: p[0])

    state = TrainState(params=best_theta, step=schedule.steps, loss=best_loss,
                       history=history)
    return state, spec.with_params(best_theta)

