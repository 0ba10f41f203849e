"""Deterministic full-batch Adam on the discretised losses.

The gradient is the exact derivative of the quadrature sum (reverse
accumulation through the jet forward pass), so it can be checked against
central finite differences of the loss value; ``fd_check`` does exactly that
and is the standing correctness oracle for the whole differentiation path.

``train`` runs on an objective its caller built, so a run assembles its
rows, distance factor and lift once.  Each step runs, in this order: the
forward pass (``Objective.value_and_grad``), the divergence check and the
best-loss update, ``on_checkpoint``, the reverse sweep (the pullback) and
the Adam update.  A certificate needs only the loss, so it never waits for
a gradient, and the final step runs no reverse sweep.  A checkpoint reads
the ansatz jets of the step just evaluated through
``Objective.ansatz_jets``, which reuses the objective's last network jets
only for a parameter vector bit for bit equal to theirs, and whose memo
never holds an array a later pass writes.

The divergence guard stops a run with ``DivergenceError`` once its loss is
not finite or above ``DIVERGENCE_FACTOR`` (1e6) times the initial loss.

Adam's moment decays and denominator guard are the published defaults
(Kingma & Ba, arXiv:1412.6980), ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``; the step size, step count and checkpoint spacing are the
schedule.  The losses a run records are the ``on_checkpoint`` rows of its
caller; the returned ``TrainState`` holds only the best network and loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ansatz import AnsatzSpec
from .losses import LossConfig, Objective, build_objective
from .network import _layer_slices
from .problems import PdeProblem

DIVERGENCE_FACTOR = 1e6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FD_REL_STEP = 1e-4
FD_DIR_STEP = 1e-5
FD_DIRECTIONS = 8
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
    record_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class TrainState:
    """Best-seen parameters and loss."""

    params: np.ndarray            # best-loss parameters seen
    loss: float                   # best loss seen over every evaluated step


@dataclass(frozen=True)
class FdCheckRow:
    """One central difference against the analytic gradient.

    kind is "coordinate" (index: the parameter), "random" (index: the
    direction) or "weights" / "bias" (index: the layer whose block the unit
    direction is restricted to).  floor is the rounding floor of the
    difference quotient, eps * |L| / h.
    """

    kind: str
    index: int
    analytic: float
    numeric: float
    discrepancy: float  # relative where the scale allows, absolute near zero
    relative: bool
    floor: float


@dataclass(frozen=True)
class FdCheckReport:
    rows: tuple
    max_discrepancy: float
    max_absolute_near_zero: float

    def failures(self) -> list:
        return [r for r in self.rows
                if not ((r.discrepancy < FD_REL_TOL) if r.relative
                        else (r.discrepancy < FD_ABS_TOL))]

    def passed(self) -> bool:
        return not self.failures()


def fd_check(spec: AnsatzSpec, problem: PdeProblem, cfg: LossConfig,
             n_coords: int = 20, seed: int = 0) -> FdCheckReport:
    """Central-difference audit of the analytic gradient.

    Coordinate rows probe random coordinates with steps
    FD_REL_STEP * (1 + |theta_i|).  Directional rows probe unit directions
    with step FD_DIR_STEP: FD_DIRECTIONS random ones over all parameters,
    then one inside each layer's weights and one inside each layer's bias,
    so a failing gradient block is named by its layer.  A block's direction
    is the analytic gradient's part in that block (a random one where that
    part is zero), whose directional derivative is the largest a unit
    direction in the block has.  A directional derivative has the size of
    the gradient, not of one small coordinate, so these rows decide far
    above the rounding floor that every row records.  All rows are held to
    FD_REL_TOL; where both values sit below FD_ZERO_SCALE a row is compared
    absolutely instead, against FD_ABS_TOL.
    """
    objective = build_objective(spec, problem, cfg)
    theta = spec.params.flatten()
    loss, pullback = objective.value_and_grad(theta)
    g = pullback()
    eps_loss = float(np.finfo(float).eps) * abs(loss)
    rng = np.random.default_rng(seed)
    n_coords = min(n_coords, theta.size)
    coords = rng.choice(theta.size, size=n_coords, replace=False)

    def row(kind, index, ana, h, plus, minus):
        num = (objective.value(plus) - objective.value(minus)) / (2.0 * h)
        scale = max(abs(ana), abs(num))
        relative = scale >= FD_ZERO_SCALE
        return FdCheckRow(kind, index, ana, num,
                          abs(ana - num) / (scale if relative else 1.0), relative,
                          eps_loss / h)

    rows = []
    for i in sorted(int(c) for c in coords):
        h = FD_REL_STEP * (1.0 + abs(float(theta[i])))
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        rows.append(row("coordinate", i, float(g[i]), h, tp, tm))
    directions = [("random", k, slice(None)) for k in range(FD_DIRECTIONS)]
    for layer, (w, b) in enumerate(_layer_slices(spec.params.widths)):
        directions += [("weights", layer, w), ("bias", layer, b)]
    for kind, index, block in directions:
        d = np.zeros_like(theta)
        if kind != "random":
            d[block] = g[block]
        if not d.any():
            d[block] = rng.standard_normal(d[block].size)
        d /= np.linalg.norm(d)
        h = FD_DIR_STEP
        rows.append(row(kind, index, float(g @ d), h, theta + h * d, theta - h * d))
    rel = [r.discrepancy for r in rows if r.relative]
    zer = [r.discrepancy for r in rows if not r.relative]
    return FdCheckReport(tuple(rows),
                         max(rel) if rel else 0.0,
                         max(zer) if zer else 0.0)


def train(objective: Objective, schedule: AdamSchedule = AdamSchedule(),
          on_checkpoint: Optional[Callable] = None):
    """Full-batch Adam on a built objective.  Returns the TrainState at the
    best-seen parameters.

    Each step runs the forward pass, the divergence check and best-loss
    update, ``on_checkpoint``, the reverse sweep and the Adam update, in
    that order.  ``on_checkpoint(step, flat_params, loss)`` fires at every
    checkpoint (step 0, every record_every, and the final step), after the
    loss at flat_params was evaluated and before its gradient is, so
    ``objective.ansatz_jets(flat_params)`` reuses that pass's network jets.
    The run aborts with DivergenceError if the loss exceeds
    DIVERGENCE_FACTOR times its initial value; parameters are left
    untouched by that failure.
    """
    theta = objective.spec.params.flatten()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best_loss = np.inf
    best_theta = theta.copy()
    initial_loss = None

    for step in range(schedule.steps + 1):
        loss, pullback = objective.value_and_grad(theta)
        if initial_loss is None:
            initial_loss = loss
        if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-300):
            raise DivergenceError(step, loss, initial_loss)
        if loss < best_loss:
            best_loss, best_theta = loss, theta.copy()
        if on_checkpoint is not None and (step % schedule.record_every == 0
                                          or step == schedule.steps):
            on_checkpoint(step, theta.copy(), loss)
        if step == schedule.steps:
            break
        grad = pullback()
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        t = step + 1
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        theta = theta - schedule.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    return TrainState(params=best_theta, loss=best_loss)
