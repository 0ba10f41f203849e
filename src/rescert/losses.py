"""Quadrature-discretised residual losses and their exact gradients.

At every node the strong-form residual is a fixed linear functional of the
ansatz jets, and the ansatz jets are a fixed linear map of the network jets
(Leibniz rule with the distance factor).  Each loss therefore precomputes,
once, per-node row vectors C and offsets d with

    residual components r = C @ (network jets) + d,
    loss = sum_nodes w * |r|^2,

after which evaluation is a jet forward pass and the parameter gradient is
one reverse sweep with cotangent 2 w r C on the output jets.  One
routine runs every block's forward pass: ``Objective.value`` returns its
loss, and ``Objective.value_and_grad`` returns the same loss with a
pullback that runs the reverse sweep over that pass, so ``training.train``
checks the loss for divergence, keeps the best one and certifies it at a
checkpoint before it pays for the gradient its Adam step needs.  The rows and
offsets come from the problem's fields, all read through ``jets``/``values``:
f's values (and its order-1 jets for the residual gradient), and for
div(a grad v) the coefficient's value and gradient from one order-1 jet.

An ``Objective`` remembers the network jets of its last forward pass on its
first block, with the read-only parameter vector of their pass, so that
``ansatz_jets`` can hand a checkpoint the ansatz jets of the parameters the
optimiser step just evaluated without a second forward pass.  The memo is
used only when the vector asked for is bit for bit the remembered one; any
other vector, including the same array mutated in place, gets a fresh pass.
It holds the jets ``network.forward_jets`` returned, which no later forward
pass writes: every pass allocates its own output.

Variants: interior (residual of an exact-boundary ansatz, for every problem
kind; on a space-time box it is the heat residual), penalty (interior
residual plus tau * boundary misfit), sobolev_k1 (residual plus its
gradient, one extra derivative order).  ``build_objective`` refuses what is
not its problem's, as the certificate would not hold: a spec built for
another problem, or a rule (interior; boundary for the penalty, whose data
are the lift's trace) that does not cover the problem's domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import network
from .ansatz import AnsatzSpec, compose_jets
from .jets import coeff_layout
from .problems import PdeProblem
from .quadrature import QuadratureRule, build_rule, kahan_sum

VARIANTS = ("interior", "penalty", "sobolev_k1")


@dataclass(frozen=True)
class LossConfig:
    """Which loss to assemble and on which quadrature rules."""

    variant: str = "interior"
    tau: Optional[float] = None
    interior: Optional[QuadratureRule] = None
    boundary: Optional[QuadratureRule] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.variant == "penalty":
            if self.tau is None or not self.tau > 0:
                raise ValueError("penalty loss needs a positive weight tau")
            if self.boundary is None:
                raise ValueError("penalty loss needs a boundary rule")
        elif self.tau is not None:
            raise ValueError("tau only applies to the penalty loss")
        if self.interior is None:
            raise ValueError(f"{self.variant} loss needs an interior rule")


def make_config(problem: PdeProblem, variant: str = "interior", n: int = 24,
                tau: Optional[float] = None) -> LossConfig:
    """Default rules for a problem: one tensor rule per needed target."""
    interior = build_rule(problem.domain, "interior", n)
    if variant == "penalty":
        return LossConfig(variant=variant, tau=tau, interior=interior,
                          boundary=build_rule(problem.domain, "boundary", n))
    return LossConfig(variant=variant, interior=interior)


# -- residual rows -------------------------------------------------------------


def residual_rows(problem: PdeProblem, X, order: int, with_gradient: bool = False):
    """Rows R and offsets c with residual components r_m = R_m . (v jets) + c_m.

    with_gradient adds one row per coordinate for the residual gradient
    (needs order 3 and a differentiable right-hand side).
    """
    if with_gradient and problem.kind != "poisson":
        raise ValueError("gradient-augmented residuals are only assembled for poisson problems")
    X = np.asarray(X, dtype=float)
    d = problem.domain.dim
    lay = coeff_layout(d, order)
    m = 1 + (d if with_gradient else 0)
    rows = np.zeros((X.shape[0], m, lay.size))
    const = np.zeros((X.shape[0], m))

    if problem.kind == "poisson":
        rows[:, 0] = lay.laplacian_row()
        const[:, 0] = problem.rhs.values(X)
        if with_gradient:
            rows[:, 1:] = lay.grad_laplacian_rows()
            const[:, 1:] = problem.rhs.jets(X, 1)[:, 1:]
    elif problem.kind == "elliptic_divA":
        # div(a grad v) + f = a Laplace(v) + grad a . grad v + f
        a = problem.coeff.jets(X, 1)
        rows[:, 0] = a[:, :1] * lay.laplacian_row()
        rows[:, 0, 1:1 + d] = a[:, 1:]
        const[:, 0] = problem.rhs.values(X)
    else:  # heat: r = d_t v - Laplace_x v - f on (t, x...) nodes
        rows[:, 0] -= lay.laplacian_row(range(1, d))
        rows[:, 0, lay.position((0,))] = 1.0
        const[:, 0] = -problem.rhs.values(X)
    return rows, const


# -- objective -----------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    nodes: np.ndarray
    weights: np.ndarray  # quadrature weights, already scaled (e.g. by tau)
    order: int
    cmat: np.ndarray     # (N, M, C) rows acting on network jets
    dvec: np.ndarray     # (N, M) residual offsets
    P: Optional[np.ndarray]  # the composition v_jets = P @ u_jets + base folded
    base: np.ndarray         # into cmat and dvec (P None: identity)


class Objective:
    """A discretised loss bound to one ansatz structure.

    ``value`` and ``value_and_grad`` take the flat parameter vector, so
    optimisation and finite-difference probing never rebuild the geometry.
    Both remember the first block's network jets for ``ansatz_jets`` (see
    the module docstring).
    """

    def __init__(self, spec: AnsatzSpec, blocks: list[_Block]):
        self.spec = spec
        self.blocks = blocks
        self._scale, self._shift = spec.input_scaling()
        self._last = None  # (params.flat, network jets on blocks[0])

    def _forward(self, flat):
        """Every block's forward pass at flat, with the memo of the first:
        (loss, params, [(block, residuals, cache)]) for the reverse sweep."""
        params = self.spec.params.with_flat(flat)
        sweeps, parts = [], []
        for block in self.blocks:
            jets, cache = network.forward_jets(params, block.nodes, block.order,
                                               self._scale, self._shift)
            if block is self.blocks[0]:
                self._last = (params.flat, jets)
            r = np.einsum("nmc,nc->nm", block.cmat, jets) + block.dvec
            parts.append(block.weights * np.sum(r * r, axis=1))
            sweeps.append((block, r, cache))
        return kahan_sum(np.concatenate(parts)), params, sweeps

    def value(self, flat) -> float:
        return self._forward(flat)[0]

    def value_and_grad(self, flat):
        """(loss, pullback) at flat: the forward pass runs now, and
        ``pullback()`` runs every block's reverse sweep, returns the flat
        gradient and drops the forward caches.  A second call raises."""
        loss, params, sweeps = self._forward(flat)

        def pullback():
            if not sweeps:
                raise RuntimeError("pullback already ran; its forward caches are gone")
            grad = np.zeros(params.n_params)
            while sweeps:
                block, r, cache = sweeps.pop(0)
                out_bar = np.einsum("nm,nmc->nc", 2.0 * block.weights[:, None] * r,
                                    block.cmat)
                grad += network.backward_jets(params, cache, out_bar, block.order)
            return grad

        return loss, pullback

    def ansatz_jets(self, flat) -> np.ndarray:
        """Jets (N, C) of the ansatz v at parameters flat, on the first
        block's nodes and to its order: ``compose_jets`` with the block's
        composition, as in ``AnsatzSpec.jets``.  The network jets
        come from the last forward pass when flat is bit for bit its vector,
        and from a fresh pass otherwise."""
        block = self.blocks[0]
        flat = np.asarray(flat, dtype=float)
        if self._last is not None and self._last[0].tobytes() == flat.tobytes():
            U = self._last[1]
        else:
            U = network.forward_jets(self.spec.params.with_flat(flat), block.nodes,
                                     block.order, self._scale, self._shift)[0]
        return compose_jets(block.P, block.base, U)


def _compose_block(spec, rule, order, rows, const, weight=1.0):
    """Block of residuals rows . (v jets) + const on the rule's nodes, with
    the ansatz composition v = P u + base folded into the rows."""
    P, base = spec.composition(rule.nodes, order)
    cmat = rows if P is None else np.einsum("nmc,ncd->nmd", rows, P)
    dvec = const + np.einsum("nmc,nc->nm", rows, base)
    return _Block(rule.nodes, weight * rule.weights, order, cmat, dvec, P, base)


def build_objective(spec: AnsatzSpec, problem: PdeProblem, cfg: LossConfig) -> Objective:
    """Check the ansatz, problem, and loss config agree, then assemble blocks."""

    def residual_block(rule, order, with_gradient=False):
        rows, const = residual_rows(problem, rule.nodes, order, with_gradient)
        return _compose_block(spec, rule, order, rows, const)

    if spec.problem != problem:
        raise ValueError(f"the ansatz was built for {spec.problem.name}, not "
                         f"{problem.name}: a spec belongs to one problem")
    v = cfg.variant
    if v != "penalty" and spec.mode != "exact_bc":
        raise ValueError(f"{v} loss requires an exact-boundary ansatz")
    if v == "penalty" and problem.kind == "heat":
        raise ValueError("penalty loss covers spatial problems")
    if v == "sobolev_k1" and problem.kind != "poisson":
        raise ValueError("sobolev_k1 loss is assembled for poisson problems")
    for rule, target in ((cfg.interior, "interior"),
                         *([(cfg.boundary, "boundary")] if v == "penalty" else [])):
        if (rule.domain, rule.target) != (problem.domain, target):
            raise ValueError(f"{problem.name}'s {target} rule must cover {problem.domain}, "
                             f"not {rule.domain} with target {rule.target!r}")
    if v == "interior":
        return Objective(spec, [residual_block(cfg.interior, 2)])
    if v == "penalty":
        # boundary misfit v - g, g the lift's trace: one order-0 row per boundary node
        b = cfg.boundary
        g = (problem.lift.values(b.nodes) if problem.lift is not None
             else np.zeros(b.n_nodes))
        misfit = _compose_block(spec, b, 0, np.ones((b.n_nodes, 1, 1)), -g[:, None], cfg.tau)
        return Objective(spec, [residual_block(cfg.interior, 2), misfit])
    # sobolev_k1
    return Objective(spec, [residual_block(cfg.interior, 3, with_gradient=True)])
