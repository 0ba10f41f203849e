"""Deterministic quadrature rules and quadrature-based Sobolev norms.

Tensor Gauss-Legendre everywhere a box direction exists; disks combine a
radial Gauss rule (the Jacobian r is absorbed into the weights) with a
uniform angular grid, which integrates trigonometric polynomials below the
node count exactly.  A rule covers a domain's interior or its boundary; the
interior of a space-time box is the cylinder (0, T) x Omega.  All
reductions are correctly rounded sums (``math.fsum``), so their results do
not depend on the node order and repeated runs are bit-identical.  There is one integral,
``integrate_values(rule, f(rule.nodes))``.  Each error norm takes the error
on the rule's nodes, formed by its caller: order-2 jets (N, C) for
``sobolev_errors_upto`` (L2, H1, H2) and the heat norm ``x_norm_error``,
values (N,) for ``boundary_misfit``.  Norms read derivatives off the packed
jets through ``jets.CoeffLayout``: squared tensors weighted by ``multiplicity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, pi

import numpy as np

from .geometry import Disk, Domain, Rectangle, SpaceTimeBox
from .jets import coeff_layout

TARGETS = ("interior", "boundary")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (N, d), positive weights (N,), and the domain and target they cover."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: Domain
    target: str

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def kahan_sum(values) -> float:
    """Correctly rounded sum (``math.fsum``) of all values, independent of
    their order."""
    return fsum(np.asarray(values, dtype=float).ravel().tolist())


@lru_cache(maxsize=None)
def _gauss_unit(n: int):
    """n-point Gauss-Legendre nodes/weights on (0, 1), computed once per n
    and read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on (a, b)."""
    x, w = _gauss_unit(n)
    return a + (b - a) * x, (b - a) * w


def _tensor(a, wa, b, wb):
    """Tensor product of two rules: row i * len(wb) + j holds the node
    (a_i, b_j) with weight wa_i * wb_j."""
    a = np.reshape(a, (len(wa), -1))
    b = np.reshape(b, (len(wb), -1))
    nodes = np.hstack([np.repeat(a, len(wb), axis=0), np.tile(b, (len(wa), 1))])
    return nodes, np.repeat(wa, len(wb)) * np.tile(wb, len(wa))


def build_rule(domain: Domain, target: str, n: int) -> QuadratureRule:
    """Quadrature for a domain target with n nodes per tensor direction.

    interior: tensor Gauss-Legendre; disks use radial Gauss x 4n uniform
    angles; a space-time box tensors Gauss-Legendre in time with the spatial
    interior rule.  boundary: Gauss-Legendre per rectangle edge, 4n uniform
    angular nodes on a circle.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown quadrature target {target!r}")
    if n < 2:
        raise ValueError("node count per direction must be >= 2")

    if isinstance(domain, SpaceTimeBox):
        if target != "interior":
            raise ValueError("space-time domains only carry the 'interior' target")
        tq, tw = _gauss(0.0, domain.horizon, n)
        srule = build_rule(domain.spatial, "interior", n)
        nodes, weights = _tensor(tq, tw, srule.nodes, srule.weights)
        return QuadratureRule(nodes, weights, domain, target)

    if isinstance(domain, Rectangle):
        if target == "interior":
            x, wx = _gauss(domain.lo[0], domain.hi[0], n)
            y, wy = _gauss(domain.lo[1], domain.hi[1], n)
            return QuadratureRule(*_tensor(x, wx, y, wy), domain, target)
        # one Gauss panel per edge, in a fixed order: bottom, top, left, right
        x, wx = _gauss(domain.lo[0], domain.hi[0], n)
        y, wy = _gauss(domain.lo[1], domain.hi[1], n)
        parts = []
        for const, axis, q, w in (
            (domain.lo[1], 1, x, wx),
            (domain.hi[1], 1, x, wx),
            (domain.lo[0], 0, y, wy),
            (domain.hi[0], 0, y, wy),
        ):
            nd = np.empty((n, 2))
            nd[:, axis] = const
            nd[:, 1 - axis] = q
            parts.append((nd, w))
        nodes = np.concatenate([p[0] for p in parts])
        weights = np.concatenate([p[1] for p in parts])
        return QuadratureRule(nodes, weights, domain, target)

    if isinstance(domain, Disk):
        m = 4 * n  # angular nodes; exact for trig polynomials of degree < 4n
        theta = 2.0 * pi * np.arange(m) / m
        ct, st = np.cos(theta), np.sin(theta)
        cx, cy = domain.center
        if target == "interior":
            r, wr = _gauss(0.0, domain.radius, n)
            # (r_k, cos, sin) rows, weight wr_k * r_k * (2 pi / m)
            polar, weights = _tensor(r, wr * r, np.column_stack([ct, st]),
                                     np.full(m, 2.0 * pi / m))
            nodes = np.array([cx, cy]) + polar[:, :1] * polar[:, 1:]
            return QuadratureRule(nodes, weights, domain, target)
        nodes = np.column_stack([cx + domain.radius * ct, cy + domain.radius * st])
        weights = np.full(m, domain.radius * 2.0 * pi / m)
        return QuadratureRule(nodes, weights, domain, target)

    raise TypeError(f"no quadrature for domain {type(domain).__name__}")


def integrate_values(rule: QuadratureRule, values) -> float:
    """Integral of a field given by its values at the rule's nodes.  Fails
    loudly on non-finite values, naming the first offending node."""
    values = np.asarray(values, dtype=float)
    if values.shape != (rule.n_nodes,):
        raise ValueError(f"expected {rule.n_nodes} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        k = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"non-finite value at node {k} = {rule.nodes[k]!r}")
    return kahan_sum(rule.weights * values)


# -- norms of errors ---------------------------------------------------------


def _error_jets(e, rule: QuadratureRule):
    """The error's order-2 jets (N, C), checked against the rule, and their layout."""
    lay = coeff_layout(rule.nodes.shape[1], 2)
    e = np.asarray(e, dtype=float)
    if e.shape != (rule.n_nodes, lay.size):
        raise ValueError(f"error jets have shape {e.shape}, the rule's order-2 jets "
                         f"{(rule.n_nodes, lay.size)}")
    return e, lay


def sobolev_errors_upto(e, rule: QuadratureRule):
    """(L2, H1, H2) norms of an error given by its order-2 jets e (N, C) on
    the rule's nodes, such as ``v_jets - exact_jets``.  The order-k density
    is the squared Frobenius norm of the k-th derivative tensor."""
    e, lay = _error_jets(e, rule)
    sq = lay.multiplicity * e**2
    order_of_slot = np.array([len(mi) for mi in lay.multi_indices])
    out = []
    density = np.zeros(rule.n_nodes)
    for s in range(3):
        density = density + np.sum(sq[:, order_of_slot == s], axis=1)
        out.append(float(np.sqrt(integrate_values(rule, density))))
    return tuple(out)


def x_norm_error(e, rule: QuadratureRule) -> float:
    """Parabolic energy norm ||d_t e||_{L2(L2)} + ||e||_{L2(H2)} of an error
    given by its order-2 jets e (N, C) on the rule of a space-time box,
    (t, x...) nodes: the H2 part sums the slots that carry no time index."""
    if not isinstance(rule.domain, SpaceTimeBox):
        raise ValueError("x_norm_error needs a rule on a space-time box")
    e, lay = _error_jets(e, rule)
    spatial = np.array([0 not in mi for mi in lay.multi_indices])
    h2_sq = np.sum((lay.multiplicity * e**2)[:, spatial], axis=1)
    a = integrate_values(rule, e[:, lay.position((0,))] ** 2)
    b = integrate_values(rule, h2_sq)
    return float(np.sqrt(a) + np.sqrt(b))


def boundary_misfit(e, rule: QuadratureRule) -> float:
    """L2 norm of a boundary misfit given by its values e (N,) on a boundary
    rule, such as ``v.values(X) - g.values(X)``."""
    if rule.target != "boundary":
        raise ValueError("boundary_misfit needs a boundary rule")
    return float(np.sqrt(integrate_values(rule, np.asarray(e, dtype=float) ** 2)))
