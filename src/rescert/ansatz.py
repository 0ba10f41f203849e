"""Hard-constrained ansatz fields.

exact_bc:      v = L * u_net + G, so v restricts to the Dirichlet data
               exactly: L vanishes where the data are prescribed and the
               problem's lift G extends them.
unconstrained: v = u_net; the data only enter through penalties.

On a space-time box (t, x...) the same rule makes the initial and lateral
values exact: L is ``t * L(x)`` and the lift G is u0 extended in time.

The map from network jets to ansatz jets is linear at every node (the
Leibniz rule applied to a fixed factor), which the loss assembly exploits.
exact_bc builds it the same way at every jet order, 0 (plain values)
included: the factor is the domain's batched distance factor and the offset
is the lift's jets (zero where the problem has no lift).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import geometry, network
from .jets import coeff_layout, product_terms
from .network import NetworkParams

if TYPE_CHECKING:
    from .problems import PdeProblem

MODES = ("exact_bc", "unconstrained")


def product_matrix_batch(factor_jets: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Matrices P with (factor * u) jets = P @ (u jets), one per node."""
    lay = coeff_layout(dim, order)
    n = factor_jets.shape[0]
    P = np.zeros((n, lay.size, lay.size))
    for out_c, a_c, b_c, count in product_terms(dim, order):
        P[:, out_c, b_c] += count * factor_jets[:, a_c]
    return P


def compose_jets(P, base, U) -> np.ndarray:
    """Ansatz jets P @ U + base from network jets U (N, C), for a
    composition (P, base) on the same nodes; P None is the identity."""
    if P is None:
        return U + base
    return np.einsum("ncd,nd->nc", P, U) + base


@dataclass(frozen=True)
class AnsatzSpec:
    """Network plus the composition that gives it its problem's data."""

    params: NetworkParams
    problem: PdeProblem
    mode: str = "exact_bc"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown ansatz mode {self.mode!r}")
        if self.params.widths[0] != self.problem.domain.dim:
            raise ValueError(f"network input width {self.params.widths[0]} does not "
                             f"match domain dimension {self.problem.domain.dim}")
        if self.params.widths[-1] != 1:
            raise ValueError("ansatz networks are scalar valued")

    # -- parameter plumbing --------------------------------------------------

    def with_params(self, flat) -> "AnsatzSpec":
        return replace(self, params=self.params.with_flat(flat))

    def input_scaling(self):
        """Affine map onto [-1, 1]^d from the domain bounding box."""
        lo, hi = self.problem.domain.bounding_box()
        scale = 2.0 / (hi - lo)
        shift = -(hi + lo) / (hi - lo)
        return scale, shift

    # -- composition data ------------------------------------------------------

    def composition(self, X, order: int):
        """Per-node linear map (P, base) with v_jets = P @ u_jets + base.

        P is None in unconstrained mode (identity).
        """
        X = np.asarray(X, dtype=float)
        domain, lift = self.problem.domain, self.problem.lift
        size = coeff_layout(domain.dim, order).size
        if self.mode == "unconstrained":
            return None, np.zeros((X.shape[0], size))
        L = geometry.distance_jets(domain, X, order)
        P = product_matrix_batch(L, domain.dim, order)
        if lift is None:
            return P, np.zeros((X.shape[0], size))
        return P, np.asarray(lift.jets(X, order), dtype=float)

    # -- evaluation --------------------------------------------------------------

    def jets(self, X, order: int) -> np.ndarray:
        """Packed jets of the ansatz field v at a batch of nodes."""
        X = np.asarray(X, dtype=float)
        scale, shift = self.input_scaling()
        U = network.forward_jets(self.params, X, order, scale, shift)[0]
        return compose_jets(*self.composition(X, order), U)

    def values(self, X) -> np.ndarray:
        """Plain values of v (order-0 pass)."""
        return self.jets(X, 0)[:, 0]

