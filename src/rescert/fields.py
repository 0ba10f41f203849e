"""Closed-form scalar fields with exact derivatives.

``AnalyticField`` is a jet expression: a function that maps the coordinate
seeds of ``rescert.jets`` (``seed_point(X, order)``) to a ``TaylorJet``, or
to a plain number for a constant field.  Its derivatives come from the same
jet algebra as the network's and the distance factors', so there is no
second derivative engine.  These fields describe boundary data, lifts,
right-hand sides, coefficients and manufactured solutions.

Fields evaluate batches only, ``values(X)`` (N,) and ``jets(X, order)``
(N, C) at points X (N, d); a single point is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .jets import TaylorJet, coeff_layout, seed_point


class AnalyticField:
    """Scalar field in closed form: ``expr`` maps the list of coordinate
    seeds (one jet per coordinate) to a jet or a number."""

    def __init__(self, expr, dim: int):
        self.expr = expr
        self.dim = dim

    def jets(self, X, order: int) -> np.ndarray:
        """Packed derivative jets at a batch of points, shape (N, C)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"need points of shape (N, {self.dim}), got {X.shape}")
        out = self.expr(seed_point(X, order))
        if isinstance(out, TaylorJet):
            return np.ascontiguousarray(out.coeffs.T)
        jets = np.zeros((X.shape[0], coeff_layout(self.dim, order).size))
        jets[:, 0] = out
        return jets

    def values(self, X) -> np.ndarray:
        return self.jets(X, 0)[:, 0]

    def time_extended(self) -> "AnalyticField":
        """The same field on (t, x...) nodes; its time derivatives are zero."""
        return AnalyticField(lambda s: self.expr(s[1:]), self.dim + 1)


class HarmonicMode:
    """Re((x + iy)^n) = r^n cos(n theta): the harmonic family on the unit disk.

    Derivatives follow from d/dx Re z^k = k Re z^(k-1) and
    d/dy Re z^k = -k Im z^(k-1), so all jets come from complex powers.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("mode number must be a positive integer")
        self.n = int(n)
        self.dim = 2

    def _zpow(self, X, k: int) -> np.ndarray:
        z = X[:, 0] + 1j * X[:, 1]
        return z ** k if k >= 0 else np.zeros(X.shape[0], dtype=complex)

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self._zpow(X, self.n).real

    def jets(self, X, order: int) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = self.n
        lay = coeff_layout(2, order)
        out = np.zeros((X.shape[0], lay.size))
        # falling factorial prefactor n (n-1) ... and Re/Im alternation per
        # y-derivative count: d^a_x d^b_y Re z^n = c * {Re, -Im, -Re, Im}[b mod 4] z^(n-a-b)
        for c, mi in enumerate(lay.multi_indices):
            k = len(mi)
            b = sum(1 for i in mi if i == 1)
            coef = 1.0
            for j in range(k):
                coef *= n - j
            if coef == 0.0:
                continue
            zp = self._zpow(X, n - k)
            part = (zp.real, -zp.imag, -zp.real, zp.imag)[b % 4]
            out[:, c] = coef * part
        return out
