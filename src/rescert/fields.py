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


def harmonic_mode(n: int) -> AnalyticField:
    """Re((x + iy)^n) = r^n cos(n theta): the harmonic family on the unit disk,
    as the real part of n - 1 complex multiplications by x + iy."""
    if n < 1:
        raise ValueError("mode number must be a positive integer")

    def expr(s):
        x, y = s
        re, im = x, y
        for _ in range(int(n) - 1):
            re, im = re * x - im * y, re * y + im * x
        return re

    return AnalyticField(expr, 2)
