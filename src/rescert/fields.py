"""Closed-form scalar fields with exact derivatives.

``AnalyticField`` wraps a sympy expression and evaluates packed jets of any
order up to 3 through symbolically differentiated, vectorised callables.
These fields describe boundary data, lifts, right-hand sides and manufactured
solutions; the network itself never goes through sympy.

Fields evaluate batches only, ``values(X)`` (N,) and ``jets(X, order)``
(N, C) at points X (N, d); a single point is a batch of one.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .jets import coeff_layout

_SPATIAL = (sp.Symbol("x"), sp.Symbol("y"), sp.Symbol("z"))
_TIME = sp.Symbol("t")


def symbols_for(dim: int, spacetime: bool = False):
    """Coordinate symbols: (x[, y[, z]]) or (t, x[, y]) for space-time fields."""
    if spacetime:
        return (_TIME,) + _SPATIAL[: dim - 1]
    return _SPATIAL[:dim]


class AnalyticField:
    """Scalar field given in closed form; derivatives come from sympy."""

    def __init__(self, expr, syms):
        self.syms = tuple(syms)
        self.dim = len(self.syms)
        self.expr = sp.sympify(expr)
        extra = self.expr.free_symbols - set(self.syms)
        if extra:
            raise ValueError(f"expression uses unknown symbols {sorted(map(str, extra))}")
        self._funcs: dict[tuple[int, ...], object] = {}

    @classmethod
    def from_string(cls, text: str, dim: int, spacetime: bool = False) -> "AnalyticField":
        syms = symbols_for(dim, spacetime)
        names = {str(s): s for s in syms}
        # friendly aliases for coordinate names in config files
        alias = {"x1": "x", "x2": "y", "x3": "z"}
        local = dict(names)
        for a, target in alias.items():
            if target in names:
                local[a] = names[target]
        expr = sp.sympify(text, locals=local)
        return cls(expr, syms)

    def partial(self, i: int) -> "AnalyticField":
        return AnalyticField(sp.diff(self.expr, self.syms[i]), self.syms)

    def _func(self, idx: tuple[int, ...]):
        f = self._funcs.get(idx)
        if f is None:
            e = self.expr
            for i in idx:
                e = sp.diff(e, self.syms[i])
            f = sp.lambdify(self.syms, e, modules="numpy")
            self._funcs[idx] = f
        return f

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        cols = [X[:, k] for k in range(self.dim)]
        out = self._func(())(*cols)
        return np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],)).copy()

    def jets(self, X, order: int) -> np.ndarray:
        """Packed derivative jets at a batch of points, shape (N, C)."""
        X = np.asarray(X, dtype=float)
        lay = coeff_layout(self.dim, order)
        cols = [X[:, k] for k in range(self.dim)]
        out = np.empty((X.shape[0], lay.size))
        for c, mi in enumerate(lay.multi_indices):
            vals = self._func(mi)(*cols)
            out[:, c] = np.broadcast_to(np.asarray(vals, dtype=float), (X.shape[0],))
        return out

    def __repr__(self):
        return f"AnalyticField({self.expr}, syms={tuple(map(str, self.syms))})"


class TimeExtendedField:
    """Spatial field reinterpreted on (t, x...) nodes; time derivatives are zero."""

    def __init__(self, spatial: AnalyticField):
        self.spatial = spatial
        self.dim = spatial.dim + 1

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.spatial.values(X[:, 1:])

    def jets(self, X, order: int) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        lay = coeff_layout(self.dim, order)
        sub = self.spatial.jets(X[:, 1:], order)
        sub_lay = coeff_layout(self.spatial.dim, order)
        out = np.zeros((X.shape[0], lay.size))
        for c, mi in enumerate(sub_lay.multi_indices):
            shifted = tuple(i + 1 for i in mi)
            out[:, lay.position(shifted)] = sub[:, c]
        return out


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


class MatrixField:
    """Symmetric matrix of analytic fields (diffusion coefficients)."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.dim = len(self.entries)
        for row in self.entries:
            if len(row) != self.dim:
                raise ValueError("matrix field must be square")
        for i in range(self.dim):
            for j in range(i):
                if sp.simplify(self.entries[i][j].expr - self.entries[j][i].expr) != 0:
                    raise ValueError("matrix field must be symmetric")

    @classmethod
    def isotropic(cls, scalar: AnalyticField) -> "MatrixField":
        zero = AnalyticField(0, scalar.syms)
        d = scalar.dim
        return cls([[scalar if i == j else zero for j in range(d)] for i in range(d)])

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                out[:, i, j] = self.entries[i][j].values(X)
        return out

    def divergence(self) -> list[AnalyticField]:
        """Row divergence (div A)_j = sum_i d_i A_ij, in closed form."""
        syms = self.entries[0][0].syms
        out = []
        for j in range(self.dim):
            e = sum(sp.diff(self.entries[i][j].expr, syms[i]) for i in range(self.dim))
            out.append(AnalyticField(e, syms))
        return out
