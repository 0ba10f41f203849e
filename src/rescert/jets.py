"""Truncated Taylor-jet arithmetic in one to three variables, orders 0 to 3.

A jet carries the raw derivatives of a scalar field: value, gradient,
Hessian and, at order 3, third derivatives.  Coefficients live in a packed
axis with one slot per sorted multi-index (see ``coeff_layout``), so
symmetric entries share storage by construction.

Jets are slot-major: ``coeffs`` has shape (C, ...), slot c first, so a jet at
one point holds C numbers and a batch of jets at N points holds (C, N), each
slot one contiguous block.  Sums, products (Leibniz rule) and the elementary
functions act slot by slot and therefore run on single points and batches
alike.  ``seed_point`` is the one way to seed coordinates.
``_faa_di_bruno`` composes a jet with a univariate function given its
derivatives; the elementary functions here and the network's tanh layers
both use it, with one tanh derivative table.

The layout is the one place that knows how a derivative quantity is read
off packed jets: one derivative is ``coeffs[layout.position(idx)]`` at
every point, ``CoeffLayout.multiplicity`` weights squared Frobenius norms
and contractions with symmetric tensors, and ``laplacian_row`` and
``grad_laplacian_rows`` are the linear functionals behind every residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

_DIMS = (1, 2, 3)
_ORDERS = (0, 1, 2, 3)


@dataclass(frozen=True)
class CoeffLayout:
    """Packed coefficient order: (), (i,), (i,j) with i<=j, (i,j,k) with i<=j<=k."""

    dim: int
    order: int
    multi_indices: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.multi_indices)

    @property
    def hess_offset(self) -> int:
        return 1 + self.dim

    @property
    def third_offset(self) -> int:
        return 1 + self.dim + self.dim * (self.dim + 1) // 2

    def position(self, idx: tuple[int, ...]) -> int:
        """Packed slot of the derivative named by a multi-index (any index order)."""
        return self._slots[tuple(sorted(idx))]

    @cached_property
    def _slots(self) -> dict:
        return {mi: c for c, mi in enumerate(self.multi_indices)}

    def pairs(self):
        return self.multi_indices[self.hess_offset:self.third_offset]

    def triples(self):
        return self.multi_indices[self.third_offset:]

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Number of orderings of each slot's multi-index (read-only), so an
        order-k squared Frobenius norm is sum(multiplicity * c**2) over the
        order-k slots and A : D2 v is sum(multiplicity * A_ij * v_ij)."""
        m = np.array([len(set(permutations(mi))) for mi in self.multi_indices],
                     dtype=float)
        m.setflags(write=False)
        return m

    def laplacian_row(self, coords=None) -> np.ndarray:
        """Row (C,) whose dot product with a jet is its Laplacian over
        ``coords`` (default: every coordinate)."""
        if self.order < 2:
            raise ValueError("the Laplacian needs a jet of order >= 2")
        row = np.zeros(self.size)
        coords = range(self.dim) if coords is None else coords
        for i in coords:
            row[self.position((i, i))] = 1.0
        return row

    def grad_laplacian_rows(self) -> np.ndarray:
        """Rows (d, C): row k contracted with a jet is d/dx_k of its Laplacian."""
        if self.order < 3:
            raise ValueError("the gradient of the Laplacian needs a jet of order 3")
        rows = np.zeros((self.dim, self.size))
        for k in range(self.dim):
            for i in range(self.dim):
                rows[k, self.position((k, i, i))] = 1.0
        return rows


@lru_cache(maxsize=None)
def coeff_layout(dim: int, order: int) -> CoeffLayout:
    if dim not in _DIMS:
        raise ValueError(f"jet dimension must be 1, 2 or 3, got {dim}")
    if order not in _ORDERS:
        raise ValueError(f"jet order must be 0, 1, 2 or 3, got {order}")
    mi: list[tuple[int, ...]] = [()]
    if order >= 1:
        mi += [(i,) for i in range(dim)]
    if order >= 2:
        mi += [(i, j) for i in range(dim) for j in range(i, dim)]
    if order >= 3:
        mi += [
            (i, j, k)
            for i in range(dim)
            for j in range(i, dim)
            for k in range(j, dim)
        ]
    return CoeffLayout(dim, order, tuple(mi))


@lru_cache(maxsize=None)
def product_terms(dim: int, order: int):
    """Leibniz-rule contractions on packed jets.

    Returns tuples (out, a, b, count) meaning: the packed coefficient ``out``
    of a product receives ``count * A[a] * B[b]``.  Counts are the multinomial
    multiplicities obtained by distributing the derivative operators of the
    output multi-index over the two factors.
    """
    lay = coeff_layout(dim, order)
    pos = lay.position
    counts: dict[tuple[int, int, int], int] = {}
    for out_c, mi in enumerate(lay.multi_indices):
        k = len(mi)
        for mask in range(1 << k):
            a_idx = tuple(sorted(mi[p] for p in range(k) if mask >> p & 1))
            b_idx = tuple(sorted(mi[p] for p in range(k) if not mask >> p & 1))
            key = (out_c, pos(a_idx), pos(b_idx))
            counts[key] = counts.get(key, 0) + 1
    return tuple((o, a, b, c) for (o, a, b), c in sorted(counts.items()))


class TaylorJet:
    """Derivatives of a scalar field, truncated at ``order``, at one point or
    at a batch of points.

    ``coeffs`` has shape (C, ...): the packed slots of ``coeff_layout(dim,
    order)`` first, then any batch axes.  Arithmetic and the elementary
    functions work on both.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        expected = coeff_layout(dim, order).size
        if coeffs.shape[:1] != (expected,):
            raise ValueError(
                f"need {expected} packed coefficients for dim={dim} order={order}, "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorJet is immutable")

    def __repr__(self):
        return f"TaylorJet(dim={self.dim}, order={self.order}, coeffs={self.coeffs!r})"

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "TaylorJet"):
        if self.dim != other.dim or self.order != other.order:
            raise ValueError(
                f"jet mismatch: dim/order ({self.dim},{self.order}) vs "
                f"({other.dim},{other.order})"
            )

    def __add__(self, other):
        if isinstance(other, TaylorJet):
            self._check_compat(other)
            return TaylorJet(self.dim, self.order, self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] += other
            return TaylorJet(self.dim, self.order, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TaylorJet(self.dim, self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, TaylorJet):
            self._check_compat(other)
            return TaylorJet(self.dim, self.order, self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, TaylorJet):
            self._check_compat(other)
            out = np.zeros_like(self.coeffs)
            for o, a, b, count in product_terms(self.dim, self.order):
                out[o] += count * self.coeffs[a] * other.coeffs[b]
            return TaylorJet(self.dim, self.order, out)
        if isinstance(other, (int, float)):
            return TaylorJet(self.dim, self.order, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__


# -- seeds -----------------------------------------------------------------


def seed_point(x, order: int) -> list[TaylorJet]:
    """Coordinate jets for every component of a point x (d,), or of every
    point of a batch x (N, d): jet i is the coordinate function x_i, taking
    the value x[..., i]."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    seeds = []
    for i in range(dim):
        c = np.zeros((coeff_layout(dim, order).size,) + x.shape[:-1])
        c[0] = x[..., i]
        if order >= 1:
            c[1 + i] = 1.0
        seeds.append(TaylorJet(dim, order, c))
    return seeds


# -- elementary functions (Faa di Bruno with univariate derivative tables) --


def _tanh_table(x):
    """tanh and its first three derivatives at x (a number or an array)."""
    t = np.tanh(x)
    s = 1.0 - t * t
    return (t, s, -2.0 * t * s, s * (6.0 * t * t - 2.0))


def _sin_table(x):
    s, c = np.sin(x), np.cos(x)
    return (s, c, -s, -c)


def _cos_table(x):
    s, c = np.sin(x), np.cos(x)
    return (c, -s, -c, s)


def _exp_table(x):
    e = np.exp(x)
    return (e, e, e, e)


def _faa_di_bruno(Z, derivs, lay):
    """Slot-major jets of f(z) from the jets Z (C, ...) of z (Faa di Bruno up
    to ``lay.order``); derivs = (f0, f1, f2, f3) are f and its first three
    derivatives at the value slot Z[0]."""
    f0, f1, f2, f3 = derivs
    Y = np.empty_like(Z)
    Y[0] = f0
    d = lay.dim
    if lay.order >= 1:
        np.multiply(f1, Z[1:1 + d], out=Y[1:1 + d])
    if lay.order >= 2:
        for c, (i, j) in enumerate(lay.pairs(), start=lay.hess_offset):
            Y[c] = f1 * Z[c] + f2 * Z[1 + i] * Z[1 + j]
    if lay.order >= 3:
        pos = lay.position
        for c, (i, j, k) in enumerate(lay.triples(), start=lay.third_offset):
            gi, gj, gk = Z[1 + i], Z[1 + j], Z[1 + k]
            Y[c] = (
                f1 * Z[c]
                + f2 * (gi * Z[pos((j, k))] + gj * Z[pos((i, k))] + gk * Z[pos((i, j))])
                + f3 * gi * gj * gk
            )
    return Y


def _compose(a: TaylorJet, table) -> TaylorJet:
    """Jet of f(a) from the derivative table of f at a's value slot."""
    lay = coeff_layout(a.dim, a.order)
    return TaylorJet(a.dim, a.order, _faa_di_bruno(a.coeffs, table(a.coeffs[0]), lay))


def tanh(a: TaylorJet) -> TaylorJet:
    return _compose(a, _tanh_table)


def sin(a: TaylorJet) -> TaylorJet:
    return _compose(a, _sin_table)


def cos(a: TaylorJet) -> TaylorJet:
    return _compose(a, _cos_table)


def exp(a: TaylorJet) -> TaylorJet:
    return _compose(a, _exp_table)
