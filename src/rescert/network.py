"""Fully connected tanh network evaluated in jet space.

One batched forward pass propagates packed derivative jets (order 0 to 3)
through every layer, so the network value, gradient, Hessian and third
derivatives at all nodes come out together.  ``forward_jets`` is that one
pass: it returns the jets with the per-layer intermediates, and a caller
that needs only the jets takes the first.  The companion backward pass
reverse-accumulates a cotangent on the output jets into a gradient with
respect to every weight and bias; there is no general-purpose tape, just the
fixed layer -> jet-activation -> layer structure.

The flat parameter vector is the network's one storage.  ``_layer_slices``
is the one statement of its layout: layer-major, each layer contributing its
weight matrix in row-major order followed by its bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import _faa_di_bruno, _tanh_table, coeff_layout


def _layer_slices(widths) -> list[tuple[slice, slice]]:
    """(weights, bias) slices of each layer in the flat parameter vector."""
    slices, k = [], 0
    for i, o in zip(widths[:-1], widths[1:]):
        slices.append((slice(k, k + o * i), slice(k + o * i, k + o * i + o)))
        k += o * i + o
    return slices


@dataclass
class NetworkParams:
    """Weights/biases of a tanh multilayer perceptron, stored as one private
    read-only flat vector; ``weights`` and ``biases`` are views into it."""

    widths: tuple[int, ...]  # (input_dim, hidden..., 1)
    flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("network needs at least an input and an output layer")
        slices = _layer_slices(self.widths)
        flat = np.array(self.flat, dtype=float)  # the one copy
        n = slices[-1][1].stop
        if flat.shape != (n,):
            raise ValueError(f"expected {n} parameters, got shape {flat.shape}")
        flat.setflags(write=False)
        self.flat = flat
        self.weights = [flat[w].reshape(o, i) for (w, _), i, o
                        in zip(slices, self.widths[:-1], self.widths[1:])]
        self.biases = [flat[b] for _, b in slices]

    @property
    def n_params(self) -> int:
        return self.flat.size

    @classmethod
    def xavier(cls, widths, seed: int = 0) -> "NetworkParams":
        """Xavier-uniform weights from a fixed seed, layer by layer; zero biases."""
        widths = tuple(int(w) for w in widths)
        rng = np.random.default_rng(seed)
        slices = _layer_slices(widths)
        flat = np.zeros(slices[-1][1].stop)
        for (w, _), fan_in, fan_out in zip(slices, widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            flat[w] = rng.uniform(-bound, bound, size=fan_out * fan_in)
        return cls(widths, flat)

    def flatten(self) -> np.ndarray:
        """A writable copy of the parameter vector."""
        return self.flat.copy()

    def with_flat(self, vec) -> "NetworkParams":
        """The same network at parameters vec, which it copies once."""
        return NetworkParams(self.widths, vec)


# -- jet-space forward / backward ---------------------------------------------
#
# Internally a jet batch is slot-major, an array (C, N, width), the layout of
# ``jets.TaylorJet`` batches: slot c of the packed coefficient layout is one
# contiguous (N, width) block, so each per-slot activation update runs on
# contiguous memory and a linear layer is still a single (C*N, width) matmul.
# Only forward_jets' (N, C) return value and backward_jets' (N, C) cotangent
# are node-major.


def input_jets(X, order: int, scale, shift) -> np.ndarray:
    """Slot-major jets (C, N, d) of the affine input map z_i = scale_i * x_i + shift_i."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    lay = coeff_layout(d, order)
    A = np.zeros((lay.size, n, d))
    A[0] = X * scale + shift
    if order >= 1:
        for i in range(d):
            A[1 + i, :, i] = scale[i]
    return A


def _tanh_jet_backward(Z, derivs, Ybar, lay, order):
    """Cotangent on Z from the cotangent Ybar on the jets of tanh(Z)."""
    t, f1, f2, f3 = derivs
    Zbar = np.empty_like(Z)  # every slot is assigned before it is accumulated into
    z0bar = Ybar[0] * f1
    d = lay.dim
    if order >= 1:
        gb = Ybar[1:1 + d]
        np.multiply(f1, gb, out=Zbar[1:1 + d])
        z0bar += f2 * np.sum(gb * Z[1:1 + d], axis=0)
    if order >= 2:
        for c, (i, j) in enumerate(lay.pairs(), start=lay.hess_offset):
            yb = Ybar[c]
            gi, gj = Z[1 + i], Z[1 + j]
            np.multiply(f1, yb, out=Zbar[c])
            f2yb = f2 * yb
            Zbar[1 + i] += f2yb * gj
            Zbar[1 + j] += f2yb * gi
            z0bar += f2yb * Z[c] + f3 * yb * gi * gj
    if order >= 3:
        f4 = f1 * (16.0 * t - 24.0 * t * t * t)
        pos = lay.position
        for c, (i, j, k) in enumerate(lay.triples(), start=lay.third_offset):
            yb = Ybar[c]
            gi, gj, gk = Z[1 + i], Z[1 + j], Z[1 + k]
            np.multiply(f1, yb, out=Zbar[c])
            f2yb = f2 * yb
            hsum = np.zeros_like(yb)
            for p, (r1, r2) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                hc = pos((r1, r2))
                Zbar[1 + p] += f2yb * Z[hc]
                Zbar[hc] += f2yb * Z[1 + p]
                hsum += Z[1 + p] * Z[hc]
            f3yb = f3 * yb
            Zbar[1 + i] += f3yb * gj * gk
            Zbar[1 + j] += f3yb * gi * gk
            Zbar[1 + k] += f3yb * gi * gj
            z0bar += f2yb * Z[c] + f3yb * hsum + f4 * yb * gi * gj * gk
    Zbar[0] = z0bar
    return Zbar


def _linear(A, W, b=None):
    c, n, i = A.shape
    Z = (A.reshape(c * n, i) @ W.T).reshape(c, n, W.shape[0])
    if b is not None:
        Z[0] += b
    return Z


def forward_jets(params: NetworkParams, X, order: int, scale, shift):
    """Packed output jets (N, C) of the scalar network at every node, and the
    per-layer intermediates ``backward_jets`` consumes: each layer's input
    jets and, for tanh layers, the pre-activation jets and tanh's first
    three derivatives at their values.

    The layers run on slot-major (C, N, width) jets; see ``input_jets``.
    """
    d = params.widths[0]
    X = np.asarray(X, dtype=float)
    if X.shape[1] != d:
        raise ValueError(f"network expects {d}-dimensional inputs, got {X.shape[1]}")
    lay = coeff_layout(d, order)
    A = input_jets(X, order, scale, shift)
    cache = []
    last = len(params.weights) - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        Z = _linear(A, W, b)
        if l == last:
            cache.append((A, None, None))
            A = Z
        else:
            derivs = _tanh_table(Z[0])
            cache.append((A, Z, derivs))
            A = _faa_di_bruno(Z, derivs, lay)
    return np.ascontiguousarray(A[:, :, 0].T), cache


def backward_jets(params: NetworkParams, cache, out_bar, order: int) -> np.ndarray:
    """Flat parameter gradient from a cotangent on the output jets (N, C)."""
    lay = coeff_layout(params.widths[0], order)
    slices = _layer_slices(params.widths)
    grad = np.empty(params.n_params)
    Abar = np.ascontiguousarray(np.asarray(out_bar).T)[:, :, None]
    for l in range(len(slices) - 1, -1, -1):
        A_in, Z, derivs = cache[l]
        Zbar = Abar if Z is None else _tanh_jet_backward(Z, derivs, Abar, lay, order)
        c, n, o = Zbar.shape
        i = A_in.shape[2]
        rows = Zbar.reshape(c * n, o)
        w, b = slices[l]
        grad[w] = (rows.T @ A_in.reshape(c * n, i)).ravel()
        grad[b] = Zbar[0].sum(axis=0)
        if l > 0:  # the input cotangent of layer 0 is never read
            Abar = (rows @ params.weights[l]).reshape(c, n, i)
    return grad
