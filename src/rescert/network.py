"""Fully connected tanh network evaluated in jet space.

One batched forward pass propagates packed derivative jets (order 0 to 3)
through every layer, so the network value, gradient, Hessian and third
derivatives at all nodes come out together.  The companion backward pass
reverse-accumulates a cotangent on the output jets into a gradient with
respect to every weight and bias; there is no general-purpose tape, just the
fixed layer -> jet-activation -> layer structure.

Parameter vector convention: layer-major, each layer contributing its weight
matrix in row-major order followed by its bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jets import _faa_di_bruno, _tanh_table, coeff_layout


@dataclass
class NetworkParams:
    """Weights/biases of a tanh multilayer perceptron."""

    widths: tuple[int, ...]  # (input_dim, hidden..., 1)
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("network needs at least an input and an output layer")
        if len(self.weights) != len(self.widths) - 1 or len(self.biases) != len(self.widths) - 1:
            raise ValueError("one weight matrix and bias vector per layer expected")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.widths[l + 1], self.widths[l])
            if w.shape != want:
                raise ValueError(f"layer {l} weight shape {w.shape}, expected {want}")
            if b.shape != (self.widths[l + 1],):
                raise ValueError(f"layer {l} bias shape {b.shape}, expected ({self.widths[l + 1]},)")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @classmethod
    def xavier(cls, widths, seed: int = 0) -> "NetworkParams":
        """Xavier-uniform initialisation from a fixed seed."""
        widths = tuple(int(w) for w in widths)
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(widths, weights, biases)

    def flatten(self) -> np.ndarray:
        chunks = []
        for w, b in zip(self.weights, self.biases):
            chunks.append(w.ravel(order="C"))
            chunks.append(b)
        return np.concatenate(chunks)

    def with_flat(self, vec) -> "NetworkParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {vec.shape}")
        weights, biases = [], []
        k = 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            weights.append(vec[k:k + o * i].reshape(o, i).copy())
            k += o * i
            biases.append(vec[k:k + o].copy())
            k += o
        return NetworkParams(self.widths, weights, biases)


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


def _tanh_jet_forward(Z, lay):
    """Jets of tanh(Z), plus (t, f1, f2, f3): tanh and its first three
    derivatives at Z[0], which the backward pass reuses."""
    derivs = _tanh_table(Z[0])
    return _faa_di_bruno(Z, derivs, lay), derivs


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


def forward_jets(params: NetworkParams, X, order: int, scale, shift, need_cache=False):
    """Packed output jets (N, C) of the scalar network at every node.

    The layers run on slot-major (C, N, width) jets; see ``input_jets``.
    With need_cache=True also returns the per-layer intermediates consumed by
    ``backward_jets``: each layer's input jets and, for tanh layers, the
    pre-activation jets and the activation derivatives.
    """
    d = params.widths[0]
    X = np.asarray(X, dtype=float)
    if X.shape[1] != d:
        raise ValueError(f"network expects {d}-dimensional inputs, got {X.shape[1]}")
    lay = coeff_layout(d, order)
    A = input_jets(X, order, scale, shift)
    cache = []
    last = params.n_layers - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        Z = _linear(A, W, b)
        if l == last:
            if need_cache:
                cache.append((A, None, None))
            A = Z
        else:
            Y, derivs = _tanh_jet_forward(Z, lay)
            if need_cache:
                cache.append((A, Z, derivs))
            A = Y
    out = np.ascontiguousarray(A[:, :, 0].T)
    return (out, cache) if need_cache else out


def backward_jets(params: NetworkParams, cache, out_bar, order: int) -> np.ndarray:
    """Flat parameter gradient from a cotangent on the output jets (N, C)."""
    lay = coeff_layout(params.widths[0], order)
    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    Abar = np.ascontiguousarray(np.asarray(out_bar).T)[:, :, None]
    for l in range(params.n_layers - 1, -1, -1):
        A_in, Z, derivs = cache[l]
        Zbar = Abar if Z is None else _tanh_jet_backward(Z, derivs, Abar, lay, order)
        c, n, o = Zbar.shape
        i = A_in.shape[2]
        flat = Zbar.reshape(c * n, o)
        grads_w[l] = flat.T @ A_in.reshape(c * n, i)
        grads_b[l] = Zbar[0].sum(axis=0)
        if l > 0:  # the input cotangent of layer 0 is never read
            Abar = (flat @ params.weights[l]).reshape(c, n, i)
    chunks = []
    for gw, gb in zip(grads_w, grads_b):
        chunks.append(gw.ravel(order="C"))
        chunks.append(gb)
    return np.concatenate(chunks)
