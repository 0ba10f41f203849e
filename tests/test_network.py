"""Jet-propagating MLP: forward pass vs scalar jet composition, hand-written
backward pass vs finite differences, the flat parameter vector."""

import numpy as np
import pytest

from rescert import jets as J
from rescert.jets import coeff_layout, seed_point
from rescert.network import NetworkParams, _layer_slices, backward_jets, forward_jets


def scalar_reference(params, x, order):
    """The same network evaluated one node at a time with TaylorJet algebra."""
    a = seed_point(x, order)
    for li, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = []
        for r in range(W.shape[0]):
            acc = float(b[r]) + 0.0 * a[0]
            for c in range(W.shape[1]):
                acc = acc + float(W[r, c]) * a[c]
            z.append(acc)
        a = [J.tanh(v) for v in z] if li < len(params.weights) - 1 else z
    return a[0]


@pytest.mark.parametrize("dim,order", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_forward_matches_scalar_jets(dim, order):
    rng = np.random.default_rng(dim * 10 + order)
    params = NetworkParams.xavier((dim, 7, 5, 1), seed=dim + order)
    X = rng.uniform(-0.9, 0.9, size=(4, dim))
    scale = np.ones(dim)
    shift = np.zeros(dim)
    out = forward_jets(params, X, order, scale, shift)[0]
    lay = coeff_layout(dim, order)
    for k in range(X.shape[0]):
        ref = scalar_reference(params, X[k], order)
        for c, mi in enumerate(lay.multi_indices):
            assert out[k, c] == pytest.approx(ref.coeffs[lay.position(mi)], rel=1e-12,
                                              abs=1e-12)


def test_forward_respects_input_scaling():
    params = NetworkParams.xavier((2, 6, 1), seed=4)
    X = np.array([[2.5, -3.0]])
    scale = np.array([0.5, 2.0])
    shift = np.array([-0.25, 6.0])
    out = forward_jets(params, X, 2, scale, shift)[0]
    ref = scalar_reference(params, X[0] * scale + shift, 2)
    pos = coeff_layout(2, 2).position
    # chain rule through the affine map: d/dx_i picks up scale_i
    assert out[0, 0] == pytest.approx(ref.coeffs[pos(())], rel=1e-13)
    assert out[0, 1] == pytest.approx(ref.coeffs[pos((0,))] * 0.5, rel=1e-12)
    assert out[0, 2] == pytest.approx(ref.coeffs[pos((1,))] * 2.0, rel=1e-12)
    assert out[0, 3] == pytest.approx(ref.coeffs[pos((0, 0))] * 0.25, rel=1e-12)
    assert out[0, 5] == pytest.approx(ref.coeffs[pos((1, 1))] * 4.0, rel=1e-12)


@pytest.mark.parametrize("dim,order", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_backward_matches_finite_differences(dim, order):
    # scalar objective s(theta) = sum(out_bar * forward_jets(theta));
    # backward_jets must produce ds/dtheta
    rng = np.random.default_rng(100 + 10 * dim + order)
    params = NetworkParams.xavier((dim, 6, 4, 1), seed=9)
    X = rng.uniform(-0.8, 0.8, size=(5, dim))
    scale = np.array([1.3, 0.7, 1.1])[:dim]
    shift = np.array([0.1, -0.2, 0.3])[:dim]
    lay = coeff_layout(dim, order)
    out_bar = rng.standard_normal((5, lay.size))

    jets_out, cache = forward_jets(params, X, order, scale, shift)
    grad = backward_jets(params, cache, out_bar, order)
    theta = params.flatten()
    assert grad.shape == theta.shape

    def objective(flat):
        p = params.with_flat(flat)
        return float(np.sum(out_bar * forward_jets(p, X, order, scale, shift)[0]))

    # spot-check 15 random coordinates
    idx = rng.choice(theta.size, size=15, replace=False)
    for i in idx:
        h = 1e-6 * (1.0 + abs(theta[i]))
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        fd = (objective(tp) - objective(tm)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_xavier_is_seeded():
    a = NetworkParams.xavier((2, 16, 16, 1), seed=12)
    b = NetworkParams.xavier((2, 16, 16, 1), seed=12)
    c = NetworkParams.xavier((2, 16, 16, 1), seed=13)
    assert np.array_equal(a.flatten(), b.flatten())
    assert not np.array_equal(a.flatten(), c.flatten())
    assert a.n_params == 2 * 16 + 16 + 16 * 16 + 16 + 16 + 1


def test_flatten_roundtrip():
    params = NetworkParams.xavier((3, 5, 2, 1), seed=2)
    flat = params.flatten()
    again = params.with_flat(flat)
    for W, W2 in zip(params.weights, again.weights):
        assert np.array_equal(W, W2)
    for b, b2 in zip(params.biases, again.biases):
        assert np.array_equal(b, b2)
    with pytest.raises(ValueError):
        params.with_flat(flat[:-1])


def test_with_flat_copies_once_into_read_only_storage():
    params = NetworkParams.xavier((3, 5, 2, 1), seed=2)
    vec = params.flatten()
    again = params.with_flat(vec)
    vec[:] = 7.0  # the caller's vector is not the params' storage
    assert np.array_equal(again.flat, params.flat)
    with pytest.raises(ValueError):
        again.flat[0] = 1.0
    with pytest.raises(ValueError):
        again.weights[0][0, 0] = 1.0


def test_weights_and_biases_are_views_of_flat():
    params = NetworkParams.xavier((3, 5, 2, 1), seed=2)
    for (w, b), W, bias in zip(_layer_slices(params.widths), params.weights, params.biases):
        assert np.shares_memory(W, params.flat) and np.shares_memory(bias, params.flat)
        assert np.array_equal(W.ravel(), params.flat[w])
        assert np.array_equal(bias, params.flat[b])
    assert [W.shape for W in params.weights] == [(5, 3), (2, 5), (1, 2)]


def test_xavier_draws_each_layer_in_order():
    # the per-layer draws of the former list-of-arrays storage, concatenated
    widths = (2, 16, 16, 1)
    rng = np.random.default_rng(7)
    chunks = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks += [rng.uniform(-bound, bound, size=(fan_out, fan_in)).ravel(),
                   np.zeros(fan_out)]
    assert np.array_equal(NetworkParams.xavier(widths, seed=7).flatten(),
                          np.concatenate(chunks))
