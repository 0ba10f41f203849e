"""Jet arithmetic against symbolic differentiation and hand-checked values."""

import itertools
import math

import numpy as np
import pytest
import sympy as sp

from rescert.jets import (TaylorJet, coeff_layout, exp, product_terms,
                          seed_point, sin, cos, tanh)
from sympy_oracle import sympy_jet


def d(j, *idx):
    """One derivative of a jet at every point, read off its packed slot."""
    return j.coeffs[coeff_layout(j.dim, j.order).position(idx)]


def tensor(j, k):
    """Full symmetric order-k derivative tensor of a single-point jet, read
    entry by entry through ``d``."""
    entries = [d(j, *idx) for idx in itertools.product(range(j.dim), repeat=k)]
    return np.array(entries).reshape((j.dim,) * k)


def laplacian(j):
    return coeff_layout(j.dim, j.order).laplacian_row() @ j.coeffs


def test_seed_point_examples():
    j = seed_point([3.0, 0.0], 2)[0]
    assert d(j) == 3.0
    assert np.array_equal(tensor(j, 1), [1.0, 0.0])
    assert np.all(tensor(j, 2) == 0.0)

    j = seed_point([0.0, -1.5], 3)[1]
    assert d(j) == -1.5
    assert np.array_equal(tensor(j, 1), [0.0, 1.0])
    assert np.all(tensor(j, 2) == 0.0) and np.all(tensor(j, 3) == 0.0)

    j = seed_point([0.0, 0.0, 0.0], 1)[2]
    assert d(j) == 0.0
    assert np.array_equal(tensor(j, 1), [0.0, 0.0, 1.0])


def test_product_rule_examples():
    (x,) = seed_point([3.0], 2)
    sq = x * x
    assert d(sq) == 9.0 and d(sq, 0) == 6.0 and d(sq, 0, 0) == 2.0

    x, y = seed_point([1.0, 2.0], 2)
    xy = x * y
    assert d(xy) == 2.0
    assert np.array_equal(tensor(xy, 1), [2.0, 1.0])
    assert d(xy, 0, 1) == 1.0 and d(xy, 1, 0) == 1.0
    assert d(xy, 0, 0) == 0.0 and d(xy, 1, 1) == 0.0

    x, y = seed_point([1.0, 1.0], 3)
    j = (x * x) * y
    assert d(j, 0, 0, 1) == pytest.approx(2.0)


def test_random_products_match_sympy():
    rng = np.random.default_rng(42)
    xs = sp.symbols("x0 x1 x2")
    for dim in (1, 2, 3):
        for order in (1, 2, 3):
            syms = xs[:dim]
            # two random cubic polynomials
            for _ in range(3):
                c = rng.uniform(-1, 1, size=8)
                pa = c[0] + c[1] * syms[0] + c[2] * syms[0] ** 2 + c[3] * syms[-1] ** 3
                pb = c[4] + c[5] * syms[-1] + c[6] * syms[0] * syms[-1] + c[7] * syms[0] ** 2
                point = rng.uniform(-1, 1, size=dim)
                jets = seed_point(point, order)
                ja = (c[0] + c[1] * jets[0] + c[2] * jets[0] * jets[0]
                      + c[3] * jets[-1] * jets[-1] * jets[-1])
                jb = (c[4] + c[5] * jets[-1] + c[6] * jets[0] * jets[-1]
                      + c[7] * jets[0] * jets[0])
                got = (ja * jb).coeffs
                want = sympy_jet(pa * pb, syms, point, order)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_elementary_functions_fixed_points():
    (x,) = seed_point([0.0], 2)
    t = tanh(x)
    assert d(t) == 0.0 and d(t, 0) == 1.0 and d(t, 0, 0) == 0.0

    s = sin(seed_point([0.0], 3)[0])
    assert d(s) == 0.0 and d(s, 0) == 1.0
    assert d(s, 0, 0) == 0.0 and d(s, 0, 0, 0) == pytest.approx(-1.0)

    # exp of the jet with value 0, gradient 2 (i.e. e^{2x} at x=0)
    two_x = 2.0 * seed_point([0.0], 2)[0]
    e = exp(two_x)
    assert d(e) == 1.0 and d(e, 0) == 2.0 and d(e, 0, 0) == pytest.approx(4.0)


def _inner(v):
    """x0 x_last + x0/2 + x_k^2/4 over the middle coordinates, on jets or symbols."""
    out = v[0] * v[-1] + 0.5 * v[0]
    for k in range(1, len(v) - 1):
        out = out + 0.25 * (v[k] * v[k])
    return out


@pytest.mark.parametrize("fn,sfn", [(tanh, sp.tanh), (sin, sp.sin),
                                    (cos, sp.cos), (exp, sp.exp)])
def test_elementary_functions_match_sympy(fn, sfn):
    # the independent oracle of the Faa di Bruno kernel shared with the
    # network's tanh layers, on every input dimension the network takes
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        xs = sp.symbols("x0 x1 x2")[:dim]
        for _ in range(4):
            point = rng.uniform(-0.8, 0.8, size=dim)
            got = fn(_inner(seed_point(point, 3))).coeffs
            want = sympy_jet(sfn(_inner(xs)), xs, point, 3)
            assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_batched_jets_match_single_points():
    # slot-major batches (C, N): the same arithmetic, elementary functions
    # and derivative reads, point by point
    rng = np.random.default_rng(23)
    X = rng.uniform(-1.0, 1.0, size=(5, 3))
    for order in (0, 1, 2, 3):
        x, y, z = seed_point(X, order)
        batch = tanh((2.0 - x * y) * (z - 0.5) + 3.0 * (x * x))
        batch = batch * sin(x) + exp(y) * cos(z)
        assert batch.coeffs.shape == (coeff_layout(3, order).size, 5)
        mi = coeff_layout(3, order).multi_indices[-1]
        assert d(batch, *mi).shape == (5,)
        for n in range(5):
            a, b, c = seed_point(X[n], order)
            single = tanh((2.0 - a * b) * (c - 0.5) + 3.0 * (a * a))
            single = single * sin(a) + exp(b) * cos(c)
            assert np.array_equal(batch.coeffs[:, n], single.coeffs)
            assert d(batch, *mi)[n] == d(single, *mi)


def test_laplacian_examples():
    x, y = seed_point([0.7, -0.3], 2)
    assert laplacian(x * x + y * y) == pytest.approx(4.0)

    x, y = seed_point([0.5, 0.5], 2)
    j = sin(math.pi * x) * sin(math.pi * y)
    assert laplacian(j) == pytest.approx(-2.0 * math.pi**2, rel=1e-12)

    (x,) = seed_point([1.0], 3)
    gl = coeff_layout(1, 3).grad_laplacian_rows() @ (x * x * x).coeffs
    assert np.allclose(gl, [6.0])

    # Laplacian of x^2 y + y^3 z + x z^2 is 2y + 6yz + 2x, its gradient (2, 2 + 6z, 6y)
    x, y, z = seed_point([0.3, -0.7, 1.1], 3)
    j = (x * x) * y + (y * y * y) * z + x * (z * z)
    gl = coeff_layout(3, 3).grad_laplacian_rows() @ j.coeffs
    assert np.allclose(gl, [2.0, 2.0 + 6.0 * 1.1, 6.0 * -0.7], rtol=1e-13)


def test_harmonic_polynomials_have_zero_laplacian():
    # Cartesian forms of r^n cos(n theta) for n = 1..4
    rng = np.random.default_rng(3)
    for _ in range(5):
        px, py = rng.uniform(-1, 1, size=2)
        x, y = seed_point([px, py], 2)
        polys = [
            x,
            x * x - y * y,
            x * x * x - 3.0 * (x * (y * y)),
            (x * x) * (x * x) - 6.0 * ((x * x) * (y * y)) + (y * y) * (y * y),
        ]
        for h in polys:
            assert abs(laplacian(h)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multiplicity_counts_the_full_symmetric_tensor(dim):
    # every entry of the full order-k tensor lands on one packed slot; the
    # slot's multiplicity is how many entries land there, so squared
    # Frobenius norms and symmetric contractions read off the packed slots
    lay = coeff_layout(dim, 3)
    assert not lay.multiplicity.flags.writeable
    hits = np.zeros(lay.size)
    for k in range(4):
        for idx in itertools.product(range(dim), repeat=k):
            hits[lay.position(idx)] += 1
    assert np.array_equal(lay.multiplicity, hits)

    rng = np.random.default_rng(dim)
    x = seed_point(rng.uniform(-1, 1, size=dim), 3)
    j = sin(x[0] * x[-1]) + exp(0.5 * x[0]) * (x[-1] * x[-1])
    order = np.array([len(mi) for mi in lay.multi_indices])
    A = rng.standard_normal((dim, dim))
    A = A + A.T
    for k in range(4):
        frob = np.sum(tensor(j, k) ** 2)
        packed = np.sum((lay.multiplicity * j.coeffs**2)[order == k])
        assert packed == pytest.approx(frob, rel=1e-13)
    contraction = np.sum(A * tensor(j, 2))
    hess = order == 2
    i, m = np.array(lay.pairs()).T
    assert np.sum(lay.multiplicity[hess] * A[i, m] * j.coeffs[hess]) == \
        pytest.approx(contraction, rel=1e-12, abs=1e-12)


def test_laplacian_rows_read_the_trace():
    for dim in (1, 2, 3):
        x = seed_point(np.linspace(0.2, 0.6, dim), 3)
        j = tanh(x[0] * x[-1] + 0.3 * (x[0] * x[0]))
        lay = coeff_layout(dim, 3)
        assert laplacian(j) == pytest.approx(np.trace(tensor(j, 2)), rel=1e-14)
        assert np.allclose(lay.grad_laplacian_rows() @ j.coeffs,
                           np.einsum("kii->k", tensor(j, 3)), rtol=1e-14)
        if dim > 1:  # a subset of coordinates, as the heat residual uses
            spatial = lay.laplacian_row(range(1, dim)) @ j.coeffs
            assert spatial == pytest.approx(np.trace(tensor(j, 2)[1:, 1:]), rel=1e-14)


def test_jet_validation_and_immutability():
    j = seed_point([1.0, 0.0], 2)[0]
    with pytest.raises(AttributeError):
        j.dim = 3
    with pytest.raises(ValueError):
        TaylorJet(4, 2, np.zeros(10))
    with pytest.raises(ValueError):
        TaylorJet(2, 2, np.zeros(5))  # wrong packed size
    with pytest.raises(ValueError):
        seed_point([1.0, 0.0], 2)[0] * seed_point([1.0, 0.0], 3)[0]
    with pytest.raises(KeyError):
        d(j, 0, 1, 1)  # an order-2 layout has no order-3 slot
    with pytest.raises(ValueError):
        coeff_layout(1, 1).laplacian_row()
    with pytest.raises(ValueError):
        coeff_layout(1, 2).grad_laplacian_rows()


def test_truncation_never_reads_above_order():
    # order-2 product of order-2 jets agrees with the truncation of the
    # order-3 product on shared coefficients
    rng = np.random.default_rng(19)
    lay2 = coeff_layout(2, 2)
    a3 = rng.standard_normal(coeff_layout(2, 3).size)
    b3 = rng.standard_normal(coeff_layout(2, 3).size)
    j3 = TaylorJet(2, 3, a3) * TaylorJet(2, 3, b3)
    j2 = TaylorJet(2, 2, a3[:lay2.size]) * TaylorJet(2, 2, b3[:lay2.size])
    assert np.allclose(j3.coeffs[:lay2.size], j2.coeffs)


def test_product_terms_counts():
    # binomial bookkeeping: total Leibniz weight for an output index of
    # order k sums to 2^k across the splits
    for dim in (1, 2, 3):
        lay = coeff_layout(dim, 3)
        totals = {}
        for o, a, b, count in product_terms(dim, 3):
            totals[o] = totals.get(o, 0) + count
        for c, mi in enumerate(lay.multi_indices):
            assert totals[c] == 2 ** len(mi)
