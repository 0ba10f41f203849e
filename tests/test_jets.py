"""Jet arithmetic against symbolic differentiation and hand-checked values."""

import math

import numpy as np
import pytest
import sympy as sp

from rescert.jets import (TaylorJet, coeff_layout, exp, grad_laplacian,
                          laplacian, power, product_terms,
                          seed_point, seed_variable, sin, cos, tanh)


def sympy_jet(expr, syms, point, order):
    """Packed coefficient vector of expr at point, via sympy — the oracle."""
    lay = coeff_layout(len(syms), order)
    subs = dict(zip(syms, point))
    out = np.zeros(lay.size)
    for c, mi in enumerate(lay.multi_indices):
        d = expr
        for i in mi:
            d = sp.diff(d, syms[i])
        out[c] = float(d.subs(subs))
    return out


def test_seed_variable_examples():
    j = seed_variable(0, 3.0, 2, 2)
    assert j.value == 3.0
    assert np.array_equal(j.grad, [1.0, 0.0])
    assert np.all(j.hess == 0.0)

    j = seed_variable(1, -1.5, 3, 2)
    assert j.value == -1.5
    assert np.array_equal(j.grad, [0.0, 1.0])
    assert np.all(j.hess == 0.0) and np.all(j.third == 0.0)

    j = seed_variable(2, 0.0, 1, 3)
    assert j.value == 0.0
    assert np.array_equal(j.grad, [0.0, 0.0, 1.0])


def test_product_rule_examples():
    x = seed_variable(0, 3.0, 2, 1)
    sq = x * x
    assert sq.value == 9.0 and sq.grad[0] == 6.0 and sq.hess[0, 0] == 2.0

    x, y = seed_point([1.0, 2.0], 2)
    xy = x * y
    assert xy.value == 2.0
    assert np.array_equal(xy.grad, [2.0, 1.0])
    assert xy.hess[0, 1] == 1.0 and xy.hess[0, 0] == 0.0 and xy.hess[1, 1] == 0.0

    x, y = seed_point([1.0, 1.0], 3)
    j = (x * x) * y
    assert j.d(0, 0, 1) == pytest.approx(2.0)


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
    x = seed_variable(0, 0.0, 2, 1)
    t = tanh(x)
    assert t.value == 0.0 and t.grad[0] == 1.0 and t.hess[0, 0] == 0.0

    s = sin(seed_variable(0, 0.0, 3, 1))
    assert s.value == 0.0 and s.grad[0] == 1.0
    assert s.hess[0, 0] == 0.0 and s.third[0, 0, 0] == pytest.approx(-1.0)

    # exp of the jet with value 0, gradient 2 (i.e. e^{2x} at x=0)
    two_x = 2.0 * seed_variable(0, 0.0, 2, 1)
    e = exp(two_x)
    assert e.value == 1.0 and e.grad[0] == 2.0 and e.hess[0, 0] == pytest.approx(4.0)


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
    # slot-major batches (C, N): the same arithmetic, point by point
    rng = np.random.default_rng(23)
    X = rng.uniform(-1.0, 1.0, size=(5, 3))
    for order in (0, 1, 2, 3):
        x, y, z = seed_point(X, order)
        batch = (2.0 - x * y) * (z - 0.5) + 3.0 * (x * x)
        assert batch.coeffs.shape == (coeff_layout(3, order).size, 5)
        for n in range(5):
            a, b, c = seed_point(X[n], order)
            single = (2.0 - a * b) * (c - 0.5) + 3.0 * (a * a)
            assert np.array_equal(batch.coeffs[:, n], single.coeffs)


def test_power_jets():
    rng = np.random.default_rng(11)
    x = sp.symbols("x0")
    for p in (2, 3, -1, 0.5):
        base = 1.5 + 0.3 * rng.uniform()
        j = power(seed_variable(0, base, 3, 1) + 0.0, p)
        want = sympy_jet(x ** sp.Float(p) if p != int(p) else x ** int(p),
                         (x,), [base], 3)
        assert np.allclose(j.coeffs, want, rtol=1e-10)

    # fractional powers of negative bases have no real jet
    with pytest.raises(ValueError):
        power(seed_variable(0, -2.0, 2, 1), 0.5)
    # integer powers of negative bases are fine
    j = power(seed_variable(0, -2.0, 2, 1), 3)
    assert j.value == -8.0 and j.grad[0] == 12.0


def test_laplacian_examples():
    x, y = seed_point([0.7, -0.3], 2)
    assert laplacian(x * x + y * y) == pytest.approx(4.0)

    x, y = seed_point([0.5, 0.5], 2)
    j = sin(math.pi * x) * sin(math.pi * y)
    assert laplacian(j) == pytest.approx(-2.0 * math.pi**2, rel=1e-12)

    x = seed_variable(0, 1.0, 3, 1)
    gl = grad_laplacian(x * x * x)
    assert np.allclose(gl, [6.0])


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


def test_jet_validation_and_immutability():
    j = seed_variable(0, 1.0, 2, 2)
    with pytest.raises(AttributeError):
        j.dim = 3
    with pytest.raises(ValueError):
        TaylorJet(4, 2, np.zeros(10))
    with pytest.raises(ValueError):
        TaylorJet(2, 2, np.zeros(5))  # wrong packed size
    with pytest.raises(ValueError):
        seed_variable(0, 1.0, 2, 2) * seed_variable(0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        j.d(0, 1, 1)  # order-3 request from an order-2 jet
    with pytest.raises(ValueError):
        laplacian(seed_variable(0, 1.0, 1, 1))
    with pytest.raises(ValueError):
        grad_laplacian(seed_variable(0, 1.0, 2, 1))


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
