"""Quadrature exactness and Sobolev-norm evaluation against closed forms."""

import math

import numpy as np
import pytest

from rescert.fields import AnalyticField, harmonic_mode
from rescert.geometry import Disk, Rectangle, SpaceTimeBox
from rescert.jets import cos, exp, sin
from rescert.problems import get_problem
from rescert.quadrature import (build_rule, boundary_misfit, h_half_surrogate,
                                integrate_values, kahan_sum, sobolev_errors_upto,
                                x_norm_error)

UNIT_SQUARE = Rectangle((0.0, 0.0), (1.0, 1.0))
UNIT_DISK = Disk((0.0, 0.0), 1.0)


def test_gauss_monomial_exactness():
    # degree 2n-1 in each direction integrated exactly on the unit square
    for n in (2, 5, 8):
        rule = build_rule(UNIT_SQUARE, "interior", n)
        x, y = rule.nodes.T
        for a in range(2 * n):
            for b in range(2 * n):
                want = 1.0 / ((a + 1) * (b + 1))
                got = integrate_values(rule, x**a * y**b)
                assert abs(got - want) < 1e-13 * want + 1e-15, (n, a, b)

    rule = build_rule(UNIT_SQUARE, "interior", 5)
    x, y = rule.nodes.T
    assert integrate_values(rule, x**9 * y**9) == pytest.approx(0.01, rel=1e-14)


def test_gauss_tables_are_shared_read_only_and_unchanged():
    # the reference tables are computed once per n; the rules built on them
    # hold the bits of a fresh leggauss evaluation
    from rescert.quadrature import _gauss, _gauss_unit

    assert _gauss_unit(7) is _gauss_unit(7)
    x, w = _gauss_unit(7)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(7)
    got_x, got_w = _gauss(-1.0, 3.0, 7)
    assert np.array_equal(got_x, -1.0 + 4.0 * (0.5 * (ref_x + 1.0)))
    assert np.array_equal(got_w, 4.0 * (0.5 * ref_w))


def test_tensor_rule_exactness():
    rule = build_rule(UNIT_SQUARE, "interior", 4)
    for kx in (0, 3, 7):
        for ky in (0, 2, 7):
            got = integrate_values(rule, rule.nodes[:, 0] ** kx * rule.nodes[:, 1] ** ky)
            want = 1.0 / ((kx + 1) * (ky + 1))
            assert got == pytest.approx(want, rel=1e-13)


def test_weights_sum_to_measure():
    # a boundary rule sums to the closed-form boundary measure: the unit
    # square's perimeter, the unit circle's length
    cases = [
        (UNIT_SQUARE, "interior", None), (UNIT_SQUARE, "boundary", 4.0),
        (UNIT_DISK, "interior", None), (UNIT_DISK, "boundary", 2.0 * math.pi),
        (SpaceTimeBox(0.2, UNIT_SQUARE), "interior", None),
    ]
    for domain, target, boundary_measure in cases:
        rule = build_rule(domain, target, 9)
        assert np.all(rule.weights > 0)
        total = kahan_sum(rule.weights)
        measure = domain.measure if boundary_measure is None else boundary_measure
        assert total == pytest.approx(measure, rel=1e-12)


def test_disk_integrals():
    rule = build_rule(UNIT_DISK, "interior", 8)
    assert integrate_values(rule, np.ones(rule.n_nodes)) == pytest.approx(math.pi, rel=1e-12)
    # r^2 cos^2(theta) = x^2
    got = integrate_values(rule, rule.nodes[:, 0] ** 2)
    assert got == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_circle_boundary_trig():
    rule = build_rule(UNIT_DISK, "boundary", 4)  # 16 angular nodes
    theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
    got = integrate_values(rule, np.cos(4.0 * theta) ** 2)
    assert got == pytest.approx(math.pi, rel=1e-12)


def test_square_integrand():
    rule = build_rule(UNIT_SQUARE, "interior", 24)
    f = np.sin(np.pi * rule.nodes[:, 0]) ** 2 * np.sin(np.pi * rule.nodes[:, 1]) ** 2
    assert integrate_values(rule, f) == pytest.approx(0.25, rel=1e-12)


def test_integrate_rejects_nonfinite():
    rule = build_rule(UNIT_SQUARE, "interior", 4)
    with pytest.raises(ValueError, match="node"):
        integrate_values(rule, np.full(rule.n_nodes, np.nan))


def test_kahan_sum_matches_fsum():
    rng = np.random.default_rng(33)
    vals = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, size=1000)
    assert kahan_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-14)
    assert isinstance(kahan_sum(vals), float)


def test_sobolev_error_closed_forms():
    sinsin = AnalyticField(lambda s: sin(math.pi * s[0]) * sin(math.pi * s[1]), 2)
    rule = build_rule(UNIT_SQUARE, "interior", 24)
    want = math.sqrt(0.25 + math.pi**2 / 2.0 + math.pi**4)
    got = sobolev_errors_upto(sinsin, None, rule, 2)[2]
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(10.1289, abs=5e-5)

    mode = harmonic_mode(4)
    drule = build_rule(UNIT_DISK, "interior", 10)
    want = math.sqrt(math.pi / 10.0 + 4.0 * math.pi)
    assert sobolev_errors_upto(mode, None, drule, 1)[1] == pytest.approx(want, rel=1e-10)

    # v = ref gives 0 in every norm
    assert sobolev_errors_upto(sinsin, sinsin, rule, 2) == (0.0, 0.0, 0.0)


def test_sobolev_monotone_in_s():
    f = AnalyticField(lambda s: exp(s[0]) * cos(s[1]) + s[0] * s[1], 2)
    g = AnalyticField(lambda s: s[0] * s[0] * s[0] - s[1], 2)
    rule = build_rule(UNIT_SQUARE, "interior", 12)
    h0, h1, h2 = sobolev_errors_upto(f, g, rule, s_max=2)
    assert h0 <= h1 <= h2
    with pytest.raises(ValueError, match="s_max"):
        sobolev_errors_upto(f, g, rule, 3)


def test_quadrature_convergence_beyond_24():
    f = AnalyticField(lambda s: exp(s[0]) * sin(3 * s[1]), 2)
    r24 = build_rule(UNIT_SQUARE, "interior", 24)
    r48 = build_rule(UNIT_SQUARE, "interior", 48)
    a = sobolev_errors_upto(f, None, r24, 2)[2]
    b = sobolev_errors_upto(f, None, r48, 2)[2]
    assert abs(a - b) / b < 1e-8


def test_h_half_surrogate_wedged():
    f = AnalyticField(lambda s: s[0] * s[0] * s[1] + cos(s[0]), 2)
    rule = build_rule(UNIT_SQUARE, "interior", 16)
    h0, h1 = sobolev_errors_upto(f, None, rule, s_max=1)
    s = h_half_surrogate(f, None, rule)
    assert h0 <= s <= h1
    assert s == pytest.approx(math.sqrt(h0 * h1), rel=1e-13)

    mode = harmonic_mode(16)
    drule = build_rule(UNIT_DISK, "interior", 18)
    l2sq = math.pi / 34.0
    want = (l2sq) ** 0.25 * (l2sq + 16.0 * math.pi) ** 0.25
    assert h_half_surrogate(mode, None, drule) == pytest.approx(want, rel=1e-9)


def test_x_norm_zero_for_exact_heat_solution():
    u = AnalyticField(lambda s: exp(-2 * math.pi**2 * s[0]) * sin(math.pi * s[1])
                      * sin(math.pi * s[2]), 3)
    rule = build_rule(SpaceTimeBox(0.2, UNIT_SQUARE), "interior", 8)
    assert x_norm_error(u, u, rule) == 0.0
    # against zero reference it is a positive number
    assert x_norm_error(u, None, rule) > 1.0
    # a spatial rule has no time axis to split off
    sinsin = AnalyticField(lambda s: sin(math.pi * s[0]) * sin(math.pi * s[1]), 2)
    with pytest.raises(ValueError, match="space-time"):
        x_norm_error(sinsin, None, build_rule(UNIT_SQUARE, "interior", 4))


def test_x_norm_closed_form_on_heat_solution():
    # u* = exp(-2 pi^2 t) sin(pi x) sin(pi y) on (0, T) x unit square:
    # ||d_t u||^2 = pi^4 k and ||u||^2_{L2(H2)} = (1/4 + pi^2/2 + pi^4) k
    # with k = int_0^T exp(-4 pi^2 t) dt
    p4 = get_problem("P4")
    T = p4.domain.horizon
    assert T == 0.2
    k = (1.0 - math.exp(-4.0 * math.pi**2 * T)) / (4.0 * math.pi**2)
    want = math.sqrt(math.pi**4 * k) + math.sqrt((0.25 + math.pi**2 / 2 + math.pi**4) * k)
    rule = build_rule(p4.domain, "interior", 12)
    assert x_norm_error(p4.exact, None, rule) == pytest.approx(want, rel=1e-13)


def test_boundary_misfit():
    g = AnalyticField(lambda s: s[0] * s[0] - s[1] * s[1], 2)
    rule = build_rule(UNIT_SQUARE, "boundary", 12)
    assert boundary_misfit(g, g, rule) == 0.0
    # ||x1^2 - x2^2||^2 over the unit-square boundary = 4 * int_0^1 (t^2-1)^2? no:
    # bottom/top edges give (x^2 - 0)^2 and (x^2-1)^2, left/right symmetric.
    want_sq = 2 * (1.0 / 5.0) + 2 * (1.0 / 5.0 - 2.0 / 3.0 + 1.0)
    assert boundary_misfit(g, None, rule) == pytest.approx(math.sqrt(want_sq), rel=1e-12)


def test_build_rule_validation():
    with pytest.raises(ValueError, match="target"):  # a box's interior covers time
        build_rule(UNIT_SQUARE, "spacetime", 4)
    with pytest.raises(ValueError):
        build_rule(SpaceTimeBox(0.1, UNIT_SQUARE), "boundary", 4)
    with pytest.raises(ValueError):
        build_rule(UNIT_SQUARE, "interior", 1)
