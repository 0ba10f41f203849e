"""Domains, distance factors, lifts, and the hard-constrained ansatz."""

from dataclasses import dataclass

import numpy as np
import pytest
import sympy as sp

from rescert.ansatz import AnsatzSpec
from rescert.fields import AnalyticField
from rescert.certify import c_reg_convex
from rescert.geometry import (Disk, Rectangle, SpaceTimeBox, distance_jet,
                              distance_jets)
from rescert.jets import coeff_layout, sin
from rescert.network import NetworkParams
from rescert.problems import PdeProblem, default_spec, get_problem
from rescert.quadrature import build_rule
from sympy_oracle import sympy_jet

UNIT_SQUARE = Rectangle((0.0, 0.0), (1.0, 1.0))
UNIT_DISK = Disk((0.0, 0.0), 1.0)


def test_domain_measures():
    assert UNIT_SQUARE.measure == 1.0
    assert UNIT_DISK.measure == pytest.approx(np.pi)
    box = SpaceTimeBox(0.2, UNIT_SQUARE)
    assert box.measure == pytest.approx(0.2)
    assert box.dim == 3


def test_domain_validation():
    with pytest.raises(ValueError):
        Rectangle((0.0, 0.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        Disk((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        SpaceTimeBox(-0.1, UNIT_SQUARE)
    # the spatial part is a Rectangle or a Disk; anything else used to die
    # later with an AttributeError on .dim
    for spatial in (SpaceTimeBox(1.0, UNIT_SQUARE), "square", None, (0.0, 1.0)):
        with pytest.raises(ValueError, match="spatial"):
            SpaceTimeBox(1.0, spatial)
    # non-finite or misshapen geometry is refused at construction, naming
    # the field, before a rule gets non-finite nodes or a constant divides
    # by an infinite radius
    inf, nan = float("inf"), float("nan")
    for make, field in [
        (lambda: Disk((0.0, 0.0, 0.0), 1.0), "center"),
        (lambda: Disk((0.0,), 1.0), "center"),
        (lambda: Disk((nan, 0.0), 1.0), "center"),
        (lambda: Disk((0.0, 0.0), inf), "radius"),
        (lambda: Rectangle((0.0, 0.0), (1.0, inf)), "corner hi"),
        (lambda: Rectangle((-inf, 0.0), (1.0, 1.0)), "corner lo"),
        (lambda: SpaceTimeBox(inf, UNIT_SQUARE), "horizon"),
    ]:
        with pytest.raises(ValueError, match=field):
            make()


@dataclass(frozen=True)
class Triangle:
    """Not a built-in domain, though it has the attributes a domain carries."""

    dim = 2

    def bounding_box(self):
        return np.zeros(2), np.ones(2)


def test_domain_dispatchers_refuse_an_unknown_domain_type():
    with pytest.raises(TypeError, match="Triangle"):
        build_rule(Triangle(), "interior", 4)
    with pytest.raises(TypeError, match="Triangle"):
        c_reg_convex(Triangle())
    with pytest.raises(TypeError, match="Triangle"):
        distance_jets(Triangle(), np.full((3, 2), 0.5), 2)


def distance_factor(domain, x):
    # the factor's value: slot 0 of its order-0 jet
    return distance_jets(domain, np.atleast_2d(x), 0)[0, 0]


def test_distance_factor_values():
    assert distance_factor(UNIT_SQUARE, [0.5, 0.5]) == pytest.approx(1.0 / 16.0)
    assert distance_factor(UNIT_DISK, [0.0, 0.0]) == 1.0
    assert distance_factor(UNIT_SQUARE, [0.0, 0.7]) == 0.0
    # the space-time factor t * L(x) vanishes on the initial slice
    box = SpaceTimeBox(0.2, UNIT_SQUARE)
    assert distance_factor(box, [0.1, 0.5, 0.5]) == pytest.approx(0.1 / 16.0)
    assert distance_factor(box, [0.0, 0.5, 0.5]) == 0.0


def test_distance_factor_sign():
    # Gauss nodes lie strictly inside their domain
    for dom in (UNIT_SQUARE, UNIT_DISK, SpaceTimeBox(0.2, UNIT_SQUARE)):
        nodes = build_rule(dom, "interior", 6).nodes
        assert np.all(distance_jets(dom, nodes, 0)[:, 0] > 0.0), dom


def test_distance_jets_match_closed_form():
    # independent route: jets of the closed-form polynomial from sympy (the
    # order-k slots are the leading slots of the order-3 layout)
    t, x, y = sp.symbols("t x y")
    cases = (
        (UNIT_SQUARE, x * (1 - x) * y * (1 - y), (x, y)),
        (UNIT_DISK, 1 - x**2 - y**2, (x, y)),
        (SpaceTimeBox(0.2, UNIT_SQUARE), t * x * (1 - x) * y * (1 - y), (t, x, y)),
    )
    rng = np.random.default_rng(5)
    for dom, expr, syms in cases:
        X = rng.uniform(0.1, 0.9, size=(6, dom.dim))
        want3 = np.array([sympy_jet(expr, syms, p, 3) for p in X])
        for order in (0, 1, 2, 3):
            got = distance_jets(dom, X, order)
            want = want3[:, :coeff_layout(dom.dim, order).size]
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        j = distance_jet(dom, X[0], 2)
        assert j.coeffs[coeff_layout(dom.dim, 2).position(())] == pytest.approx(want3[0, 0])


def test_lift_field_examples():
    g = AnalyticField(lambda s: s[0] + s[1], 2)
    assert g.values([[0.3, 0.4]])[0] == pytest.approx(0.7)
    h = AnalyticField(lambda s: s[0] * s[0] - s[1] * s[1], 2)
    assert h.values([[1.0, 0.0]])[0] == 1.0
    # a coordinate the field does not have fails at the first evaluation,
    # and so do points of the wrong dimension
    with pytest.raises(IndexError):
        AnalyticField(lambda s: s[0] + s[2], 2).values([[0.3, 0.4]])
    with pytest.raises(ValueError, match="shape"):
        g.values([[0.3, 0.4, 0.5]])


def test_exact_bc_boundary_values():
    # random networks: v = L*u + G matches g on boundary quadrature nodes
    for pid in ("P1", "P2", "P5"):
        problem = get_problem(pid)
        spec = default_spec(problem, hidden=(8, 8), seed=13)
        rule = build_rule(problem.domain, "boundary", 20)
        vals = spec.values(rule.nodes)
        g = (problem.lift.values(rule.nodes) if problem.lift is not None
             else np.zeros(rule.n_nodes))
        assert np.max(np.abs(vals - g)) < 1e-12


def test_zero_network_gives_lift():
    problem = get_problem("P5")
    spec = default_spec(problem, hidden=(8, 8), seed=1)
    spec = spec.with_params(np.zeros(spec.params.n_params))
    rng = np.random.default_rng(2)
    X = rng.uniform(0.05, 0.95, size=(20, 2))
    assert np.allclose(spec.values(X), problem.exact.values(X), atol=1e-14)


def test_parabolic_initial_and_lateral_slices():
    problem = get_problem("P4")
    spec = default_spec(problem, hidden=(8, 8), seed=21)
    srule = build_rule(UNIT_SQUARE, "interior", 10)

    # t = 0: value u0 and spatial gradient grad u0, any parameters
    nodes0 = np.column_stack([np.zeros(srule.n_nodes), srule.nodes])
    jets = spec.jets(nodes0, 1)
    u0 = problem.lift  # the initial data, extended in time
    assert np.max(np.abs(jets[:, 0] - u0.values(nodes0))) < 1e-12
    want_dx = u0.jets(nodes0, 1)[:, 2:4]
    assert np.max(np.abs(jets[:, 2:4] - want_dx)) < 1e-12

    # lateral boundary: v = 0 at any time
    brule = build_rule(UNIT_SQUARE, "boundary", 10)
    for t in (0.0, 0.07, 0.2):
        nb = np.column_stack([np.full(brule.n_nodes, t), brule.nodes])
        assert np.max(np.abs(spec.values(nb))) < 1e-12


def test_ansatz_jets_match_finite_differences():
    # second independent route: nest central differences of spec.values
    problem = get_problem("P2")
    spec = default_spec(problem, hidden=(6, 5), seed=3)
    x0 = np.array([0.21, -0.33])
    j = spec.jets(x0[None], 2)[0]
    pos = coeff_layout(2, 2).position
    h = 1e-5

    def val(p):
        return spec.values(p[None])[0]

    for i in range(2):
        e = np.zeros(2); e[i] = h
        fd = (val(x0 + e) - val(x0 - e)) / (2 * h)
        assert j[pos((i,))] == pytest.approx(fd, rel=1e-7, abs=1e-9)
    for i in range(2):
        for k in range(2):
            ei = np.zeros(2); ei[i] = h
            ek = np.zeros(2); ek[k] = h
            fd = (val(x0 + ei + ek) - val(x0 + ei - ek)
                  - val(x0 - ei + ek) + val(x0 - ei - ek)) / (4 * h * h)
            assert j[pos((i, k))] == pytest.approx(fd, rel=5e-5, abs=1e-6)


def test_input_scaling_maps_bbox():
    problem = PdeProblem(name="shifted", kind="poisson",
                         domain=Rectangle((2.0, -1.0), (4.0, 3.0)),
                         rhs=AnalyticField(lambda s: 0.0, 2))
    spec = default_spec(problem, hidden=(4,), seed=0)
    scale, shift = spec.input_scaling()
    lo = np.array([2.0, -1.0]); hi = np.array([4.0, 3.0])
    assert np.allclose(lo * scale + shift, [-1.0, -1.0])
    assert np.allclose(hi * scale + shift, [1.0, 1.0])


def test_spec_validation():
    p1 = get_problem("P1")
    with pytest.raises(ValueError):
        default_spec(p1, mode="nonsense")
    params = NetworkParams.xavier((3, 4, 1), seed=0)
    with pytest.raises(ValueError):
        AnsatzSpec(params=params, problem=p1, mode="exact_bc")  # dim mismatch
    with pytest.raises(ValueError, match="mode"):  # heat takes exact_bc
        default_spec(get_problem("P4"), mode="parabolic_exact")


def test_time_extended_field_jets():
    u0 = AnalyticField(lambda s: sin(np.pi * s[0]) * sin(np.pi * s[1]), 2)
    f = u0.time_extended()
    assert f.dim == 3
    X = np.array([[0.1, 0.3, 0.4], [0.2, 0.6, 0.9]])  # (t, x, y)
    for order in (0, 1, 2, 3):
        jets = f.jets(X, order)
        want = u0.jets(X[:, 1:], order)
        lay = coeff_layout(3, order)
        # spatial slots are u0's, bit for bit; every slot with a d/dt is zero
        for c, mi in enumerate(coeff_layout(2, order).multi_indices):
            assert np.array_equal(jets[:, lay.position(tuple(i + 1 for i in mi))],
                                  want[:, c])
        for c, mi in enumerate(lay.multi_indices):
            if 0 in mi:
                assert np.all(jets[:, c] == 0.0)
