"""Built-in problems and loss assembly: manufactured solutions really solve
their PDEs, discretised losses hit closed-form values, and the penalty /
exact-boundary algebra behaves as advertised."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from rescert.fields import AnalyticField
from rescert.geometry import Rectangle
from rescert.losses import (LossConfig, build_objective,
                            make_config, residual_rows)
from rescert.network import forward_jets
from rescert.problems import builtin_problems, default_spec, get_problem
from rescert.quadrature import build_rule, kahan_sum
from sympy_oracle import sympy_jet

PI = np.pi


def zero_spec(problem, mode="exact_bc", hidden=(8, 8)):
    spec = default_spec(problem, hidden=hidden, seed=0, mode=mode)
    return spec.with_params(np.zeros(spec.params.n_params))


def loss_of(spec, problem, cfg):
    return build_objective(spec, problem, cfg).value(spec.params.flatten())


def strong_residual(problem, field, X):
    # one residual per point: the assembled rows applied to the field's jets
    rows, const = residual_rows(problem, X, 2)
    return (np.einsum("nmc,nc->nm", rows, field.jets(X, 2)) + const)[:, 0]


def field_residual_sq(field, problem, rule, with_gradient=False):
    """Squared residual norm of a jet-evaluable field on a rule: the
    assembled rows (plus the gradient rows) applied to the field's jets."""
    order = 3 if with_gradient else 2
    rows, const = residual_rows(problem, rule.nodes, order, with_gradient)
    r = np.einsum("nmc,nc->nm", rows, field.jets(rule.nodes, order)) + const
    return kahan_sum(rule.weights * np.sum(r * r, axis=1))


# -- manufactured solutions ----------------------------------------------------


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P5"])
def test_exact_solution_has_zero_strong_residual(name):
    problem = get_problem(name)
    rng = np.random.default_rng(3)
    X = rng.uniform(0.05, 0.95, size=(12, 2))
    if name == "P2":
        X = X - 0.5  # disk is centred at the origin
    r = strong_residual(problem, problem.exact, X)
    assert r.shape == (12,)
    assert np.max(np.abs(r)) < 1e-10


def test_heat_solution_has_zero_strong_residual():
    p4 = get_problem("P4")
    rng = np.random.default_rng(4)
    T = rng.uniform((0.0, 0.05, 0.05), (0.2, 0.95, 0.95), size=(12, 3))
    r = strong_residual(p4, p4.exact, T)
    assert r.shape == (12,)
    assert np.max(np.abs(r)) < 1e-10


def test_manufactured_rhs_values():
    p1 = get_problem("P1")
    assert p1.rhs.values([[0.5, 0.5]])[0] == pytest.approx(2 * PI**2, rel=1e-14)
    p2 = get_problem("P2")
    # -laplace[(1 - x^2 - y^2)/4] = 1 everywhere
    for x in ([0.0, 0.0], [0.3, -0.4], [0.7, 0.1]):
        assert p2.rhs.values([x])[0] == pytest.approx(1.0, rel=1e-14)
    p5 = get_problem("P5")
    assert p5.rhs.values([[0.3, 0.8]])[0] == 0.0  # x^2 - y^2 is harmonic
    p4 = get_problem("P4")
    assert p4.rhs.values([[0.1, 0.3, 0.7]])[0] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "P5"])
def test_exact_solution_integrated_residual_vanishes(name):
    problem = get_problem(name)
    rule = build_rule(problem.domain, "interior", 12)
    assert field_residual_sq(problem.exact, problem, rule) < 1e-20
    if problem.kind == "poisson":
        # the residual gradient too, through the order-1 jets of f
        assert field_residual_sq(problem.exact, problem, rule, with_gradient=True) < 1e-20


def test_p1_rhs_bits_match_textbook_formula():
    """P1's f on the 24 x 24 rule is bit for bit 2 pi^2 sin(pi x) sin(pi y),
    evaluated left to right.  f enters every interior-loss value as the
    residual offset, so its last bits reach the certify-run loss and bound
    columns and the fd_check discrepancies; at some initialisations those
    discrepancies sit within a factor of two of the audit tolerance, on
    gradient coordinates below what central differences resolve, and an
    f that differs in the last bit can move them across it."""
    p1 = get_problem("P1")
    X = build_rule(p1.domain, "interior", 24).nodes
    x, y = X[:, 0], X[:, 1]
    want = 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    assert np.array_equal(p1.rhs.values(X), want)


def test_runtime_does_not_import_sympy():
    # fields are jet expressions, so building every problem and an objective
    # for each leaves sympy (a test-only dependency) unimported
    code = (
        "import sys\n"
        "from rescert import build_objective, builtin_problems, default_spec, make_config\n"
        "for p in builtin_problems().values():\n"
        "    cfg = make_config(p, 'interior', n=4)\n"
        "    build_objective(default_spec(p, hidden=(4,)), p, cfg)\n"
        "print('sympy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_p3_coefficient_is_uniformly_elliptic():
    # A = a I, so uniform ellipticity is a >= c_A; the certificate also
    # needs |grad a| <= G, attained at the corner (1, 1)
    p3 = get_problem("P3")
    assert p3.ellipticity == 1.0 and p3.coeff_grad_bound == np.sqrt(2.0)
    X = np.random.default_rng(7).uniform(0.0, 1.0, size=(50, 2))
    assert np.all(p3.coeff.values(X) >= p3.ellipticity)
    grad = p3.coeff.jets(np.vstack([X, [[1.0, 1.0]]]), 1)[:, 1:]
    norms = np.linalg.norm(grad, axis=1)
    assert np.all(norms <= p3.coeff_grad_bound * (1 + 1e-15))
    assert norms[-1] == pytest.approx(p3.coeff_grad_bound, rel=1e-15)


def test_p3_residual_rows_match_symbolic_operator():
    # independent route: div(a grad v) + f for a non-solution v, with the
    # jets of v and f = -div(a grad u*) all taken from sympy
    p3 = get_problem("P3")
    x, y = sp.symbols("x y")
    a = 1 + (x**2 + y**2) / 2

    def div_a_grad(w):
        return sp.diff(a * sp.diff(w, x), x) + sp.diff(a * sp.diff(w, y), y)

    v = x**3 * y**2
    u = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    want = sp.lambdify((x, y), div_a_grad(v) - div_a_grad(u), "numpy")
    P = np.random.default_rng(11).uniform(0.1, 0.9, size=(10, 2))
    jets = np.array([sympy_jet(v, (x, y), p, 2) for p in P])
    rows, const = residual_rows(p3, P, 2)
    got = (np.einsum("nmc,nc->nm", rows, jets) + const)[:, 0]
    assert np.allclose(got, want(P[:, 0], P[:, 1]), rtol=1e-10, atol=1e-10)


# -- frozen loss values of trivial ansatz fields ---------------------------------


def test_zero_network_losses_hit_closed_forms():
    # v = 0: the loss is the squared norm of the data term alone
    p1 = get_problem("P1")
    got = loss_of(zero_spec(p1), p1, make_config(p1, "interior", n=24))
    assert got == pytest.approx(PI**4, rel=1e-12)

    got = loss_of(zero_spec(p1), p1, make_config(p1, "sobolev_k1", n=24))
    assert got == pytest.approx(PI**4 + 2 * PI**6, rel=1e-12)
    assert got == pytest.approx(2020.187478184611, rel=1e-12)

    p2 = get_problem("P2")
    got = loss_of(zero_spec(p2), p2, make_config(p2, "interior", n=24))
    assert got == pytest.approx(PI, rel=1e-12)


def test_zero_network_parabolic_loss():
    # v = u0(x) for all t: residual is -laplace(u0) = 2 pi^2 u0, f = 0
    p4 = get_problem("P4")
    got = loss_of(zero_spec(p4), p4, make_config(p4, "interior", n=16))
    assert got == pytest.approx(0.2 * PI**4, rel=1e-10)


def test_field_residual_sq_nonsolution_closed_forms():
    # poisson route: v = x^2 y on P1, integral worked out by hand
    p1 = get_problem("P1")
    v = AnalyticField(lambda s: s[0] * s[0] * s[1], 2)
    rule = build_rule(p1.domain, "interior", 24)
    assert field_residual_sq(v, p1, rule) == pytest.approx(52.0 / 3.0 + PI**4, rel=1e-12)

    # heat route: w = t x(1-x) y(1-y) on P4, integral 163/67500
    p4 = get_problem("P4")
    w = AnalyticField(lambda s: s[0] * s[1] * (1 - s[1]) * s[2] * (1 - s[2]), 3)
    srule = build_rule(p4.domain, "interior", 10)
    assert field_residual_sq(w, p4, srule) == pytest.approx(163.0 / 67500.0, rel=1e-12)


# -- penalty / exact-boundary relations ------------------------------------------


def test_penalty_equals_interior_for_boundary_exact_ansatz():
    # the boundary term contributes exactly zero when conditions hold by design
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(8, 8), seed=1)
    cfg_i = make_config(p1, "interior", n=12)
    cfg_p = make_config(p1, "penalty", n=12, tau=50.0)
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = spec.with_params(rng.standard_normal(spec.params.n_params))
        li = loss_of(s, p1, cfg_i)
        lp = loss_of(s, p1, cfg_p)
        assert lp == pytest.approx(li, rel=1e-14)


def test_penalty_loss_is_affine_in_tau():
    p5 = get_problem("P5")
    spec = default_spec(p5, hidden=(8, 8), seed=3, mode="unconstrained")
    losses = {tau: loss_of(spec, p5, make_config(p5, "penalty", n=12, tau=tau))
              for tau in (1.0, 2.0, 3.0)}
    slope12 = losses[2.0] - losses[1.0]
    slope23 = losses[3.0] - losses[2.0]
    assert slope12 == pytest.approx(slope23, rel=1e-12)
    assert slope12 > 0

    # slope == squared boundary misfit, evaluated directly from the raw network
    brule = build_rule(p5.domain, "boundary", 12)
    scale, shift = spec.input_scaling()
    vals = forward_jets(spec.params, brule.nodes, 0, scale, shift)[0][:, 0]
    g = p5.lift.values(brule.nodes)
    misfit_sq = float(np.sum(brule.weights * (vals - g) ** 2))
    assert slope12 == pytest.approx(misfit_sq, rel=1e-12)


def test_sobolev_loss_dominates_interior_loss():
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(8, 8), seed=5)
    rng = np.random.default_rng(31)
    for _ in range(5):
        s = spec.with_params(rng.standard_normal(spec.params.n_params) * 0.5)
        li = loss_of(s, p1, make_config(p1, "interior", n=10))
        ls = loss_of(s, p1, make_config(p1, "sobolev_k1", n=10))
        assert ls >= li


def test_objective_gradient_matches_value():
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(6,), seed=9)
    obj = build_objective(spec, p1, make_config(p1, "interior", n=8))
    flat = spec.params.flatten()
    v0 = obj.value(flat)
    v1, pullback = obj.value_and_grad(flat)
    g = pullback()
    assert v1 == v0
    # the pullback dropped its forward caches, so it runs once
    with pytest.raises(RuntimeError, match="pullback already ran"):
        pullback()
    # directional derivative vs central differences
    rng = np.random.default_rng(17)
    d = rng.standard_normal(flat.size)
    d /= np.linalg.norm(d)
    h = 1e-6
    fd = (obj.value(flat + h * d) - obj.value(flat - h * d)) / (2 * h)
    assert float(g @ d) == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("name,variant", [("P1", "interior"), ("P5", "penalty"),
                                          ("P1", "sobolev_k1"), ("P4", "interior")])
def test_value_is_the_loss_of_value_and_grad_bitwise(name, variant):
    # one forward routine serves both: the same pass gives the same bits
    problem = get_problem(name)
    spec = default_spec(problem, hidden=(6, 5), seed=4,
                        mode="unconstrained" if variant == "penalty" else "exact_bc")
    cfg = make_config(problem, variant, n=6, tau=10.0 if variant == "penalty" else None)
    obj = build_objective(spec, problem, cfg)
    rng = np.random.default_rng(11)
    for flat in (spec.params.flatten(), rng.standard_normal(spec.params.n_params)):
        assert obj.value(flat) == obj.value_and_grad(flat)[0]


# -- configuration validation -----------------------------------------------------


@pytest.mark.parametrize("name,variant", [("P1", "interior"), ("P5", "interior"),
                                          ("P5", "penalty"), ("P1", "sobolev_k1")])
def test_ansatz_jets_reuse_only_the_vector_of_the_last_pass(name, variant, monkeypatch):
    from rescert import network

    problem = get_problem(name)
    mode = "unconstrained" if variant == "penalty" else "exact_bc"
    spec = default_spec(problem, hidden=(6, 6), seed=1, mode=mode)
    cfg = make_config(problem, variant, 5, tau=2.0 if variant == "penalty" else None)
    objective = build_objective(spec, problem, cfg)
    block = objective.blocks[0]
    rng = np.random.default_rng(0)
    flat = rng.uniform(-1, 1, spec.params.n_params)
    other = flat + 1e-3 * rng.standard_normal(flat.size)

    def old_route(vec):
        return spec.with_params(vec).jets(cfg.interior.nodes, block.order)

    passes = []
    real = network.forward_jets
    monkeypatch.setattr(network, "forward_jets",
                        lambda *a, **k: passes.append(1) or real(*a, **k))
    objective.value_and_grad(flat)[1]()
    passes.clear()
    # the vector of the last pass: its jets, no second forward pass
    assert np.array_equal(objective.ansatz_jets(flat.copy()), old_route(flat))
    assert passes == [1]  # old_route's own pass
    # any other vector: a fresh pass, bitwise the spec's jets
    assert np.array_equal(objective.ansatz_jets(other), old_route(other))
    # the remembered vector is a copy: mutating the caller's array in place
    # after the pass must not hand back the jets of the old values
    objective.value(flat)
    flat[3] += 1e-9
    assert np.array_equal(objective.ansatz_jets(flat), old_route(flat))


def test_loss_config_validation():
    p1 = get_problem("P1")
    rule = build_rule(p1.domain, "interior", 4)
    brule = build_rule(p1.domain, "boundary", 4)
    with pytest.raises(ValueError, match="variant"):
        LossConfig(variant="bogus", interior=rule)
    with pytest.raises(ValueError, match="tau"):
        LossConfig(variant="penalty", interior=rule, boundary=brule)
    with pytest.raises(ValueError, match="tau"):
        LossConfig(variant="penalty", tau=-2.0, interior=rule, boundary=brule)
    with pytest.raises(ValueError, match="boundary"):
        LossConfig(variant="penalty", tau=1.0, interior=rule)
    with pytest.raises(ValueError, match="tau"):
        LossConfig(variant="interior", tau=1.0, interior=rule)
    with pytest.raises(ValueError):
        LossConfig(variant="interior")
    with pytest.raises(ValueError, match="variant"):
        LossConfig(variant="parabolic", interior=rule)
    # make_config has no default weight: a penalty without tau is refused
    with pytest.raises(ValueError, match="tau"):
        make_config(get_problem("P5"), "penalty", 4)


def test_build_objective_rejects_mismatched_modes():
    p1 = get_problem("P1")
    p4 = get_problem("P4")
    free = default_spec(p1, hidden=(4,), seed=0, mode="unconstrained")
    with pytest.raises(ValueError, match="exact-boundary"):
        build_objective(free, p1, make_config(p1, "interior", n=4))
    with pytest.raises(ValueError, match="exact-boundary"):
        build_objective(free, p1, make_config(p1, "sobolev_k1", n=4))
    heat_free = default_spec(p4, hidden=(4,), seed=0, mode="unconstrained")
    with pytest.raises(ValueError, match="spatial"):
        build_objective(heat_free, p4, LossConfig(
            variant="penalty", tau=1.0, interior=build_rule(p4.domain, "interior", 4),
            boundary=build_rule(p1.domain, "boundary", 4)))
    with pytest.raises(ValueError, match="poisson"):
        p3 = get_problem("P3")
        build_objective(default_spec(p3, hidden=(4,), seed=0), p3,
                        LossConfig(variant="sobolev_k1",
                                   interior=build_rule(p3.domain, "interior", 4)))


def test_build_objective_refuses_a_spec_for_another_problem():
    # each used to build: the trained network then misses the problem's
    # boundary data, and the H2 certificate, which assumes exact boundary
    # values, reads certified: True for a bound the true error exceeds
    p1, p2, p4, p5 = (get_problem(n) for n in ("P1", "P2", "P4", "P5"))
    for spec, problem in ((default_spec(p1, hidden=(4,)), p2),
                          (default_spec(p4, hidden=(4,)), p1),
                          (default_spec(p1, hidden=(4,)), p5)):
        with pytest.raises(ValueError, match=f"built for {spec.problem.name}, "
                                             f"not {problem.name}"):
            build_objective(spec, problem, make_config(problem, "interior", n=4))
    # the penalty reads the data through the problem too, so it is refused as well
    free = default_spec(p1, hidden=(4,), mode="unconstrained")
    with pytest.raises(ValueError, match="a spec belongs to one problem"):
        build_objective(free, p5, make_config(p5, "penalty", n=4, tau=1.0))
    build_objective(default_spec(p5, hidden=(4,), mode="unconstrained"), p5,
                    make_config(p5, "penalty", n=4, tau=1.0))


def test_build_objective_refuses_rules_that_are_not_its_problems():
    # a 12 x 12 interior rule on [0, 0.5]^2 used to train P1: the network
    # (hidden 16,16, 1500 steps) was certified at 0.0337 with an H2 error of
    # 14.24 on the unit square
    p1, p2 = get_problem("P1"), get_problem("P2")
    quarter = Rectangle((0.0, 0.0), (0.5, 0.5))
    spec = default_spec(p1, hidden=(4,))
    free = default_spec(p1, hidden=(4,), mode="unconstrained")
    interior = build_rule(p1.domain, "interior", 4)
    boundary = build_rule(p1.domain, "boundary", 4)
    for variant in ("interior", "sobolev_k1"):
        with pytest.raises(ValueError, match=r"cover .* not Rectangle\(lo=\(0.0, 0.0\), "
                                             r"hi=\(0.5, 0.5\)\)"):
            build_objective(spec, p1, LossConfig(variant, interior=build_rule(
                quarter, "interior", 12)))
        with pytest.raises(ValueError, match="target 'boundary'"):
            build_objective(spec, p1, LossConfig(variant, interior=boundary))
    for bad_interior, bad_boundary, named in (
            (build_rule(p2.domain, "interior", 4), boundary, "Disk"),
            (boundary, boundary, "target 'boundary'"),
            (interior, build_rule(quarter, "boundary", 4), "hi=\\(0.5, 0.5\\)"),
            (interior, interior, "target 'interior'")):
        with pytest.raises(ValueError, match=named):
            build_objective(free, p1, LossConfig("penalty", tau=1.0, interior=bad_interior,
                                                 boundary=bad_boundary))
    # the problem's own rules build
    build_objective(free, p1, LossConfig("penalty", tau=1.0, interior=interior,
                                         boundary=boundary))


def test_problem_registry():
    reg = builtin_problems()
    assert sorted(reg) == ["P1", "P2", "P3", "P4", "P5"]
    with pytest.raises(KeyError, match="P9"):
        get_problem("P9")
    kinds = {reg[k].kind for k in reg}
    assert kinds == {"poisson", "elliptic_divA", "heat"}
