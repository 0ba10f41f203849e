"""Adam training loop: analytic toy problem with closed-form loss surface,
gradient audit, divergence guard, checkpoint callbacks, determinism."""

import numpy as np
import pytest

from rescert.fields import AnalyticField
from rescert.geometry import Rectangle
from rescert.losses import build_objective, make_config
from rescert.problems import PdeProblem, default_spec, get_problem
from rescert import network
from rescert.training import (FD_REL_STEP, FD_REL_TOL, AdamSchedule, DivergenceError,
                              fd_check, train)


def toy_problem():
    """-Laplace(v) = 2(x(1-x) + y(1-y)) on the unit square, zero boundary
    values, solution L = x(1-x) y(1-y), the distance factor itself.

    With a single linear layer (widths (2, 1)) the ansatz is
    v = L (w1 x1' + w2 x2' + b), x' the inputs after the input scaling, and
    the residual has degree 3 in each direction, so the 8-point rule
    integrates the loss exactly: it is the quadratic
    (22/45)(1-b)^2 + (58/105)(w1^2 + w2^2) in the three parameters.
    """
    return PdeProblem(
        name="toy", kind="poisson", domain=Rectangle((0.0, 0.0), (1.0, 1.0)),
        rhs=AnalyticField(lambda s: 2.0 * (s[0] * (1 - s[0]) + s[1] * (1 - s[1])), 2),
        exact=AnalyticField(lambda s: s[0] * (1 - s[0]) * s[1] * (1 - s[1]), 2),
    )


TOY_LOSS_AT_ZERO = 22.0 / 45.0


def toy_surface(w1, w2, b):
    return TOY_LOSS_AT_ZERO * (1 - b) ** 2 + 58.0 / 105.0 * (w1**2 + w2**2)


def toy_setup():
    problem = toy_problem()
    spec = default_spec(problem, hidden=(), seed=0)
    spec = spec.with_params(np.zeros(spec.params.n_params))
    cfg = make_config(problem, "interior", n=8)
    return problem, spec, cfg


def loss_of(spec, problem, cfg):
    return build_objective(spec, problem, cfg).value(spec.params.flatten())


def test_toy_loss_surface():
    problem, spec, cfg = toy_setup()
    assert spec.params.n_params == 3  # two weights, one bias
    assert loss_of(spec, problem, cfg) == pytest.approx(TOY_LOSS_AT_ZERO, rel=1e-12)
    g = build_objective(spec, problem, cfg).value_and_grad(spec.params.flatten())[1]()
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    assert g[1] == pytest.approx(0.0, abs=1e-12)
    assert g[2] == pytest.approx(-2.0 * TOY_LOSS_AT_ZERO, rel=1e-12)
    # probe a few parameter points of the surface
    for w1, w2, b in [(0.5, 0.0, 0.0), (-0.3, 0.2, 1.0), (0.2, -0.1, 2.0),
                      (1.0, 1.0, -1.0)]:
        got = loss_of(spec.with_params(np.array([w1, w2, b])), problem, cfg)
        assert got == pytest.approx(toy_surface(w1, w2, b), rel=1e-12)


def test_toy_gradient_fd_audit():
    problem, spec, cfg = toy_setup()
    report = fd_check(spec, problem, cfg, n_coords=3, seed=0)
    # quadratic loss: central differences are exact up to rounding
    assert report.max_discrepancy < 1e-10
    assert report.max_absolute_near_zero < 1e-10
    assert report.passed()
    # the w coordinates have zero gradient at the origin -> absolute comparison
    kinds = {row.index: row.relative for row in report.rows if row.kind == "coordinate"}
    assert kinds == {0: False, 1: False, 2: True}
    # the rounding floor eps * |L| / h of each coordinate row, at theta = 0
    loss = loss_of(spec, problem, cfg)
    for row in report.rows[:3]:
        assert row.floor == np.finfo(float).eps * loss / FD_REL_STEP


def test_toy_adam_converges():
    problem, spec, cfg = toy_setup()
    objective = build_objective(spec, problem, cfg)
    seen = []
    state = train(objective, schedule=AdamSchedule(steps=200, lr=0.1, record_every=50),
                  on_checkpoint=lambda step, flat, loss: seen.append((step, loss)))
    assert abs(state.params[2] - 1.0) < 1e-3
    assert state.loss < 1e-5
    assert seen[0] == (0, pytest.approx(TOY_LOSS_AT_ZERO, rel=1e-12))
    assert [s for s, _ in seen] == [0, 50, 100, 150, 200]  # schedule.steps steps taken
    # the best loss is the loss of the returned parameters, and no record is lower
    assert objective.value(state.params) == state.loss
    assert state.loss <= min(l for _, l in seen)


def test_zero_steps_is_a_noop():
    problem, spec, cfg = toy_setup()
    start = spec.params.flatten()
    seen = []
    state = train(build_objective(spec, problem, cfg), AdamSchedule(steps=0),
                  on_checkpoint=lambda step, flat, loss: seen.append((step, loss)))
    assert seen == [(0, pytest.approx(TOY_LOSS_AT_ZERO, rel=1e-12))]
    assert state.loss == seen[0][1]
    assert np.array_equal(state.params, start)


@pytest.mark.parametrize("bad", [{"record_every": 0}, {"steps": -2}],
                         ids=["record_every_zero", "steps_negative"])
def test_schedule_rejects_invalid_steps_and_recording(bad):
    # refused at construction, before train can divide by record_every or
    # return an infinite loss from a run that evaluated nothing
    with pytest.raises(ValueError, match=next(iter(bad))):
        AdamSchedule(**bad)


def test_training_is_deterministic():
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(6,), seed=2)
    cfg = make_config(p1, "interior", n=6)
    sched = AdamSchedule(steps=40, lr=1e-2, record_every=10)

    def run():
        seen = []
        state = train(build_objective(spec, p1, cfg), sched,
                      on_checkpoint=lambda step, flat, loss: seen.append((step, flat, loss)))
        return state, seen

    (s1, seen1), (s2, seen2) = run(), run()
    assert [(s, l) for s, _, l in seen1] == [(s, l) for s, _, l in seen2]  # bit-identical
    assert np.array_equal(seen1[-1][1], seen2[-1][1])  # the parameters after the last step
    assert np.array_equal(s1.params, s2.params)
    assert s1.loss == s2.loss


def test_checkpoint_callback_fires_on_schedule():
    problem, spec, cfg = toy_setup()
    seen = []

    def cb(step, flat, loss):
        seen.append((step, flat.copy(), loss))
        flat[:] = np.nan  # must be a defensive copy

    objective = build_objective(spec, problem, cfg)
    state = train(objective, AdamSchedule(steps=25, lr=0.05, record_every=10),
                  on_checkpoint=cb)
    assert [s for s, _, _ in seen] == [0, 10, 20, 25]
    assert np.isfinite(state.params).all()
    # each record carries the loss of the parameters it was handed
    for _, flat, loss in seen:
        assert objective.value(flat) == loss


@pytest.mark.parametrize("name,variant", [("P1", "interior"), ("P5", "penalty")])
def test_checkpoints_run_before_the_reverse_sweep_of_their_step(name, variant,
                                                                monkeypatch):
    # a certificate needs only the loss: by the checkpoint at step s, exactly
    # the reverse sweeps of steps 0 .. s-1 have run (one per block each), and
    # the final step runs none
    problem = get_problem(name)
    mode = "unconstrained" if variant == "penalty" else "exact_bc"
    spec = default_spec(problem, hidden=(4,), seed=1, mode=mode)
    cfg = make_config(problem, variant, 5, tau=2.0 if variant == "penalty" else None)
    objective = build_objective(spec, problem, cfg)
    blocks = len(objective.blocks)
    sweeps = []
    real = network.backward_jets
    monkeypatch.setattr(network, "backward_jets",
                        lambda *a: sweeps.append(1) or real(*a))
    seen = []
    train(objective, AdamSchedule(steps=7, lr=1e-2, record_every=3),
          on_checkpoint=lambda step, flat, loss: seen.append((step, len(sweeps))))
    assert seen == [(s, blocks * s) for s in (0, 3, 6, 7)]
    assert len(sweeps) == blocks * 7


def test_divergence_guard_trips():
    problem, spec, cfg = toy_setup()
    with pytest.raises(DivergenceError, match="diverged"):
        train(build_objective(spec, problem, cfg),
              AdamSchedule(steps=10, lr=1e4, record_every=5))
    try:
        train(build_objective(spec, problem, cfg),
              AdamSchedule(steps=10, lr=1e4, record_every=5))
    except DivergenceError as err:
        assert err.step == 1
        assert err.loss > 1e6 * TOY_LOSS_AT_ZERO


def test_fd_check_on_real_problem():
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(6,), seed=4)
    report = fd_check(spec, p1, make_config(p1, "interior", n=6), n_coords=10, seed=1)
    assert report.passed()
    assert report.max_discrepancy < 1e-5


@pytest.mark.parametrize("name,n", [("P1", 24), ("P2", 12)])
@pytest.mark.parametrize("seed", [20, 26])
def test_fd_check_passes_at_the_benchmark_settings(name, n, seed):
    """The audit the benchmark gates its timing runs on: (16, 16) network,
    20 coordinates, P1 on the 24 x 24 rule and P2 on the 12-point rule.  On
    P1 these two initialisations sit within a factor of two of the
    tolerance, on coordinates below what central differences resolve, so a
    change in the last bits of the loss can fail a correct gradient; this
    catches that before a timing run does."""
    problem = get_problem(name)
    spec = default_spec(problem, hidden=(16, 16), seed=seed)
    report = fd_check(spec, problem, make_config(problem, "interior", n), n_coords=20,
                      seed=seed)
    assert report.passed(), report.max_discrepancy
    # the directional rows decide with a hundredfold margin
    directional = [r for r in report.rows if r.kind != "coordinate"]
    assert [r.kind for r in directional] == ["random"] * 8 + ["weights", "bias"] * 3
    assert max(r.discrepancy for r in directional) < FD_REL_TOL / 100


def _scale_bias_gradient_of_layer_1(monkeypatch, widths):
    real = network.backward_jets
    bias1 = network._layer_slices(widths)[1][1]

    def backward(*args):
        grad = real(*args)
        grad[bias1] *= 1.0 + 1e-4
        return grad

    monkeypatch.setattr(network, "backward_jets", backward)
    return {("bias", 1)}


def _perturb_order2_tanh_term(monkeypatch, widths):
    # f3 enters the order-2 backward only through the term f3 * yb * gi * gj
    real = network._tanh_jet_backward

    def backward(Z, derivs, Ybar, lay, order):
        t, f1, f2, f3 = derivs
        return real(Z, (t, f1, f2, f3 * (1.0 + 1e-3)), Ybar, lay, order)

    monkeypatch.setattr(network, "_tanh_jet_backward", backward)
    # both tanh layers' gradients are wrong; the linear output layer's is not
    return {(kind, layer) for kind in ("weights", "bias") for layer in (0, 1)}


@pytest.mark.parametrize("inject", [_scale_bias_gradient_of_layer_1,
                                    _perturb_order2_tanh_term],
                         ids=["bias_gradient_scaled", "order2_tanh_term"])
def test_fd_check_directional_rows_name_the_defective_layer(inject, monkeypatch):
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(8, 8), seed=3)
    cfg = make_config(p1, "interior", n=8)
    assert fd_check(spec, p1, cfg, seed=3).passed()
    wrong = inject(monkeypatch, spec.params.widths)
    report = fd_check(spec, p1, cfg, seed=3)
    assert not report.passed()
    failed = {(r.kind, r.index) for r in report.failures()}
    assert {(k, i) for k, i in failed if k in ("weights", "bias")} == wrong
    assert any(k == "random" for k, _ in failed)
