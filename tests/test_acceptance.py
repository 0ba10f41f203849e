"""End-to-end acceptance: one test per shipped guarantee, each printing a
single PASS line (visible with -v as the test verdict).  The certified
training runs dominate the runtime; everything else is seconds."""

import math
import time

import numpy as np
import pytest

from rescert import certify
from rescert.experiments import (ExperimentConfig, fit_ratio_slope,
                                 harmonic_failure_records, run_certified)
from rescert.losses import build_objective, make_config
from rescert.problems import default_spec, get_problem
from rescert.quadrature import build_rule, sobolev_errors_upto
from rescert.training import AdamSchedule, fd_check, train
from test_problems_losses import field_residual_sq


def test_criterion_1_certified_h2_bound_on_unit_square():
    """P1, 2x16 tanh, 5000 Adam steps: H2 error <= 1.0263 sqrt(loss) with 2%
    quadrature headroom at every recorded checkpoint, in under 5 minutes."""
    t0 = time.monotonic()
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(16, 16), seed=0)
    cfg = make_config(p1, "interior", n=24)
    checks = []

    def checkpoint(step, flat, loss):
        v = spec.with_params(flat)
        h2 = sobolev_errors_upto(v, p1.exact, cfg.interior, s_max=2)[2]
        checks.append((step, loss, h2))

    state = train(build_objective(spec, p1, cfg),
                  AdamSchedule(steps=5000, record_every=100),
                  on_checkpoint=checkpoint)
    elapsed = time.monotonic() - t0

    assert len(checks) >= 51
    worst = 0.0
    for step, loss, h2 in checks:
        bound = 1.0263 * math.sqrt(loss) * 1.02
        assert h2 <= bound, f"step {step}: H2 error {h2} above bound {bound}"
        worst = max(worst, h2 / bound)
    assert elapsed < 300.0
    assert state.loss < 1.0  # training actually made progress
    print(f"criterion 1: PASS (worst error/bound ratio {worst:.3f}, "
          f"final loss {state.loss:.3e}, {elapsed:.1f}s)")


def test_criterion_2_certificates_on_disk_and_variable_coefficients():
    """P2 certifies with constant 1.0967; P3 certifies with its derived
    divergence-form constant 1.3383."""
    p2 = get_problem("P2")
    spec = default_spec(p2, hidden=(16, 16), seed=0)
    cfg = make_config(p2, "interior", n=12)
    checks = []

    def checkpoint(step, flat, loss):
        v = spec.with_params(flat)
        h2 = sobolev_errors_upto(v, p2.exact, cfg.interior, s_max=2)[2]
        checks.append((step, loss, h2))

    train(build_objective(spec, p2, cfg), AdamSchedule(steps=1500, record_every=100),
          on_checkpoint=checkpoint)
    c = 1.0967290869346529
    for step, loss, h2 in checks:
        assert h2 <= c * math.sqrt(loss) * 1.02, f"step {step} fails"
    rep2 = certify.certified_h2_bound(checks[-1][1], p2.domain, p2)
    assert rep2.certified and rep2.constant == pytest.approx(c, rel=1e-15)

    p3 = get_problem("P3")
    rep3 = certify.certified_h2_bound(1.0, p3.domain, p3)
    assert rep3.certified
    assert rep3.constant_provenance == "convex_formula"
    assert rep3.constant == pytest.approx(1.3383452631495205, rel=1e-15)
    print(f"criterion 2: PASS (disk constant {c:.6f} holds at "
          f"{len(checks)} checkpoints; variable-coefficient constant "
          f"{rep3.constant:.6f} derived)")


def test_criterion_3_boundary_penalty_failure_family():
    """Harmonic disk modes: flat penalty loss, sqrt(n) H1 growth, bounded
    H^(1/2) surrogate."""
    records = harmonic_failure_records((2, 4, 8, 16, 32, 64), tau=1.0, quad_n=8)
    for r in records:
        assert r.grad_norm_sq == pytest.approx(math.pi * r.n, rel=1e-6)
        assert r.l2_norm_sq == pytest.approx(math.pi / (2 * r.n + 2), rel=1e-6)
        assert r.boundary_norm_sq == pytest.approx(math.pi, rel=1e-6)
        assert r.loss_tau == pytest.approx(math.pi, rel=1e-6)
        assert r.h_half_surrogate <= 1.5
    slope = fit_ratio_slope(records)
    assert slope == pytest.approx(0.50, abs=0.02)
    limit = (math.pi**2 / 2.0) ** 0.25  # 1.4905 to 4 digits
    last = records[-1]
    assert last.h_half_surrogate == pytest.approx(limit, rel=0.01)
    print(f"criterion 3: PASS (slope {slope:.4f}, surrogate at n=64 "
          f"{last.h_half_surrogate:.4f} vs limit {limit:.4f})")


def test_criterion_4_gradients_match_finite_differences():
    """Every loss variant (interior on P1 and on the heat problem P4), 20
    random coordinates, 3 seeds."""
    p1, p4, p5 = get_problem("P1"), get_problem("P4"), get_problem("P5")
    setups = [
        ("interior", default_spec(p1, hidden=(8, 8), seed=0), p1,
         make_config(p1, "interior", 8)),
        ("penalty", default_spec(p5, hidden=(8, 8), seed=0, mode="unconstrained"),
         p5, make_config(p5, "penalty", 8, tau=10.0)),
        ("sobolev_k1", default_spec(p1, hidden=(8, 8), seed=0), p1,
         make_config(p1, "sobolev_k1", 8)),
        ("interior (heat)", default_spec(p4, hidden=(8, 8), seed=0), p4,
         make_config(p4, "interior", 6)),
    ]
    worst_rel, worst_abs = 0.0, 0.0
    for name, spec, problem, cfg in setups:
        for seed in (0, 1, 2):
            s = default_spec(problem, hidden=(8, 8), seed=seed,
                             mode=spec.mode)
            report = fd_check(s, problem, cfg, n_coords=20, seed=seed)
            assert report.passed(), \
                f"{name} seed {seed}: {report.max_discrepancy}"
            worst_rel = max(worst_rel, report.max_discrepancy)
            worst_abs = max(worst_abs, report.max_absolute_near_zero)
    print(f"criterion 4: PASS (worst relative {worst_rel:.2e}, "
          f"worst near-zero absolute {worst_abs:.2e})")


def test_criterion_5_manufactured_solutions_have_zero_loss():
    """Substituting the exact solution produces a numerically zero loss."""
    worst = 0.0
    for name in ("P1", "P2", "P3", "P4", "P5"):
        problem = get_problem(name)
        rule = build_rule(problem.domain, "interior", 12)
        val = field_residual_sq(problem.exact, problem, rule)
        assert val < 1e-20, f"{name}: residual {val}"
        worst = max(worst, val)
    print(f"criterion 5: PASS (largest manufactured-solution loss {worst:.2e})")


def test_criterion_6_quadrature_exactness():
    """Gauss rules integrate monomials to degree 2n-1; weights sum to |Omega|."""
    from rescert.geometry import Disk, Rectangle, SpaceTimeBox

    square = Rectangle((0.0, 0.0), (1.0, 1.0))
    for n in (2, 5, 8):
        rule = build_rule(square, "interior", n)
        x, y = rule.nodes.T
        for a in range(2 * n):
            for b in range(2 * n):
                got = float(np.sum(rule.weights * x**a * y**b))
                assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)
    rule = build_rule(square, "interior", 4)
    for a, b in ((7, 7), (0, 6), (5, 2)):
        got = float(np.sum(rule.weights * rule.nodes[:, 0] ** a * rule.nodes[:, 1] ** b))
        assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)

    disk = Disk((0.0, 0.0), 1.0)
    box = SpaceTimeBox(0.2, square)
    targets = [
        (square, "interior", 1.0),
        (square, "boundary", 4.0),
        (disk, "interior", math.pi),
        (disk, "boundary", 2.0 * math.pi),
        (box, "interior", 0.2),
    ]
    for domain, target, measure in targets:
        rule = build_rule(domain, target, 8)
        assert float(np.sum(rule.weights)) == pytest.approx(measure, rel=1e-12)
    print("criterion 6: PASS (monomials to degree 2n-1; weight sums match measures)")


def test_criterion_7_parabolic_proportionality(tmp_path):
    """P4: error/sqrt(loss) ratio stabilises after step 500, below the
    derived X-norm constant at every checkpoint."""
    cfg = ExperimentConfig(problem="P4", hidden=(16, 16), quad_n=12,
                           steps=1500, record_every=100, seeds=(0,))
    (run,) = run_certified(cfg, tmp_path)
    report = run.final_report
    ratio = {step: xerr / math.sqrt(loss) for step, loss, _, xerr in run.rows}
    ratios = np.array([r for step, r in ratio.items() if step >= 500])
    assert ratios.size >= 8
    cv = float(np.std(ratios) / np.mean(ratios))
    assert cv < 0.5
    assert report.certified and report.constant_provenance == "convex_formula"
    worst = max(ratio.values())
    assert worst <= report.constant
    print(f"criterion 7: PASS (ratio CV {cv:.4f}, worst ratio {worst:.4f} "
          f"against constant {report.constant:.4f})")


def test_criterion_8_penalty_reduces_to_interior_with_exact_boundaries():
    """For boundary-exact ansatz functions the penalty term vanishes
    identically, so both losses agree to near machine precision."""
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=(8, 8), seed=0)
    cfg_i = make_config(p1, "interior", n=12)
    cfg_p = make_config(p1, "penalty", n=12, tau=7.5)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        s = spec.with_params(rng.standard_normal(spec.params.n_params))
        flat = s.params.flatten()
        li = build_objective(s, p1, cfg_i).value(flat)
        lp = build_objective(s, p1, cfg_p).value(flat)
        rel = abs(lp - li) / li
        assert rel <= 1e-14
        worst = max(worst, rel)
    print(f"criterion 8: PASS (worst relative gap {worst:.2e} over 10 draws)")


def test_criterion_9_bit_identical_reruns(tmp_path):
    """Identical config and seeds reproduce byte-identical output files."""
    cfg = ExperimentConfig(problem="P1", hidden=(8, 8), quad_n=8, steps=40,
                           record_every=10, seeds=(0, 1))
    run_certified(cfg, tmp_path / "first")
    run_certified(cfg, tmp_path / "second")
    names = ["certify_P1_seed0.csv", "certify_P1_seed1.csv", "certify_P1_summary.txt"]
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print(f"criterion 9: PASS ({len(names)} files byte-identical across reruns)")
