"""Certificates: the derived constants (closed forms and stressed cases),
report semantics, the one violation predicate, and the kinds each
certificate function refuses."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from rescert import certify
from rescert.certify import (BoundViolation, CertifiedReport,
                             PROVENANCE_CONVEX, c_div_form, c_heat, c_reg_convex,
                             certified_h2_bound, parabolic_bound)
from rescert.fields import AnalyticField
from rescert.experiments import ExperimentConfig, run_penalty_vs_exact
from rescert.geometry import Disk, Rectangle, SpaceTimeBox
from rescert.jets import exp, sin
from rescert.losses import build_objective, make_config
from rescert.problems import PdeProblem, default_spec, get_problem
from rescert.quadrature import sobolev_errors_upto, x_norm_error


def test_c_reg_closed_forms():
    # sqrt(1 + 1/lambda_1 + 1/lambda_1^2), lambda_1 the first Dirichlet
    # eigenvalue, pi^2 (1/a^2 + 1/b^2) on an a x b rectangle
    for lo, hi in (((0.0, 0.0), (1.0, 1.0)), ((-1.0, 0.0), (1.0, 0.5))):
        a, b = hi[0] - lo[0], hi[1] - lo[1]
        lam = math.pi**2 * (1 / a**2 + 1 / b**2)
        assert c_reg_convex(Rectangle(lo, hi)) == pytest.approx(
            math.sqrt(1 + 1 / lam + 1 / lam**2), rel=1e-15)
    assert c_reg_convex(Rectangle((0.0, 0.0), (1.0, 1.0))) == pytest.approx(
        1.0262685259642526, rel=1e-15)
    assert c_reg_convex(Rectangle((-1.0, 0.0), (1.0, 0.5))) == pytest.approx(
        1.0121307412499787, rel=1e-15)
    assert c_reg_convex(Disk((0.0, 0.0), 1.0)) == pytest.approx(
        1.0967290869346529, rel=1e-15)
    # scaling sanity: bigger domain, bigger constant
    assert c_reg_convex(Rectangle((0.0, 0.0), (2.0, 2.0))) > c_reg_convex(
        Rectangle((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(TypeError):
        c_reg_convex(SpaceTimeBox(0.2, Rectangle((0.0, 0.0), (1.0, 1.0))))


def test_derived_constants_closed_forms():
    lam = 2 * math.pi**2  # unit square
    square = Rectangle((0.0, 0.0), (1.0, 1.0))
    c_div = math.sqrt((1 / lam)**2 + 1 / lam + (1 + math.sqrt(2 / lam))**2)
    assert c_div_form(square, 1.0, math.sqrt(2.0)) == pytest.approx(c_div, rel=1e-15)
    assert c_div_form(square, 1.0, math.sqrt(2.0)) == pytest.approx(
        1.3383452631495205, rel=1e-15)
    # a constant coefficient a = 1 is the Laplacian
    assert c_div_form(square, 1.0, 0.0) == pytest.approx(c_reg_convex(square), rel=1e-15)
    box = SpaceTimeBox(0.2, square)
    assert c_heat(box) == pytest.approx(
        math.sqrt(1 + 1 + 1 / lam + 1 / lam**2), rel=1e-15)
    assert c_heat(box) == pytest.approx(1.4329086109675102, rel=1e-15)
    p3, p4 = get_problem("P3"), get_problem("P4")
    assert certified_h2_bound(1.0, p3.domain, p3).constant == c_div_form(
        square, p3.ellipticity, p3.coeff_grad_bound)
    assert parabolic_bound(1.0, p4).constant == c_heat(p4.domain)


def _zero_network(problem):
    spec = default_spec(problem, hidden=(4,), seed=0)
    return spec.with_params(np.zeros(spec.params.n_params))


def test_divergence_form_constant_holds_for_the_zero_network():
    # P3 with v = 0: the loss is ||f||^2 and the H2 error is ||u*||_H2,
    # both measured on a 64 x 64 rule, far finer than any training rule
    p3 = get_problem("P3")
    spec = _zero_network(p3)
    cfg = make_config(p3, "interior", n=64)
    loss = build_objective(spec, p3, cfg).value(spec.params.flatten())
    h2 = sobolev_errors_upto(spec, p3.exact, cfg.interior, s_max=2)[2]
    assert h2 / math.sqrt(loss) == pytest.approx(0.756, abs=5e-4)
    rep = certified_h2_bound(loss, p3.domain, p3, measured_error=h2)
    assert h2 <= rep.bound  # without the headroom
    rep.check()


def test_heat_constant_holds_for_the_lift():
    # P4 with net = 0: v is the lift u0 extended in time, measured on 32^3
    p4 = get_problem("P4")
    spec = _zero_network(p4)
    cfg = make_config(p4, "interior", n=32)
    loss = build_objective(spec, p4, cfg).value(spec.params.flatten())
    xerr = x_norm_error(spec, p4.exact, cfg.interior)
    assert xerr / math.sqrt(loss) == pytest.approx(1.170, abs=5e-4)
    rep = parabolic_bound(loss, p4, measured_error=xerr)
    assert xerr <= rep.bound  # without the headroom
    rep.check()


def test_problems_refuse_what_their_proofs_exclude():
    p3, p4 = get_problem("P3"), get_problem("P4")
    for bounds in (dict(ellipticity=None), dict(coeff_grad_bound=None),
                   dict(ellipticity=0.0)):
        with pytest.raises(ValueError, match="ellipticity > 0 and .*coeff_grad_bound"):
            replace(p3, **bounds)
    # heat: u0 = 1 + sin sin is not zero on the spatial boundary
    u0 = AnalyticField(lambda s: 1.0 + sin(math.pi * s[0]) * sin(math.pi * s[1]), 2)
    with pytest.raises(ValueError, match="u0 = 0 on the spatial boundary.*1.000e"):
        replace(p4, lift=u0.time_extended())


def test_problems_refuse_coefficient_bounds_their_coefficient_breaks():
    # P3 with ellipticity 2 used to build, though a = 1 + (x^2 + y^2)/2 falls
    # to 1: c_div_form gave 0.591 for 1.338, and a network trained on it
    # (hidden 16,16, n=12, 1500 steps) was certified at 0.0313 with an H2
    # error of 0.0405 on a 64 x 64 rule
    p3 = get_problem("P3")
    with pytest.raises(ValueError, match=r"P3's coefficient breaks its bounds: a reaches "
                                         r"1\.000197 \(ellipticity 2\) and \|grad a\| "
                                         r"1\.400244 \(coeff_grad_bound 1\.414214\)"):
        replace(p3, ellipticity=2.0)
    with pytest.raises(ValueError, match="coeff_grad_bound 1.3"):
        replace(p3, coeff_grad_bound=1.3)
    nan = AnalyticField(lambda s: 0.0 * s[0] + math.nan, 2)
    with pytest.raises(ValueError, match="a reaches nan"):
        replace(p3, coeff=nan)
    for bounds in (dict(coeff_grad_bound=-1.0), dict(coeff_grad_bound=math.inf),
                   dict(coeff_grad_bound=math.nan), dict(ellipticity=math.nan)):
        with pytest.raises(ValueError, match="ellipticity > 0 and .*coeff_grad_bound, finite"):
            replace(p3, **bounds)
    # bounds the samples keep build, as P3's own do
    replace(p3, ellipticity=1.0001, coeff_grad_bound=1.401)


def test_heat_problems_refuse_an_exact_solution_off_the_lateral_data():
    # u* + t still matches u0 at t = 0, so it used to build against zero
    # lateral data; P4's own u* reads 1.1e-16 there
    p4 = get_problem("P4")
    shifted = AnalyticField(
        lambda s: exp(-2 * math.pi**2 * s[0]) * sin(math.pi * s[1]) * sin(math.pi * s[2])
        + s[0], 3)
    with pytest.raises(ValueError, match="P4's exact solution is not zero on the lateral "
                                         "boundary, where \\|u\\*\\| reaches 1.960e-01"):
        replace(p4, exact=shifted, rhs=AnalyticField(lambda s: 1.0, 3))


def test_problems_refuse_an_exact_solution_off_their_data():
    # the H2 certificate holds for networks that take the problem's data;
    # a P5 whose lift is u* + 0.1 used to build, and a network trained on it
    # (hidden 8,8, 300 steps) was certified at 0.0056 with an H2 error of 0.100
    p1, p4, p5 = get_problem("P1"), get_problem("P4"), get_problem("P5")
    shifted = AnalyticField(lambda s: s[0] * s[0] - s[1] * s[1] + 0.1, 2)
    with pytest.raises(ValueError, match="P5's exact solution differs from its "
                                         "boundary data by 1.000e-01"):
        replace(p5, lift=shifted)
    with pytest.raises(ValueError, match="P1's exact solution .* boundary data by 1.000e-01"):
        replace(p1, lift=AnalyticField(lambda s: 0.1, 2))
    # heat: u0 = sin sin / 2 vanishes laterally, but u*(0) = sin sin is not u0
    half = AnalyticField(lambda s: 0.5 * sin(math.pi * s[0]) * sin(math.pi * s[1]), 2)
    with pytest.raises(ValueError, match="P4's exact solution differs from its initial data"):
        replace(p4, lift=half.time_extended())
    # a NaN is no match: both checks used to let it through
    nan = AnalyticField(lambda s: 0.0 * s[0] + math.nan, 2)
    with pytest.raises(ValueError, match="boundary data by nan"):
        replace(p5, lift=nan)
    with pytest.raises(ValueError, match="u0 = 0 on the spatial boundary.*nan"):
        replace(p4, lift=nan.time_extended(), exact=None)
    # the built-in problems take their data to rounding, so they rebuild
    for name in ("P1", "P2", "P3", "P4", "P5"):
        replace(get_problem(name))


def test_h2_bound_on_square():
    p1 = get_problem("P1")
    rep = certified_h2_bound(4.0, Rectangle((0.0, 0.0), (1.0, 1.0)), p1)
    assert rep.constant_provenance == PROVENANCE_CONVEX
    assert rep.certified
    assert rep.bound == pytest.approx(2.052537051928505, rel=1e-15)
    assert rep.norm_label == "H2"

    zero = certified_h2_bound(0.0, Rectangle((0.0, 0.0), (1.0, 1.0)), p1)
    assert zero.bound == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        certified_h2_bound(-1.0, Rectangle((0.0, 0.0), (1.0, 1.0)), p1)


def test_h2_bound_provenance_paths():
    # every spatial kind certifies with a derived constant; heat goes elsewhere
    square = Rectangle((0.0, 0.0), (1.0, 1.0))
    for name, constant in (("P1", 1.0262685259642526), ("P3", 1.3383452631495205)):
        problem = get_problem(name)
        rep = certified_h2_bound(1.0, square, problem)
        assert rep.constant_provenance == PROVENANCE_CONVEX and rep.certified
        assert rep.constant == pytest.approx(constant, rel=1e-15)
    with pytest.raises(ValueError, match="parabolic_bound"):
        certified_h2_bound(1.0, square, get_problem("P4"))
    with pytest.raises(TypeError):
        certified_h2_bound(1.0, square, constant=2.5)  # no caller picks a constant


def test_h2_bound_refuses_a_domain_its_problem_does_not_live_on():
    # the constant is the problem's: P1 on a 0.5 x 0.5 square used to certify
    # with 1.0064 (that square's constant) in place of P1's 1.0263
    p1 = get_problem("P1")
    for domain in (Rectangle((0.0, 0.0), (0.5, 0.5)), Disk((0.0, 0.0), 1.0)):
        with pytest.raises(ValueError, match=f"P1 lives on .*, not on {type(domain).__name__}"):
            certified_h2_bound(1.0, domain, p1)
    with pytest.raises(TypeError):  # the problem is required
        certified_h2_bound(1.0, p1.domain)


def test_report_validation_and_check():
    # bound, provenance and certified are derived, never stored
    rep = CertifiedReport("H2", 4.0, 1.5)
    assert rep.bound == 3.0 and rep.certified
    assert rep.constant_provenance == PROVENANCE_CONVEX
    assert [f.name for f in fields(CertifiedReport)] == [
        "norm_label", "loss", "constant", "measured_error"]

    ok = CertifiedReport("H2", 1.0, 2.0, measured_error=2.03)
    assert ok.certified and ok.bound == 2.0
    assert ok.bound_holds()  # 2.03 <= 2.0 * 1.02
    assert ok.check() is ok

    bad = CertifiedReport("H2", 1.0, 2.0, measured_error=2.05)
    assert not bad.bound_holds()
    with pytest.raises(BoundViolation, match="exceeds"):
        bad.check()

    unmeasured = CertifiedReport("H2", 1.0, 2.0)
    assert unmeasured.bound_holds()


def test_violation_is_the_one_predicate():
    bad = CertifiedReport("X_parabolic", 1.0, 2.0, measured_error=2.05)
    assert bad.violation() == ("X_parabolic error 2.050000e+00 exceeds bound "
                               "2.000000e+00 (headroom 2%)")
    with pytest.raises(BoundViolation) as err:
        bad.check()
    assert str(err.value) == bad.violation()

    assert CertifiedReport("H2", 1.0, 2.0,
                           measured_error=2.03).violation() == ""  # inside the headroom
    assert CertifiedReport("H2", 1.0, 2.0).violation() == ""  # unmeasured


def test_report_text():
    p2 = get_problem("P2")
    rep = certified_h2_bound(0.25, Disk((0.0, 0.0), 1.0), p2, measured_error=0.5)
    text = rep.text_block()
    assert "norm:        H2" in text
    assert f"bound:       {rep.bound!r}" in text
    assert "headroom:    0.02" in text
    assert "certified:   True" in text
    assert "holds: True" in text
    # unmeasured reports print no measurement line
    assert "measured" not in certified_h2_bound(0.25, Disk((0.0, 0.0), 1.0), p2).text_block()


def test_h2_bound_holds_on_large_square():
    # u* = sin(pi x/10) sin(pi y/10) on the 10 x 10 square with v = 0 (zero
    # network, no lift): the loss is ||f||^2 and the H2 error is ||u*||_H2.
    # u* is the first eigenmode, so the certified bound is attained.
    domain = Rectangle((0.0, 0.0), (10.0, 10.0))
    def u(s):
        return sin(math.pi / 10 * s[0]) * sin(math.pi / 10 * s[1])

    problem = PdeProblem(
        name="big", kind="poisson", domain=domain,
        rhs=AnalyticField(lambda s: math.pi**2 / 50 * u(s), 2),
        exact=AnalyticField(u, 2))
    spec = default_spec(problem, hidden=(4,), seed=0)
    spec = spec.with_params(np.zeros(spec.params.n_params))
    cfg = make_config(problem, "interior", n=24)
    loss = build_objective(spec, problem, cfg).value(spec.params.flatten())
    h2 = sobolev_errors_upto(spec, problem.exact, cfg.interior, s_max=2)[2]
    assert h2 == pytest.approx(5.5596, rel=1e-4)
    rep = certified_h2_bound(loss, domain, problem, measured_error=h2)
    assert rep.certified and rep.constant_provenance == PROVENANCE_CONVEX
    assert rep.bound_holds(), f"H2 error {h2} above bound {rep.bound}"
    assert rep.bound == pytest.approx(5.5596, rel=1e-4)
    assert h2 <= rep.bound * (1 + 1e-9)  # sharp, not saved by the headroom
    rep.check()


def test_penalty_estimator_is_never_certified(tmp_path):
    # a penalty loss certifies nothing above H^(1/2): compare-bc gives the
    # penalty no report, only the indicator (1 + tau^(-1/2)) sqrt(loss)
    assert not hasattr(certify, "penalty_h_half_estimator")
    cfg = ExperimentConfig(problem="P5", hidden=(4,), quad_n=6, steps=5, lr=1e-2,
                           record_every=5, seeds=(0,), tau=1.0)
    exact, penalty = run_penalty_vs_exact(cfg, tmp_path)
    method, state, _, _, _, value, report = penalty
    assert method == "penalty" and report is None
    assert value == 2.0 * math.sqrt(state.loss)  # 1 + tau^(-1/2) = 2 at tau = 1
    assert exact[-1].certified
    lines = (tmp_path / "compare_bc_P5.csv").read_text().splitlines()
    block = [l[2:] for l in lines if l.startswith("# ")]
    block = block[block.index("-- penalty --") + 1:]
    assert block[0].startswith("certificate: none")
    assert not any(l.startswith(("bound:", "certified:")) for l in block)


def test_parabolic_bound_paths():
    p4 = get_problem("P4")
    rep = parabolic_bound(0.16, p4)
    assert rep.constant == pytest.approx(1.4329086109675102, rel=1e-15)
    assert rep.bound == pytest.approx(0.4 * 1.4329086109675102, rel=1e-15)
    assert rep.certified and rep.constant_provenance == PROVENANCE_CONVEX
    assert rep.norm_label == "X_parabolic"
    for name in ("P1", "P3"):  # spatial problems take the H2 certificate
        with pytest.raises(ValueError, match="heat"):
            parabolic_bound(0.16, get_problem(name))


@pytest.mark.parametrize("loss", [math.inf, math.nan])
def test_certificates_reject_non_finite_loss(loss):
    # a run that never evaluated its loss must not stamp an infinite bound
    with pytest.raises(ValueError, match="finite"):
        certified_h2_bound(loss, Rectangle((0.0, 0.0), (1.0, 1.0)), get_problem("P1"))
    with pytest.raises(ValueError, match="finite"):
        parabolic_bound(loss, get_problem("P4"))
