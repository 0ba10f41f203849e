"""Certificates: the convex-domain regularity constant, report semantics,
the one violation predicate, and the never-certified heuristic paths."""

import math

import numpy as np
import pytest

from rescert import certify
from rescert.certify import (BoundViolation, CertifiedReport,
                             PROVENANCE_CONVEX, PROVENANCE_HEURISTIC,
                             PROVENANCE_USER, c_reg_convex,
                             certified_h2_bound, parabolic_bound)
from rescert.ansatz import build_spec
from rescert.fields import AnalyticField
from rescert.experiments import ExperimentConfig, run_penalty_vs_exact
from rescert.geometry import Disk, Interval, Rectangle, SpaceTimeBox
from rescert.jets import sin
from rescert.losses import build_objective, make_config
from rescert.problems import PdeProblem, get_problem
from rescert.quadrature import sobolev_errors_upto


def test_c_reg_closed_forms():
    # sqrt(1 + 1/lambda_1 + 1/lambda_1^2), lambda_1 the first Dirichlet eigenvalue
    lam = math.pi**2
    assert c_reg_convex(Interval(0.0, 1.0)) == pytest.approx(
        math.sqrt(1 + 1 / lam + 1 / lam**2), rel=1e-15)
    assert c_reg_convex(Interval(0.0, 1.0)) == pytest.approx(
        1.054318341819501, rel=1e-15)
    assert c_reg_convex(Rectangle((0.0, 0.0), (1.0, 1.0))) == pytest.approx(
        1.0262685259642526, rel=1e-15)
    assert c_reg_convex(Disk((0.0, 0.0), 1.0)) == pytest.approx(
        1.0967290869346529, rel=1e-15)
    # scaling sanity: bigger domain, bigger constant
    assert c_reg_convex(Rectangle((0.0, 0.0), (2.0, 2.0))) > c_reg_convex(
        Rectangle((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(TypeError):
        c_reg_convex(SpaceTimeBox(0.2, Rectangle((0.0, 0.0), (1.0, 1.0))))


def test_h2_bound_on_square():
    rep = certified_h2_bound(4.0, Rectangle((0.0, 0.0), (1.0, 1.0)))
    assert rep.constant_provenance == PROVENANCE_CONVEX
    assert rep.certified
    assert rep.bound == pytest.approx(2.052537051928505, rel=1e-15)
    assert rep.norm_label == "H2"

    zero = certified_h2_bound(0.0, Rectangle((0.0, 0.0), (1.0, 1.0)))
    assert zero.bound == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        certified_h2_bound(-1.0, Rectangle((0.0, 0.0), (1.0, 1.0)))


def test_h2_bound_provenance_paths():
    square = Rectangle((0.0, 0.0), (1.0, 1.0))
    p3 = get_problem("P3")

    user = certified_h2_bound(1.0, square, problem=p3, constant=2.5)
    assert user.constant_provenance == PROVENANCE_USER
    assert user.certified and user.bound == 2.5

    # variable-coefficient operator without a supplied constant: heuristic only
    heur = certified_h2_bound(1.0, square, problem=p3)
    assert heur.constant_provenance == PROVENANCE_HEURISTIC
    assert not heur.certified
    assert heur.constant == 1.0 and heur.bound == 1.0
    assert "without certification" in heur.note

    with pytest.raises(ValueError, match="positive"):
        certified_h2_bound(1.0, square, constant=0.0)


def test_report_validation_and_check():
    with pytest.raises(ValueError, match="provenance"):
        CertifiedReport("H2", 1.0, 1.0, "made_up")
    # bound and certified are derived, never stored
    heur = CertifiedReport("H2", 4.0, 1.5, PROVENANCE_HEURISTIC)
    assert heur.bound == 3.0 and not heur.certified

    ok = CertifiedReport("H2", 1.0, 2.0, PROVENANCE_CONVEX, measured_error=2.03)
    assert ok.certified and ok.bound == 2.0
    assert ok.bound_holds()  # 2.03 <= 2.0 * 1.02
    assert ok.check() is ok

    bad = CertifiedReport("H2", 1.0, 2.0, PROVENANCE_CONVEX, measured_error=2.05)
    assert not bad.bound_holds()
    with pytest.raises(BoundViolation, match="exceeds"):
        bad.check()

    # an uncertified report never raises, however bad the measurement
    loose = CertifiedReport("H2", 1.0, 1.0, PROVENANCE_HEURISTIC, measured_error=50.0)
    assert loose.check() is loose

    unmeasured = CertifiedReport("H2", 1.0, 2.0, PROVENANCE_CONVEX)
    assert unmeasured.bound_holds()


def test_violation_is_the_one_predicate():
    bad = CertifiedReport("X_parabolic", 1.0, 2.0, PROVENANCE_USER, measured_error=2.05)
    assert bad.violation() == ("X_parabolic error 2.050000e+00 exceeds bound "
                               "2.000000e+00 (headroom 2%)")
    with pytest.raises(BoundViolation) as err:
        bad.check()
    assert str(err.value) == bad.violation()

    assert CertifiedReport("H2", 1.0, 2.0, PROVENANCE_CONVEX,
                           measured_error=2.03).violation() == ""  # inside the headroom
    # nothing certified, nothing violated, however absurd the measurement
    absurd = CertifiedReport("H2", 1.0, 1.0, PROVENANCE_HEURISTIC, measured_error=1e300)
    assert not absurd.bound_holds() and absurd.violation() == ""
    for prov in (PROVENANCE_CONVEX, PROVENANCE_HEURISTIC):  # unmeasured
        assert CertifiedReport("H2", 1.0, 2.0, prov).violation() == ""


def test_report_text():
    rep = certified_h2_bound(0.25, Disk((0.0, 0.0), 1.0), measured_error=0.5)
    text = rep.text_block()
    assert "norm:        H2" in text
    assert f"bound:       {rep.bound!r}" in text
    assert "headroom:    0.02" in text
    assert "certified:   True" in text
    assert "holds: True" in text
    # unmeasured reports print no measurement line
    assert "measured" not in certified_h2_bound(0.25, Disk((0.0, 0.0), 1.0)).text_block()


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
    spec = build_spec(domain, hidden=(4,), seed=0)
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
    rep = parabolic_bound(0.16, constant=3.0)
    assert rep.bound == pytest.approx(1.2, rel=1e-15)
    assert rep.certified
    assert rep.constant_provenance == PROVENANCE_USER
    assert rep.norm_label == "X_parabolic"

    heur = parabolic_bound(0.16)
    assert heur.bound == pytest.approx(0.4, rel=1e-15)
    assert not heur.certified
    assert heur.constant_provenance == PROVENANCE_HEURISTIC

    with pytest.raises(ValueError, match="positive"):
        parabolic_bound(0.16, constant=-1.0)


@pytest.mark.parametrize("loss", [math.inf, math.nan])
def test_certificates_reject_non_finite_loss(loss):
    # a run that never evaluated its loss must not stamp an infinite bound
    with pytest.raises(ValueError, match="finite"):
        certified_h2_bound(loss, Rectangle((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        parabolic_bound(loss, constant=1.0)
