"""Experiment drivers and command-line front end: config parsing, CSV
protocol (hash line, repr floats, no timestamps), determinism across
reruns and worker counts, and the documented exit codes."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rescert import certify, cli, experiments
from rescert.certify import BoundViolation
from rescert.experiments import (ConfigError, ExperimentConfig, canonical_text,
                                 config_hash, fit_ratio_slope,
                                 harmonic_failure_records, load_config,
                                 parse_config_text, run_certified,
                                 run_failure_demo, run_fd_check,
                                 run_penalty_vs_exact)
from rescert.losses import build_objective, make_config
from rescert.problems import default_spec, get_problem
from rescert.quadrature import sobolev_errors_upto, x_norm_error
from rescert.training import AdamSchedule

TINY = ExperimentConfig(problem="P5", hidden=(4,), quad_n=6, steps=10, lr=1e-2,
                        record_every=5, seeds=(0,))


# -- config files ---------------------------------------------------------------


def test_parse_defaults_and_types():
    assert parse_config_text("") == ExperimentConfig()
    text = """
    # a comment line
    problem = P2
    tau = 2.5
    hidden = 8, 8
    seeds = 0,1,2
    steps = 120
    """
    cfg = parse_config_text(text)
    assert cfg.problem == "P2"
    assert cfg.tau == 2.5
    assert cfg.hidden == (8, 8)
    assert cfg.seeds == (0, 1, 2)
    assert cfg.steps == 120
    # no key picks a certificate's constant (each is derived), Adam's decays
    # and guard (constants of training) or the output directory (--out)
    assert len(fields(ExperimentConfig)) == 10
    with pytest.raises(ConfigError, match="unknown key 'constant'"):
        parse_config_text("constant = 3.5")


@pytest.mark.parametrize("text,fragment", [
    ("nonsense = 1", "unknown key"),
    ("steps = 10\nsteps = 20", "duplicate"),
    ("steps = fast", "bad value"),
    ("steps\n", "expected"),
])
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_config_hash_is_stable_and_sensitive():
    cfg = ExperimentConfig()
    h = config_hash(cfg)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert config_hash(ExperimentConfig()) == h
    assert config_hash(ExperimentConfig(steps=4999)) != h
    # canonical text round-trips through the parser
    assert parse_config_text(canonical_text(cfg)) == cfg


# -- certified runs ---------------------------------------------------------------


def test_run_certified_writes_protocol_csv(tmp_path):
    runs = run_certified(TINY, tmp_path)
    assert len(runs) == 1
    path = tmp_path / "certify_P5_seed0.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_hash={config_hash(TINY)} seed=0"
    assert lines[1] == "step,loss,bound,h2_error,h1_error,l2_error"
    # one data row per checkpoint (0, 5, 10) plus possibly the best step
    data = [l for l in lines[2:] if not l.startswith("#")]
    assert len(data) >= 3
    step, loss, bound, h2, h1, l2 = data[0].split(",")
    assert step == "0"
    assert float(bound) == pytest.approx(
        1.0262685259642526 * math.sqrt(float(loss)), rel=1e-12)
    assert 0 <= float(l2) <= float(h1) <= float(h2)
    # trailer carries the final certificate
    assert any("certified:   True" in l for l in lines if l.startswith("#"))
    assert (tmp_path / "certify_P5_summary.txt").exists()


def test_run_certified_is_deterministic_and_parallel_safe(tmp_path):
    # the heat problem P4 and the sobolev_k1 loss run through the same driver
    for problem, variant in (("P5", "interior"), ("P4", "interior"), ("P1", "sobolev_k1")):
        cfg = ExperimentConfig(problem=problem, variant=variant, hidden=(4,), quad_n=6,
                               steps=20, lr=1e-2, record_every=10, seeds=(0, 1))
        out = tmp_path / variant
        run_certified(cfg, out / "a")
        run_certified(cfg, out / "b")
        run_certified(cfg, out / "c", parallel=2)
        for name in (f"certify_{problem}_seed0.csv", f"certify_{problem}_seed1.csv",
                     f"certify_{problem}_summary.txt"):
            a = (out / "a" / name).read_bytes()
            assert a == (out / "b" / name).read_bytes()
            assert a == (out / "c" / name).read_bytes()


def test_certify_run_output_is_byte_identical_across_blas_threads(tmp_path):
    # byte-identical reruns hold for any BLAS thread count, not only for one;
    # P1 runs on the 576 nodes of the quad_n 24 rule, so its matmuls are
    # large enough for a threaded BLAS to split them
    src = Path(__file__).resolve().parents[1] / "src"
    texts = {"P1": "problem = P1\nhidden = 16, 16\nquad_n = 24\nsteps = 60\n"
                   "record_every = 20\nseeds = 0, 1\n",
             "P4": "problem = P4\nhidden = 16, 16\nquad_n = 6\nsteps = 30\n"
                   "record_every = 10\n"}
    for problem, text in texts.items():
        (tmp_path / f"{problem}.cfg").write_text(text)
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"{problem}_threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
            done = subprocess.run([sys.executable, "-m", "rescert", "certify-run", "--config",
                                   str(tmp_path / f"{problem}.cfg"), "--out", str(out)],
                                  env=env, capture_output=True, timeout=300)
            assert done.returncode == 0, done.stderr
            files = sorted(f for f in out.rglob("*") if f.is_file())
            trees.append((done.stdout, {str(f.relative_to(out)): f.read_bytes()
                                        for f in files}))
        assert len(trees[0][1]) == (3 if problem == "P1" else 2)
        assert trees[0] == trees[1], f"{problem}'s outputs depend on the BLAS thread count"


def test_run_certified_starts_no_more_workers_than_seeds(tmp_path, monkeypatch):
    # a fork pool starts all max_workers at its first submit, so --parallel 64
    # on two seeds used to fork 64 processes; the fake pool maps serially
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = ExperimentConfig(problem="P5", hidden=(4,), quad_n=4, steps=2, lr=1e-2,
                           record_every=1, seeds=(0, 1))
    run_certified(cfg, tmp_path / "a", parallel=64)
    run_certified(replace(cfg, seeds=(0, 1, 2)), tmp_path / "b", parallel=2)
    run_certified(replace(cfg, seeds=(0,)), tmp_path / "c", parallel=64)  # no pool
    assert asked == [2, 2]


def test_spatial_drivers_refuse_heat_problem(tmp_path):
    # certify-run certifies every kind on the interior loss; compare-bc and
    # the sobolev_k1 loss stay spatial (sobolev_k1: poisson only)
    p4 = ExperimentConfig(problem="P4", hidden=(4,), quad_n=4, steps=2)
    with pytest.raises(ConfigError, match="compare-bc needs .* P4 is heat"):
        run_penalty_vs_exact(p4, tmp_path)
    for problem, kind in (("P4", "heat"), ("P3", "elliptic_divA")):
        with pytest.raises(ConfigError, match=f"'sobolev_k1' on {problem}, which is {kind}"):
            run_certified(ExperimentConfig(problem=problem, variant="sobolev_k1",
                                           hidden=(4,), quad_n=4, steps=2), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_run_certified_bound_violation_still_writes(tmp_path, monkeypatch):
    # an absurdly small derived constant forces a certified bound under the error
    monkeypatch.setattr(certify, "c_reg_convex", lambda domain: 1e-9)
    with pytest.raises(BoundViolation):
        run_certified(TINY, tmp_path)
    assert (tmp_path / "certify_P5_seed0.csv").exists()


def test_run_certified_flags_error_just_past_headroom(tmp_path, monkeypatch):
    # 1.0202x the bound is outside bound_holds' 2 % headroom, so the run
    # must flag it with CertifiedReport.check's own message
    real = certify.certified_h2_bound
    reports = []

    def near_miss(loss, domain, problem, **kwargs):
        bound = real(loss, domain, problem, **dict(kwargs, measured_error=None)).bound
        reports.append(real(loss, domain, problem,
                            **dict(kwargs, measured_error=1.0202 * bound)))
        return reports[-1]

    monkeypatch.setattr(certify, "certified_h2_bound", near_miss)
    with pytest.raises(BoundViolation) as raised:
        run_certified(TINY, tmp_path)
    with pytest.raises(BoundViolation) as checked:
        reports[0].check()
    assert str(raised.value) == f"seed 0 step 0: {checked.value}"
    assert "(headroom 2%)" in str(raised.value)


# -- harmonic failure family -------------------------------------------------------


def test_harmonic_records_match_closed_forms():
    records = harmonic_failure_records((2, 4, 8), tau=1.0, quad_n=8)
    for r in records:
        assert r.interior_residual_sq < 1e-20  # the family is harmonic
        assert r.boundary_norm_sq == pytest.approx(math.pi, rel=1e-12)
        assert r.l2_norm_sq == pytest.approx(math.pi / (2 * r.n + 2), rel=1e-12)
        assert r.grad_norm_sq == pytest.approx(math.pi * r.n, rel=1e-12)
        assert r.loss_tau == pytest.approx(math.pi, rel=1e-12)
        assert r.h1_ratio == pytest.approx(r.h1_ratio_exact, rel=1e-10)
    ratios = [r.h1_ratio for r in records]
    assert ratios == sorted(ratios)  # grows with the mode number
    slope = fit_ratio_slope(records)
    assert 0.3 < slope < 0.7


def test_harmonic_surrogate_matches_its_closed_form():
    # mode 16 on 18 nodes per direction: sqrt(||u||_L2 ||u||_H1) read off the
    # order-2 jets, with ||u||^2 = pi/34 and ||grad u||^2 = 16 pi
    (r,) = harmonic_failure_records((16,), tau=1.0, quad_n=18)
    l2sq = math.pi / 34.0
    assert r.h_half_surrogate_exact == pytest.approx((l2sq * (l2sq + 16.0 * math.pi)) ** 0.25,
                                                     rel=1e-15)
    assert r.h_half_surrogate == pytest.approx(r.h_half_surrogate_exact, rel=1e-9)
    assert math.sqrt(r.l2_norm_sq) <= r.h_half_surrogate <= r.h1_norm


def test_harmonic_records_validation():
    with pytest.raises(ConfigError, match="tau"):
        harmonic_failure_records((2,), tau=0.0, quad_n=8)
    with pytest.raises(ConfigError, match="positive"):
        harmonic_failure_records((0,), tau=1.0, quad_n=8)


def test_run_failure_demo_csv(tmp_path):
    config = ExperimentConfig(n_list=(2, 4, 8), tau=1.0, quad_n=8)
    records, slope = run_failure_demo(config, tmp_path)
    lines = (tmp_path / "failure_demo.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and lines[0].endswith("seed=-")
    header = lines[1].split(",")
    assert header[0] == "n" and len(header) == 16
    assert len([l for l in lines[2:] if not l.startswith("#")]) == 3
    assert lines[-1] == f"# fitted_slope = {slope!r}"
    # rerun is bit-identical
    before = (tmp_path / "failure_demo.csv").read_bytes()
    run_failure_demo(config, tmp_path)
    assert (tmp_path / "failure_demo.csv").read_bytes() == before


# -- heat certificates, comparison and sobolev drivers -------------------------------


@pytest.fixture(scope="module")
def compare_bc(tmp_path_factory):
    """One compare-bc run on P5 with tau = 100: (results, CSV lines)."""
    out = tmp_path_factory.mktemp("compare_bc")
    cfg = ExperimentConfig(problem="P5", hidden=(4,), quad_n=6, steps=60, lr=1e-2,
                           record_every=20, seeds=(0,), tau=100.0)
    return run_penalty_vs_exact(cfg, out), (out / "compare_bc_P5.csv").read_text().splitlines()


def test_run_penalty_vs_exact(compare_bc):
    (exact, penalty), lines = compare_bc
    m_exact, _, _, _, mis_exact, bound, rep = exact
    m_pen, st_pen, _, _, mis_pen, value, rep_pen = penalty
    assert (m_exact, m_pen) == ("exact_bc", "penalty")
    assert mis_exact <= 1e-12          # boundary conditions hold by construction
    assert mis_pen > 1e-6              # penalty training leaves a boundary gap
    assert rep.certified and bound == rep.bound
    # a penalty loss certifies nothing: no report, only the indicator
    # (1 + tau^(-1/2)) sqrt(loss) with tau = 100
    assert rep_pen is None
    assert value == (1.0 + 100.0 ** -0.5) * math.sqrt(st_pen.loss)

    assert lines[1] == ("method,final_loss,l2_error,h1_error,h2_error,"
                        "boundary_misfit,certified_bound_or_estimator")
    data = [l for l in lines[2:] if not l.startswith("#")]
    assert data == [",".join([m, *map(repr, (st.loss, *errors, misfit, v))])
                    for m, st, _, errors, misfit, v, _ in (exact, penalty)]


def test_compare_bc_penalty_trailer_is_not_a_certificate(compare_bc):
    (exact, penalty), lines = compare_bc
    trailer = [l[2:] for l in lines if l.startswith("# ")]
    start, split = trailer.index("-- exact_bc --"), trailer.index("-- penalty --")
    assert trailer[start + 1:split] == exact[6].text_block().splitlines()
    block = trailer[split + 1:]
    assert block[0].startswith("certificate: none")
    assert block[1] == f"loss:        {penalty[1].loss!r}"
    assert block[2].startswith(f"indicator:   {penalty[5]!r}  ")
    assert block[3].startswith("surrogate:   ")
    for word in ("bound:", "headroom:", "holds:", "certified:"):
        assert not any(word in l for l in block), word


@pytest.mark.parametrize("problem", ["P1", "P2", "P5"])
def test_compare_bc_surrogate_is_the_spec_route_bitwise(tmp_path, problem):
    # each method's errors are those of its best network on the shared
    # interior rule, without another pass, and the surrogate is sqrt(l2 * h1)
    config = ExperimentConfig(problem=problem, hidden=(6,), quad_n=6, steps=8, lr=1e-2,
                              tau=10.0)
    results = run_penalty_vs_exact(config, tmp_path)
    p = get_problem(problem)
    rule = make_config(p, "interior", config.quad_n).interior
    X = rule.nodes
    for _, _, best, errors, _, _, _ in results:
        assert errors == sobolev_errors_upto(best.jets(X, 2) - p.exact.jets(X, 2), rule)
    trailer = (tmp_path / f"compare_bc_{problem}.csv").read_text().splitlines()
    (l2, h1, _) = results[1][3]
    assert f"# surrogate:   {math.sqrt(l2 * h1)!r}  (H^(1/2)-scale error surrogate)" in trailer


def test_certify_run_certifies_heat_with_the_derived_constant(tmp_path, monkeypatch):
    cfg = ExperimentConfig(problem="P4", hidden=(4,), quad_n=4, steps=20, lr=1e-2,
                           record_every=10, seeds=(0,))
    (run,) = run_certified(cfg, tmp_path)
    report = run.final_report
    assert [r[0] for r in run.rows] == [0, 10, 20]
    assert report.norm_label == certify.NORM_X_PARABOLIC
    assert report.certified and report.constant_provenance == "convex_formula"
    assert report.constant == certify.c_heat(get_problem("P4").domain)
    for step, loss, bound, xerr in run.rows:
        assert bound == report.constant * math.sqrt(loss) and xerr > 0
    lines = (tmp_path / "certify_P4_seed0.csv").read_text().splitlines()
    assert lines[1] == "step,loss,bound,x_norm_error"
    assert lines[-7:] == [f"# {l}" for l in report.text_block().splitlines()]

    # an absurdly small derived constant: the bound fails after writing
    monkeypatch.setattr(certify, "c_heat", lambda box: 1e-3)
    with pytest.raises(BoundViolation, match="seed 0 step 0: X_parabolic error"):
        run_certified(ExperimentConfig(problem="P4", hidden=(4,), quad_n=4, steps=0,
                                       seeds=(0,)), tmp_path / "bad")
    assert "(holds: False)" in (tmp_path / "bad" / "certify_P4_seed0.csv").read_text()


def test_certify_run_k1_tracks_both_residuals(tmp_path):
    cfg = ExperimentConfig(problem="P1", hidden=(4,), quad_n=5, steps=30, lr=1e-2,
                           record_every=10, seeds=(0,))
    csvs = {}
    for variant in ("interior", "sobolev_k1"):
        (run,) = run_certified(replace(cfg, variant=variant), tmp_path / variant)
        lines = (tmp_path / variant / "certify_P1_seed0.csv").read_text().splitlines()
        assert lines[-7:] == [f"# {l}" for l in run.final_report.text_block().splitlines()]
        csvs[variant] = [l for l in lines[1:] if not l.startswith("#")]
    interior, k1 = csvs["interior"], csvs["sobolev_k1"]
    assert interior[0] == "step,loss,bound,h2_error,h1_error,l2_error"
    assert k1[0] == interior[0] + ",training_loss"
    assert [r.split(",")[0] for r in k1[1:]] == ["0", "10", "20", "30"]
    # both runs start from the same parameters, so their step-0 certificates agree
    assert k1[1].startswith(interior[1] + ",")


def test_run_fd_check_penalty_uses_unconstrained_ansatz(tmp_path):
    cfg = ExperimentConfig(problem="P5", variant="penalty", hidden=(4,),
                           quad_n=5, seeds=(0,), tau=10.0)
    report = run_fd_check(cfg, tmp_path)
    assert report.passed()
    lines = (tmp_path / "fd_check_P5_penalty.csv").read_text().splitlines()
    assert lines[1] == "kind,index,analytic,numeric,discrepancy,mode,rounding_floor"
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    # hidden (4,) has 17 parameters, fewer than the 20 coordinates fd_check probes
    assert [r[0] for r in rows] == (["coordinate"] * 17 + ["random"] * 8
                                    + ["weights", "bias"] * 2)
    for r in rows:  # every number is written as a plain float repr
        assert [float(x) for x in r[2:5] + r[6:]] and r[5] in ("relative", "absolute")
    assert any(l.startswith("# max_relative_discrepancy") for l in lines)


def test_every_driver_trains_through_the_module_name(tmp_path, monkeypatch):
    # benchmarks/harness.py times checkpoints by wrapping experiments.train
    # and its tracer reads the schedule as the fourth positional argument or
    # the keyword schedule; only the keyword fits train(objective, ...)
    calls = []  # per train() call: the steps its checkpoint callback saw
    real = experiments.train

    def counting_train(*args, **kwargs):
        assert len(args) == 1 and isinstance(kwargs["schedule"], AdamSchedule)
        seen = []
        calls.append(seen)
        callback = kwargs.get("on_checkpoint")
        if callback is not None:
            def counted(step, flat, loss):
                callback(step, flat, loss)
                seen.append(step)
            kwargs["on_checkpoint"] = counted
        return real(*args, **kwargs)

    def steps_of(rows):
        return [r[0] for r in rows]

    monkeypatch.setattr(experiments, "train", counting_train)
    tiny = dict(hidden=(4,), quad_n=4, steps=4, lr=1e-2, record_every=2)
    runs = run_certified(ExperimentConfig(problem="P5", seeds=(0, 1), **tiny), tmp_path)
    assert calls == [steps_of(run.rows) for run in runs] == [[0, 2, 4]] * 2
    calls.clear()
    run_penalty_vs_exact(ExperimentConfig(problem="P5", **tiny), tmp_path)
    assert calls == [[], []]  # two networks, no rows recorded
    calls.clear()
    (run,) = run_certified(ExperimentConfig(problem="P4", **tiny), tmp_path)
    assert calls == [steps_of(run.rows)] == [[0, 2, 4]]
    calls.clear()
    (run,) = run_certified(ExperimentConfig(problem="P1", variant="sobolev_k1", **tiny),
                           tmp_path)
    assert calls == [steps_of(run.rows)] == [[0, 2, 4]]


def _capture_train(monkeypatch):
    """Wrap experiments.train; returns the per-call records of the
    checkpoint parameters and the final state."""
    runs = []
    real = experiments.train

    def train(*args, **kwargs):
        flats = []
        callback = kwargs["on_checkpoint"]

        def on_checkpoint(step, flat, loss):
            flats.append(flat.copy())
            callback(step, flat, loss)

        kwargs["on_checkpoint"] = on_checkpoint
        state = real(*args, **kwargs)
        runs.append((flats, state))
        return state

    monkeypatch.setattr(experiments, "train", train)
    return runs


@pytest.mark.parametrize("record_every", [1, 6])
def test_certify_run_checkpoints_reuse_the_step_and_the_run_constants(
        tmp_path, monkeypatch, record_every):
    """S steps and K checkpoints: S + 1 forward passes on the training nodes
    (one per loss evaluation), at most one more for the best network, and a
    distance factor and u* jets count that does not depend on K."""
    from rescert import geometry, network

    problem = get_problem("P2")
    counts = dict.fromkeys(("forward", "distance", "exact"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(network, "forward_jets", counting("forward", network.forward_jets))
    monkeypatch.setattr(geometry, "distance_jets",
                        counting("distance", geometry.distance_jets))
    monkeypatch.setattr(problem.exact, "jets", counting("exact", problem.exact.jets))
    steps = 12
    (run,) = run_certified(ExperimentConfig(problem="P2", hidden=(4,), quad_n=4,
                                            steps=steps, lr=1e-2,
                                            record_every=record_every), tmp_path)
    assert len(run.rows) == steps // record_every + 1
    assert steps + 1 <= counts["forward"] <= steps + 2
    assert (counts["distance"], counts["exact"]) == (1, 1)


@pytest.mark.parametrize("problem", ["P1", "P2", "P5"])
def test_certify_run_norms_equal_the_spec_route_bitwise(tmp_path, monkeypatch, problem):
    config = ExperimentConfig(problem=problem, hidden=(6,), quad_n=6, steps=8,
                              lr=1e-2, record_every=3, seeds=(2,))
    runs = _capture_train(monkeypatch)
    (run,) = run_certified(config, tmp_path)
    (flats, state), = runs
    p = get_problem(problem)
    spec = default_spec(p, hidden=config.hidden, seed=2)
    rule = make_config(p, "interior", config.quad_n).interior

    def old_route(flat):
        X = rule.nodes
        return sobolev_errors_upto(spec.with_params(flat).jets(X, 2) - p.exact.jets(X, 2), rule)

    assert len(flats) == len(run.rows)
    for flat, (_, _, _, h2, h1, l2) in zip(flats, run.rows):
        assert (l2, h1, h2) == old_route(flat)
    assert run.final_report.measured_error == old_route(state.params)[2]


def test_certify_run_heat_norms_equal_the_spec_route_bitwise(tmp_path, monkeypatch):
    config = ExperimentConfig(problem="P4", hidden=(4,), quad_n=4, steps=6,
                              lr=1e-2, record_every=2)
    runs = _capture_train(monkeypatch)
    (run,) = run_certified(config, tmp_path)
    rows, report = run.rows, run.final_report
    (flats, state), = runs
    p4 = get_problem("P4")
    spec = default_spec(p4, hidden=config.hidden, seed=0)
    rule = make_config(p4, "interior", config.quad_n).interior

    def old_route(flat):
        X = rule.nodes
        return x_norm_error(spec.with_params(flat).jets(X, 2) - p4.exact.jets(X, 2), rule)

    assert [r[3] for r in rows] == [old_route(flat) for flat in flats]
    assert report.measured_error == old_route(state.params)


def test_certify_run_k1_rows_equal_the_spec_route_bitwise(tmp_path, monkeypatch):
    """A sobolev_k1 run certifies c_reg sqrt(interior loss) of the network it
    trains on the k1 loss; every number matches separate objectives and the
    spec's own jets bit for bit."""
    config = ExperimentConfig(problem="P1", variant="sobolev_k1", hidden=(4,), quad_n=5,
                              steps=6, lr=1e-2, record_every=2)
    runs = _capture_train(monkeypatch)
    (run,) = run_certified(config, tmp_path)
    (flats, state), = runs
    p1 = get_problem("P1")
    spec = default_spec(p1, hidden=config.hidden, seed=0)
    interior, k1 = (build_objective(spec, p1, make_config(p1, v, config.quad_n))
                    for v in ("interior", "sobolev_k1"))
    rule = make_config(p1, "interior", config.quad_n).interior
    c_reg = certify.c_reg_convex(p1.domain)

    def old_route(flat):
        X = rule.nodes
        l2, h1, h2 = sobolev_errors_upto(spec.with_params(flat).jets(X, 2) - p1.exact.jets(X, 2),
                                         rule)
        return interior.value(flat), h2, h1, l2, k1.value(flat)

    assert [r[0] for r in run.rows] == [0, 2, 4, 6] and len(flats) == 4
    for flat, (_, loss, bound, *rest) in zip(flats, run.rows):
        assert (loss, *rest) == old_route(flat)
        assert bound == c_reg * math.sqrt(loss)
        assert rest[-1] >= loss
    report = run.final_report
    assert state.loss == k1.value(state.params)  # the best network by its training loss
    assert (report.loss, report.measured_error) == old_route(state.params)[:2]
    assert report.bound == c_reg * math.sqrt(report.loss) and report.certified
    # the first six columns at step 0 are the interior run's
    (interior_run,) = run_certified(replace(config, variant="interior"), tmp_path / "i")
    assert run.rows[0][:6] == interior_run.rows[0]


def _count_during_checkpoints(monkeypatch, targets):
    """Wrap experiments.train and each (owner, name) target; returns the
    per-checkpoint call counts of the targets, keyed by name."""
    per_checkpoint, live = [], []
    real = experiments.train

    def train(*args, **kwargs):
        callback = kwargs["on_checkpoint"]

        def on_checkpoint(step, flat, loss):
            live.append(dict.fromkeys((name for _, name in targets), 0))
            callback(step, flat, loss)
            per_checkpoint.append(live.pop())

        kwargs["on_checkpoint"] = on_checkpoint
        return real(*args, **kwargs)

    for owner, name in targets:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            if live:
                live[-1][_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(experiments, "train", train)
    return per_checkpoint


def test_certify_run_k1_checkpoint_makes_one_forward_pass(tmp_path, monkeypatch):
    # the interior loss needs one pass on the training rule, whose jets the
    # norms then reuse; the rule's composition and u*'s jets are built once
    from rescert import network
    from rescert.ansatz import AnsatzSpec

    p1 = get_problem("P1")
    counts = _count_during_checkpoints(monkeypatch, [
        (network, "forward_jets"), (AnsatzSpec, "composition"), (p1.exact, "jets")])
    built = []
    real_build = experiments.build_objective
    monkeypatch.setattr(experiments, "build_objective",
                        lambda *a: built.append(a) or real_build(*a))
    (run,) = run_certified(ExperimentConfig(problem="P1", variant="sobolev_k1", hidden=(4,),
                                            quad_n=4, steps=6, lr=1e-2, record_every=2),
                           tmp_path)
    assert len(counts) == len(run.rows) == 4
    assert counts == [{"forward_jets": 1, "composition": 0, "jets": 0}] * 4
    assert [cfg.variant for _, _, cfg in built] == ["sobolev_k1", "interior"]


# -- command line ------------------------------------------------------------------


def write_cfg(tmp_path, **kv):
    body = "\n".join(f"{k} = {v}" for k, v in kv.items())
    path = tmp_path / "run.cfg"
    path.write_text(body + "\n")
    return str(path)


def test_cli_certify_run_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=6, steps=10,
                    lr=0.01, record_every=5)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed 0:" in out and "certified True" in out
    assert (tmp_path / "out" / "certify_P5_seed0.csv").exists()


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=6, steps=5,
                    lr=0.01, record_every=5)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "3"])
    assert code == 0
    assert "seed 3:" in capsys.readouterr().out
    assert (tmp_path / "out" / "certify_P5_seed3.csv").exists()


def test_cli_failure_demo_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n_list="2,4", tau=1.0, quad_n=8)
    code = cli.main(["failure-demo", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "fitted slope" in capsys.readouterr().out
    assert (tmp_path / "out" / "failure_demo.csv").exists()


def test_cli_failure_demo_refuses_seed(tmp_path, capsys):
    # failure-demo reads no seed: --seed 3 used to exit 0 and write seed=- in its CSV
    cfg = write_cfg(tmp_path, n_list="2,4", tau=1.0, quad_n=8)
    with pytest.raises(SystemExit) as exc:
        cli.main(["failure-demo", "--config", cfg, "--seed", "3",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 4
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_fd_check_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, problem="P1", hidden="4", quad_n=5)
    code = cli.main(["fd-check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    # the default variant covers the heat problem too (it used to exit 4)
    cfg = write_cfg(tmp_path, problem="P4", hidden="4", quad_n=4)
    code = cli.main(["fd-check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "out" / "fd_check_P4_interior.csv").exists()


@pytest.mark.parametrize("problem,variant", [
    ("P4", "penalty"), ("P1", "parabolic"), ("P3", "sobolev_k1"), ("P1", "bogus")])
def test_cli_fd_check_mismatch_is_config_error(tmp_path, capsys, problem, variant):
    cfg = write_cfg(tmp_path, problem=problem, variant=variant, hidden="4", quad_n=4)
    code = cli.main(["fd-check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and variant in err and problem in err


def test_cli_single_seed_commands_reject_seed_lists(tmp_path, capsys):
    # compare-bc used to run the first seed and drop the rest without a word
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=4, steps=2, seeds="0,1")
    code = cli.main(["compare-bc", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert "compare-bc runs a single seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # --seed N still picks one
    code = cli.main(["compare-bc", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert "seed=1" in (tmp_path / "out" / "compare_bc_P5.csv").read_text()


def test_cli_parallel_only_where_it_acts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, problem="P1", hidden="4", quad_n=4, steps=2)
    with pytest.raises(SystemExit) as exc:  # fd-check runs one seed in-process
        cli.main(["fd-check", "--config", cfg, "--parallel", "2"])
    assert exc.value.code == 4
    code = cli.main(["certify-run", "--config", cfg, "--parallel", "0",
                     "--out", str(tmp_path / "out")])
    assert code == 4
    assert "parallel" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["certify-run", "--config",
                     str(tmp_path / "missing.cfg")]) == 4
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 1\n")
    assert cli.main(["certify-run", "--config", str(bad)]) == 4
    assert "config error" in capsys.readouterr().err
    # unknown problem name surfaces as a config error, not a KeyError
    nope = write_cfg(tmp_path, problem="P9", hidden="4", quad_n=5, steps=5)
    assert cli.main(["certify-run", "--config", nope,
                     "--out", str(tmp_path / "o9")]) == 4
    assert "P9" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # a UTF-16 file used to end in a UnicodeDecodeError traceback and exit 1
    bad = tmp_path / "utf16.cfg"
    bad.write_bytes(b"\xff\xfe" + "problem = P1\n".encode("utf-16-le"))
    code = cli.main(["certify-run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"config error: cannot read config {bad}" in err
    assert not (tmp_path / "out").exists()


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 4


@pytest.mark.parametrize("command,kv,constant", [
    ("certify-run", dict(problem="P3", hidden="16,16", quad_n=24, steps=300,
                         record_every=100), "1.3383452631495205"),
    ("certify-run", dict(problem="P4", hidden="16,16", quad_n=12, steps=300,
                         record_every=100), "1.4329086109675102"),
])
def test_cli_certifies_divergence_form_and_heat(tmp_path, capsys, command, kv, constant):
    # P3 and P4 certify with their derived constants, as P1, P2 and P5 do
    cfg = write_cfg(tmp_path, lr=0.01, **kv)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "certified True" in capsys.readouterr().out
    text = (tmp_path / "out" / f"certify_{kv['problem']}_seed0.csv").read_text()
    assert f"# constant:    {constant}  (convex_formula)" in text
    assert "# certified:   True" in text and "(holds: True)" in text
    assert "note:" not in text


def test_cli_bound_violation_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(certify, "c_reg_convex", lambda domain: 1e-9)
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=6, steps=10,
                    lr=0.01, record_every=5)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bound violation" in capsys.readouterr().err
    assert (tmp_path / "out" / "certify_P5_seed0.csv").exists()


@pytest.mark.parametrize("command,kv,csv", [
    ("compare-bc", dict(problem="P5", steps=10), "compare_bc_P5.csv"),
    ("certify-run", dict(problem="P4", steps=10, record_every=5), "certify_P4_seed0.csv"),
])
def test_cli_every_certifying_command_checks_its_bound(tmp_path, capsys, monkeypatch,
                                                       command, kv, csv):
    # compare-bc and the former heat command used to print "certified: True"
    # beside "holds: False" and exit 0; an absurdly small derived constant
    # forces the violation
    name = "c_heat" if kv["problem"] == "P4" else "c_reg_convex"
    monkeypatch.setattr(certify, name, lambda domain: 1e-3)
    cfg = write_cfg(tmp_path, hidden="4", quad_n=4, lr=0.01, **kv)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bound violation" in capsys.readouterr().err
    assert "(holds: False)" in (tmp_path / "out" / csv).read_text()


def test_cli_heat_constant_ten_percent_low_is_a_violation(tmp_path, capsys, monkeypatch):
    # c_heat is nearly attained: at step 300 of this run the X error is
    # 1.3257 sqrt(loss), above 0.9 c_heat (1 + headroom) = 1.3154, so a
    # constant 10 % below the derived one must fail its bound
    real = certify.c_heat
    monkeypatch.setattr(certify, "c_heat", lambda box: 0.9 * real(box))
    cfg = write_cfg(tmp_path, problem="P4", hidden="16,16", quad_n=12, lr=0.01,
                    steps=300, record_every=100)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bound violation: seed 0 step 300: X_parabolic error" in capsys.readouterr().err


@pytest.mark.parametrize("kv,fragment", [
    (dict(steps=-5), "steps"),
    (dict(seeds=""), "seeds"),
    (dict(quad_n=1), "quad_n"),
    (dict(record_every=0), "record_every"),
    (dict(hidden="4,-3"), "hidden = (4, -3) has a width below 1"),
    (dict(n_list=""), "n_list = () is empty"),
    (dict(lr=-1), "lr = -1.0 is not positive"),
    (dict(lr=0), "lr = 0.0 is not positive"),
    (dict(beta1=1), "unknown key 'beta1'"),
    (dict(beta2=-0.5), "unknown key 'beta2'"),
    (dict(seeds="0,0"), "seeds = (0, 0) repeats a seed"),
    (dict(eps=-0.001), "unknown key 'eps'"),
    (dict(out_dir="elsewhere"), "unknown key 'out_dir'"),
    (dict(tau="inf"), "tau = inf is not positive and finite"),
    (dict(lr="inf"), "lr = inf is not positive and finite"),
    (dict(seeds="-1"), "seeds = (-1,) has a negative seed"),
])
def test_cli_out_of_range_config_is_config_error(tmp_path, capsys, kv, fragment):
    # each value goes to the first command that reads its key (certify-run
    # for a key no command reads), with that command's share of the rest
    command = next((c for c, keys in experiments.COMMAND_KEYS.items() if set(kv) <= set(keys)),
                   "certify-run")
    base = {k: v for k, v in dict(problem="P5", hidden="4", quad_n=4, steps=2).items()
            if k in experiments.COMMAND_KEYS[command]}
    cfg = write_cfg(tmp_path, **{**base, **kv})
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ["16 16", "16,,16", "16,"])
@pytest.mark.parametrize("key, command", [("hidden", "certify-run"), ("seeds", "certify-run"),
                                          ("n_list", "failure-demo")])
def test_cli_int_tuple_entry_that_is_not_one_integer_is_config_error(tmp_path, capsys,
                                                                      monkeypatch, raw, key,
                                                                      command):
    # spaces were stripped before the split: "16 16" parsed as (1616,), and
    # "16,,16" and "16," dropped their empty entries
    monkeypatch.setattr(experiments, "train", lambda *a, **k: pytest.fail("trained"))
    base = {k: v for k, v in dict(problem="P5", hidden="4", quad_n=4, steps=0).items()
            if k in experiments.COMMAND_KEYS[command]}
    cfg = write_cfg(tmp_path, **{**base, key: raw})
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert f"config error: bad value for '{key}': '{raw}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_negative_seed_option_is_config_error(tmp_path, capsys):
    # --seed -5 used to die in network.xavier with numpy's traceback and exit 1
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=4, steps=2)
    code = cli.main(["certify-run", "--config", cfg, "--seed", "-5",
                     "--out", str(tmp_path / "out")])
    assert code == 4
    assert "seeds = (-5,) has a negative seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_out_that_is_a_file_fails_before_training(tmp_path, capsys, monkeypatch):
    # it used to train the whole run, then die with a FileExistsError traceback
    monkeypatch.setattr(experiments, "train", lambda *a, **k: pytest.fail("trained"))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=4, steps=2)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(afile)])
    assert code == 4
    assert f"cannot create --out {afile}: {afile} is not a directory" in \
        capsys.readouterr().err
    assert afile.read_text() == "keep\n"


def test_cli_out_below_a_file_fails_before_training(tmp_path, capsys, monkeypatch):
    # it used to train the whole run, then die with a NotADirectoryError traceback
    monkeypatch.setattr(experiments, "run_certified",
                        lambda *a, **k: pytest.fail("run_certified was called"))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=4, steps=2)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(afile / "sub")])
    assert code == 4
    assert f"cannot create --out {afile / 'sub'}: {afile} is not a directory" in \
        capsys.readouterr().err
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("problem,variant,kind", [
    ("P1", "penalty", "poisson"), ("P1", "bogus", "poisson"),
    ("P3", "sobolev_k1", "elliptic_divA"), ("P4", "sobolev_k1", "heat")])
def test_cli_certify_run_refuses_a_variant_it_cannot_train(tmp_path, capsys, problem,
                                                            variant, kind):
    cfg = write_cfg(tmp_path, problem=problem, variant=variant, hidden="4", quad_n=4,
                    steps=2)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"cannot train variant {variant!r} on {problem}, which is {kind}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,kv,fragment", [
    ("certify-run", dict(problem="P5", constant=-1), "unknown key 'constant'"),
    ("compare-bc", dict(problem="P5", tau=0), "tau = 0.0 is not positive"),
    ("certify-run", dict(problem="P4", constant=3.0), "unknown key 'constant'"),
], ids=["certify-run", "compare-bc", "certify-run-heat"])
def test_cli_nonpositive_constant_or_tau_is_config_error(tmp_path, capsys, command, kv,
                                                         fragment):
    # the constant key is gone (every constant is derived), so any value of
    # it is refused as an unknown key
    cfg = write_cfg(tmp_path, hidden="4", quad_n=4, steps=2, **kv)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,kv,key", [
    ("certify-run", dict(problem="P1", variant="sobolev_k1", tau=3.0), "tau"),
    ("certify-run", dict(problem="P1", n_list="2,4"), "n_list"),
    ("compare-bc", dict(problem="P5", record_every=5), "record_every"),
    ("fd-check", dict(problem="P1", steps=5), "steps"),
    ("failure-demo", dict(problem="P1", hidden="4", steps=5), "problem"),
])
def test_cli_rejects_keys_its_command_never_reads(tmp_path, capsys, command, kv, key):
    # certify-run reads variant but no penalty weight; failure-demo used to
    # ignore problem, hidden and steps
    cfg = write_cfg(tmp_path, quad_n=4, **kv)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert f"{command} does not read key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_key_table_names_every_command_and_only_config_keys():
    assert set(experiments.COMMAND_KEYS) == {name for name, _ in cli._COMMANDS}
    assert sum(len(keys) for keys in experiments.COMMAND_KEYS.values()) == 24
    for keys in experiments.COMMAND_KEYS.values():
        assert set(keys) <= {f.name for f in fields(ExperimentConfig)}


def test_readme_names_every_command_and_its_keys():
    # the README's command block and key table are the CLI's own tables
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    assert [line.split()[1] for line in block.strip().splitlines()] == \
        [name for name, _ in cli._COMMANDS]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            commands, keys = line.strip("|").split("|")
            for command in re.findall(r"`([^`]+)`", commands):
                table[command] = tuple(re.findall(r"`([^`]+)`", keys))
    assert table == experiments.COMMAND_KEYS


@pytest.mark.parametrize("n_list", ["4,4", "8"])
def test_cli_failure_demo_needs_two_distinct_modes(tmp_path, capsys, n_list):
    # a slope needs two distinct modes: "4,4" used to print a fitted slope
    # of -0.576 with a RankWarning and exit 0
    cfg = write_cfg(tmp_path, n_list=n_list, tau=1.0, quad_n=8)
    code = cli.main(["failure-demo", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 4
    assert "has fewer than two distinct modes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_divergence_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, problem="P5", hidden="4", quad_n=6, steps=50,
                    lr=1e4, record_every=10)
    code = cli.main(["certify-run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
