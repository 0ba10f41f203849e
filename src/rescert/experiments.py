"""Reproducible experiment drivers behind the command-line subcommands.

Configs are flat ``key = value`` text files where every key has a default
and unknown keys are hard errors.  Every CSV written here starts with a
comment line carrying the config hash and seed, contains no timestamps, and
formats floats with ``repr``, so reruns with the same config and seed are
bit-identical.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import certify, quadrature
from .ansatz import AnsatzSpec
from .certify import BoundViolation, CertifiedReport
from .fields import HarmonicMode
from .geometry import Disk
from .jets import coeff_layout
from .losses import build_objective, make_config
from .problems import PdeProblem, default_spec, get_problem
from .quadrature import (build_rule, boundary_misfit, grad_laplacian_error,
                         h_half_surrogate, sobolev_errors_upto, x_norm_error)
from .training import AdamSchedule, fd_check, train


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "P1"
    variant: str = "interior"
    tau: float = 100.0
    hidden: tuple = (16, 16)
    steps: int = 5000
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    quad_n: int = 24
    seeds: tuple = (0,)
    record_every: int = 100
    out_dir: str = "out"
    n_list: tuple = (2, 4, 8, 16, 32, 64)
    parabolic_constant: Optional[float] = None
    user_constant: Optional[float] = None


_INT_TUPLES = {"hidden", "seeds", "n_list"}
_OPTIONAL_FLOATS = {"parabolic_constant", "user_constant"}
_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))


def _convert(key: str, raw: str):
    try:
        if key in _INT_TUPLES:
            return tuple(int(p) for p in raw.replace(" ", "").split(",") if p)
        if key in _OPTIONAL_FLOATS:
            return None if raw.lower() in ("", "none") else float(raw)
        default = getattr(ExperimentConfig(), key)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({err})") from None


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, raw = s.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        values[key] = _convert(key, raw.strip())
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config_text(text)


def _resolve_problem(name: str) -> PdeProblem:
    try:
        return get_problem(name)
    except KeyError as err:
        raise ConfigError(str(err.args[0])) from None


def canonical_text(config: ExperimentConfig) -> str:
    def fmt(v):
        if v is None:
            return "none"
        if isinstance(v, tuple):
            return ",".join(str(p) for p in v)
        return repr(v) if isinstance(v, float) else str(v)

    return "\n".join(f"{name} = {fmt(getattr(config, name))}" for name in _FIELD_NAMES)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode()).hexdigest()[:12]


# -- output helpers ------------------------------------------------------------


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _csv_lines(config: ExperimentConfig, seed, header: str, rows,
               trailer: list[str] | None = None) -> list[str]:
    lines = [f"# config_hash={config_hash(config)} seed={seed}"]
    lines.append(header)
    lines.extend(rows)
    for extra in trailer or []:
        lines.append(f"# {extra}")
    return lines


def _fmt(*values) -> str:
    parts = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            parts.append(repr(float(v)))
        else:
            parts.append(str(v))
    return ",".join(parts)


def _single_seed(config: ExperimentConfig, command: str) -> int:
    """The seed of a command that trains one network; a list is an error."""
    if len(config.seeds) != 1:
        raise ConfigError(f"{command} runs a single seed, the config lists "
                          f"{len(config.seeds)}; choose one with --seed N")
    return config.seeds[0]


def _schedule(config: ExperimentConfig) -> AdamSchedule:
    return AdamSchedule(steps=config.steps, lr=config.lr, beta1=config.beta1,
                        beta2=config.beta2, eps=config.eps,
                        record_every=config.record_every)


# -- certified training runs ----------------------------------------------------


@dataclass
class CertifiedRun:
    seed: int
    rows: list                      # (step, loss, bound, h2, h1, l2)
    final_report: CertifiedReport
    violations: list
    csv_lines: list


def _certified_single_seed(config: ExperimentConfig, seed: int) -> CertifiedRun:
    problem = _resolve_problem(config.problem)
    if problem.kind == "heat":
        raise ConfigError("certify-run covers spatial problems; use parabolic-run")
    if problem.exact is None:
        raise ConfigError(f"problem {problem.name} has no exact solution to measure against")
    spec = default_spec(problem, hidden=config.hidden, seed=seed)
    cfg = make_config(problem, "interior", config.quad_n)
    rows = []
    violations = []

    def checkpoint(step, flat, loss):
        v = spec.with_params(flat)
        l2, h1, h2 = sobolev_errors_upto(v, problem.exact, cfg.interior, s_max=2)
        report = certify.certified_h2_bound(loss, problem.domain, problem,
                                            user_constant=config.user_constant,
                                            measured_error=h2)
        rows.append((step, loss, report.bound, h2, h1, l2))
        if report.certified and not report.bound_holds():
            violations.append((step, h2, report.bound))

    state, best = train(spec, problem, cfg, _schedule(config), on_checkpoint=checkpoint)
    final_report = certify.certified_h2_bound(
        state.loss, problem.domain, problem, user_constant=config.user_constant,
        measured_error=sobolev_errors_upto(best, problem.exact, cfg.interior, 2)[2],
    )
    formatted = [_fmt(s, l, b, h2, h1, l2) for (s, l, b, h2, h1, l2) in rows]
    lines = _csv_lines(config, seed, "step,loss,bound,h2_error,h1_error,l2_error",
                       formatted, trailer=final_report.text_block().splitlines())
    return CertifiedRun(seed, rows, final_report, violations, lines)


def run_certified(config: ExperimentConfig, out_dir=None, parallel: int = 1):
    """Train with the exact-boundary interior loss and certify every
    checkpoint.  Writes one CSV per seed plus an ensemble summary; raises
    BoundViolation (after writing) if any certified row fails its bound."""
    if parallel < 1:
        raise ConfigError(f"parallel needs at least one worker process, got {parallel}")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    seeds = list(config.seeds)
    if parallel > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            runs = list(pool.map(_certified_single_seed, [config] * len(seeds), seeds))
    else:
        runs = [_certified_single_seed(config, s) for s in seeds]

    problem = _resolve_problem(config.problem)
    for run in runs:
        _write_lines(out / f"certify_{config.problem}_seed{run.seed}.csv", run.csv_lines)

    # ensemble-relative quasi-optimality split
    best_loss = min(run.final_report.loss for run in runs)
    summary = [f"# config_hash={config_hash(config)} seeds={','.join(map(str, seeds))}"]
    for run in runs:
        summary.append(f"== seed {run.seed} ==")
        summary.append(run.final_report.text_block())
        if problem.kind == "poisson":
            cea = certify.cea_decomposition(run.final_report.loss, best_loss, problem.domain)
            summary.append(f"delta_estimate: {cea.delta_estimate!r}  ({cea.note})")
        summary.append("")
    _write_lines(out / f"certify_{config.problem}_summary.txt", summary)

    bad = [(run.seed, v) for run in runs for v in run.violations]
    if bad:
        seed, (step, h2, bound) = bad[0]
        raise BoundViolation(
            f"seed {seed} step {step}: H2 error {h2:.6e} exceeds bound {bound:.6e}"
        )
    return runs


# -- harmonic boundary-penalty failure demo --------------------------------------


@dataclass(frozen=True)
class HarmonicFamilyRecord:
    """Quadrature values and closed forms for one harmonic mode r^n cos(n theta)."""

    # failure_demo.csv column order; closed forms: residual 0, boundary pi,
    # L2 pi/(2n+2), gradient pi*n
    n: int
    interior_residual_sq: float
    boundary_norm_sq: float
    boundary_norm_sq_exact: float
    l2_norm_sq: float
    l2_norm_sq_exact: float
    grad_norm_sq: float
    grad_norm_sq_exact: float
    loss_tau: float
    loss_tau_exact: float
    h1_norm: float
    h1_norm_exact: float
    h1_ratio: float
    h1_ratio_exact: float
    h_half_surrogate: float
    h_half_surrogate_exact: float


def harmonic_failure_records(n_list, tau: float, quad_n: int):
    """Evaluate the harmonic family on the unit disk with zero boundary data.

    Every quadrature value is paired with its closed form; the angular node
    count adapts to the mode frequency (at least four nodes per period).
    """
    if not tau > 0:
        raise ConfigError(f"penalty weight tau must be positive, got {tau}")
    disk = Disk((0.0, 0.0), 1.0)
    records = []
    for n in n_list:
        n = int(n)
        if n < 1:
            raise ConfigError("harmonic mode numbers must be positive")
        nq = max(quad_n, n + 2)  # radial degree 2n+1 and angular frequency 2n covered
        interior = build_rule(disk, "interior", nq)
        boundary = build_rule(disk, "boundary", nq)
        mode = HarmonicMode(n)

        jets = mode.jets(interior.nodes, 2)
        lap = jets @ coeff_layout(2, 2).laplacian_row()
        residual_sq = quadrature.integrate_values(interior, lap**2)
        l2_sq = quadrature.integrate_values(interior, jets[:, 0] ** 2)
        grad_sq = quadrature.integrate_values(interior, jets[:, 1] ** 2 + jets[:, 2] ** 2)
        bnd_sq = boundary_misfit(mode, None, boundary) ** 2
        loss_tau = residual_sq + tau * bnd_sq
        h1 = math.sqrt(l2_sq + grad_sq)
        surrogate = h_half_surrogate(mode, None, interior)

        l2_exact = math.pi / (2.0 * n + 2.0)
        grad_exact = math.pi * n
        h1_exact = math.sqrt(l2_exact + grad_exact)
        loss_exact = tau * math.pi
        records.append(HarmonicFamilyRecord(
            n=n,
            interior_residual_sq=residual_sq,
            boundary_norm_sq=bnd_sq,
            boundary_norm_sq_exact=math.pi,
            l2_norm_sq=l2_sq,
            l2_norm_sq_exact=l2_exact,
            grad_norm_sq=grad_sq,
            grad_norm_sq_exact=grad_exact,
            loss_tau=loss_tau,
            loss_tau_exact=loss_exact,
            h1_norm=h1,
            h1_norm_exact=h1_exact,
            h1_ratio=h1 / math.sqrt(loss_tau),
            h1_ratio_exact=h1_exact / math.sqrt(loss_exact),
            h_half_surrogate=surrogate,
            h_half_surrogate_exact=math.sqrt(math.sqrt(l2_exact) * math.sqrt(l2_exact + grad_exact)),
        ))
    return records


def fit_ratio_slope(records) -> float:
    """Least-squares slope of log(h1_ratio) against log(n)."""
    x = np.log([r.n for r in records])
    y = np.log([r.h1_ratio for r in records])
    return float(np.polyfit(x, y, 1)[0])


def run_failure_demo(config: ExperimentConfig, out_dir=None):
    """Boundary-penalty failure demo on the harmonic modes of config.n_list.

    The penalty loss stays flat at tau * pi while the H1 error diverges like
    sqrt(n); the H^(1/2) surrogate stays bounded.  Writes failure_demo.csv
    and returns (records, fitted slope)."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    records = harmonic_failure_records(config.n_list, config.tau, config.quad_n)
    slope = fit_ratio_slope(records)
    header = ",".join(f.name for f in fields(HarmonicFamilyRecord))
    rows = [_fmt(*astuple(r)) for r in records]
    lines = _csv_lines(config, "-", header, rows,
                       trailer=[f"fitted_slope = {slope!r}"])
    _write_lines(out / "failure_demo.csv", lines)
    return records, slope


# -- exact constraints vs boundary penalty ----------------------------------------


def run_penalty_vs_exact(config: ExperimentConfig, out_dir=None):
    """Same problem, same optimiser: exact-boundary ansatz with the interior
    loss against an unconstrained ansatz with the tau-penalty loss."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    problem = _resolve_problem(config.problem)
    if problem.kind == "heat":
        raise ConfigError("compare-bc covers spatial problems")
    if problem.exact is None:
        raise ConfigError(f"problem {problem.name} has no exact solution to measure against")
    seed = _single_seed(config, "compare-bc")
    interior_rule = build_rule(problem.domain, "interior", config.quad_n)
    boundary_rule = build_rule(problem.domain, "boundary", config.quad_n)
    sched = _schedule(config)
    results = []

    for method in ("exact_bc", "penalty"):
        if method == "exact_bc":
            spec = default_spec(problem, hidden=config.hidden, seed=seed)
            cfg = make_config(problem, "interior", config.quad_n)
        else:
            spec = default_spec(problem, hidden=config.hidden, seed=seed,
                                mode="unconstrained")
            cfg = make_config(problem, "penalty", config.quad_n, tau=config.tau)
        state, best = train(spec, problem, cfg, sched)
        l2, h1, h2 = sobolev_errors_upto(best, problem.exact, interior_rule, s_max=2)
        misfit = boundary_misfit(best, problem.boundary, boundary_rule)
        if method == "exact_bc":
            report = certify.certified_h2_bound(state.loss, problem.domain, problem,
                                                user_constant=config.user_constant,
                                                measured_error=h2)
        else:
            report = certify.penalty_h_half_estimator(state.loss, config.tau)
            report = replace(report,
                             measured_error=h_half_surrogate(best, problem.exact,
                                                             interior_rule))
        results.append((method, state, best, (l2, h1, h2), misfit, report))

    header = ("method,final_loss,l2_error,h1_error,h2_error,boundary_misfit,"
              "certified_bound_or_estimator")
    rows = [_fmt(m, st.loss, e[0], e[1], e[2], mis, rep.bound)
            for (m, st, _, e, mis, rep) in results]
    trailer = []
    for method, _, _, _, _, rep in results:
        trailer.append(f"-- {method} --")
        trailer.extend(rep.text_block().splitlines())
    lines = _csv_lines(config, seed, header, rows, trailer=trailer)
    _write_lines(out / f"compare_bc_{config.problem}.csv", lines)
    return results


# -- parabolic run -----------------------------------------------------------------


def _parabolic_slice_errors(spec: AnsatzSpec, problem: PdeProblem, n: int):
    """Max misfit on the t=0 slice (against u0) and the lateral boundary
    (against zero data)."""
    domain = spec.domain
    srule = build_rule(domain.spatial, "interior", n)
    init_nodes = np.column_stack([np.zeros(srule.n_nodes), srule.nodes])
    init_err = float(np.max(np.abs(spec.values(init_nodes)
                                   - problem.initial.values(srule.nodes))))
    brule = build_rule(domain.spatial, "boundary", n)
    tq, _ = np.polynomial.legendre.leggauss(n)
    tq = 0.5 * domain.horizon * (tq + 1.0)
    lateral = np.column_stack([np.repeat(tq, brule.n_nodes),
                               np.tile(brule.nodes, (n, 1))])
    lat_err = float(np.max(np.abs(spec.values(lateral))))
    return init_err, lat_err


def run_parabolic(config: ExperimentConfig, out_dir=None):
    """Heat-equation run: space-time residual training with the energy-norm
    error, its ratio to sqrt(loss), and exactness of the initial and lateral
    slices at every checkpoint."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    problem = _resolve_problem(config.problem)
    if problem.kind != "heat":
        raise ConfigError("parabolic-run needs a heat problem (P4)")
    seed = _single_seed(config, "parabolic-run")
    spec = default_spec(problem, hidden=config.hidden, seed=seed)
    cfg = make_config(problem, "parabolic", config.quad_n)
    rows = []
    slice_rows = []

    def checkpoint(step, flat, loss):
        v = spec.with_params(flat)
        xerr = x_norm_error(v, problem.exact, cfg.spacetime)
        ratio = xerr / math.sqrt(loss) if loss > 0 else float("inf")
        rows.append((step, loss, xerr, ratio))
        init_err, lat_err = _parabolic_slice_errors(v, problem, config.quad_n)
        slice_rows.append((step, init_err, lat_err))

    state, best = train(spec, problem, cfg, _schedule(config), on_checkpoint=checkpoint)
    report = certify.parabolic_bound(state.loss, constant=config.parabolic_constant,
                                     measured_error=rows[-1][2])
    formatted = [_fmt(*r) for r in rows]
    trailer = report.text_block().splitlines()
    trailer.append(f"max_initial_slice_error = {max(r[1] for r in slice_rows)!r}")
    trailer.append(f"max_lateral_slice_error = {max(r[2] for r in slice_rows)!r}")
    lines = _csv_lines(config, seed, "step,loss,x_norm_error,ratio", formatted, trailer)
    _write_lines(out / f"parabolic_{problem.name}.csv", lines)
    return rows, slice_rows, report


# -- residual vs Sobolev residual training -------------------------------------------


def run_sobolev(config: ExperimentConfig, out_dir=None):
    """Train the plain residual and the gradient-augmented residual on the
    same problem and seed; track both residual norms and the H2/H3-proxy
    errors along each trajectory.  One CSV per variant."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    problem = _resolve_problem(config.problem)
    if problem.kind != "poisson":
        raise ConfigError("sobolev-run compares residual losses on poisson problems")
    seed = _single_seed(config, "sobolev-run")
    interior_cfg = make_config(problem, "interior", config.quad_n)
    sobolev_cfg = make_config(problem, "sobolev_k1", config.quad_n)
    norm_rule = interior_cfg.interior
    results = {}
    for variant, cfg in (("interior", interior_cfg), ("sobolev_k1", sobolev_cfg)):
        spec = default_spec(problem, hidden=config.hidden, seed=seed)
        value_interior = build_objective(spec, problem, interior_cfg).value
        value_sobolev = build_objective(spec, problem, sobolev_cfg).value
        rows = []

        def checkpoint(step, flat, loss, rows=rows, spec=spec,
                       vi=value_interior, vs=value_sobolev):
            v = spec.with_params(flat)
            l2_res = math.sqrt(vi(flat))
            h1_res = math.sqrt(vs(flat))
            _, _, h2 = sobolev_errors_upto(v, problem.exact, norm_rule, s_max=2)
            h3_proxy = grad_laplacian_error(v, problem.exact, norm_rule)
            rows.append((step, l2_res, h1_res, h2, h3_proxy))

        train(spec, problem, cfg, _schedule(config), on_checkpoint=checkpoint)
        lines = _csv_lines(config, seed, "step,l2_residual,h1_residual,h2_error,h3_error_proxy",
                           [_fmt(*r) for r in rows])
        _write_lines(out / f"sobolev_{config.problem}_{variant}.csv", lines)
        results[variant] = rows
    return results


# -- gradient audit -------------------------------------------------------------------


def run_fd_check(config: ExperimentConfig, out_dir=None, n_coords: int = 20):
    """Finite-difference audit of the loss gradient for the configured variant."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    problem = _resolve_problem(config.problem)
    seed = _single_seed(config, "fd-check")
    mode = {"penalty": "unconstrained"}.get(config.variant)
    try:
        spec = default_spec(problem, hidden=config.hidden, seed=seed, mode=mode)
        cfg = make_config(problem, config.variant, config.quad_n,
                          tau=config.tau if config.variant == "penalty" else None)
        report = fd_check(spec, problem, cfg, n_coords=n_coords, seed=seed)
    except ValueError as err:
        raise ConfigError(f"cannot assemble the {config.variant!r} loss for "
                          f"{problem.name}: {err}") from None
    header = "index,analytic,numeric,discrepancy,mode"
    rows = [_fmt(r.index, r.analytic, r.numeric, r.discrepancy,
                 "relative" if r.relative else "absolute") for r in report.rows]
    trailer = [f"max_relative_discrepancy = {report.max_discrepancy!r}",
               f"max_absolute_near_zero = {report.max_absolute_near_zero!r}"]
    lines = _csv_lines(config, seed, header, rows, trailer)
    _write_lines(out / f"fd_check_{config.problem}_{config.variant}.csv", lines)
    return report
