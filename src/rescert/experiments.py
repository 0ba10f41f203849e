"""Reproducible experiment drivers behind the command-line subcommands.

Configs are flat ``key = value`` text files; every key has a default, and
unknown keys, keys a command does not read (``COMMAND_KEYS``) and out-of-range
values are hard errors.  Adam's decays and guard are constants of
``training``, and the output directory is each
driver's ``out_dir`` argument, so the config hash names only what shapes
the numbers.  One driver,
``run_certified``, certifies every kind of problem with an exact solution:
the kind picks the norm (H2 for spatial kinds, X for heat) and the
certificate that bounds it.  The trained loss is a choice, the config's
``variant``: ``interior`` on every kind, or ``sobolev_k1`` (the residual
plus its gradient) on a poisson problem, whose certificate still rests on
the interior residual of the same network.  Every driver builds
each of its objectives and run constants once and trains through one loop,
``_train_run``; each final certificate is measured on the network at the
best loss seen, the loss it certifies, and a certified bound that
measurement breaks raises ``BoundViolation`` once the files are written.
Every certificate rests on the constant ``certify`` derives for its
problem's kind, never on a config key.  Every CSV starts with a comment
line carrying the config hash and seed, contains no timestamps, and formats
floats with ``repr``, so reruns with the same config and seed are
bit-identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import certify, quadrature
from .certify import BoundViolation, CertifiedReport
from .fields import harmonic_mode
from .geometry import Disk
from .jets import coeff_layout
from .losses import build_objective, make_config
from .problems import PdeProblem, default_spec, get_problem
from .quadrature import (build_rule, boundary_misfit, h_half_surrogate,
                         sobolev_errors_upto, x_norm_error)
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
    quad_n: int = 24
    seeds: tuple = (0,)
    record_every: int = 100
    n_list: tuple = (2, 4, 8, 16, 32, 64)

    def __post_init__(self):
        for name, ok, rule in (
                ("steps", self.steps >= 0, "is below 0"),
                ("quad_n", self.quad_n >= 2, "is below 2"),
                ("record_every", self.record_every >= 1, "is below 1"),
                ("hidden", min(self.hidden, default=1) >= 1, "has a width below 1"),
                ("seeds", len(self.seeds) > 0, "is empty"),
                ("seeds", len(set(self.seeds)) == len(self.seeds), "repeats a seed"),
                ("seeds", min(self.seeds, default=0) >= 0, "has a negative seed"),
                ("n_list", len(self.n_list) > 0, "is empty"),
                ("n_list", len(set(self.n_list)) > 1, "has fewer than two distinct modes"),
                ("tau", 0 < self.tau < math.inf, "is not positive and finite"),
                ("lr", 0 < self.lr < math.inf, "is not positive and finite")):
            if not ok:
                raise ConfigError(f"{name} = {getattr(self, name)} {rule}")


_TRAINING_KEYS = ("problem", "hidden", "steps", "lr", "quad_n", "seeds")
# the keys each command reads; a config file for a command may set no other
COMMAND_KEYS = {
    "certify-run": _TRAINING_KEYS + ("record_every", "variant"),
    "compare-bc": _TRAINING_KEYS + ("tau",),
    "fd-check": ("problem", "variant", "tau", "hidden", "quad_n", "seeds"),
    "failure-demo": ("tau", "quad_n", "n_list"),
}
_INT_TUPLES = {"hidden", "seeds", "n_list"}
_SPATIAL_KINDS = ("poisson", "elliptic_divA")
# the loss variants certify-run trains, each with the problem kinds it is
# assembled for; every one is certified from the interior residual
_CERTIFIED_VARIANTS = {"interior": (*_SPATIAL_KINDS, "heat"), "sobolev_k1": ("poisson",)}
_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))


def _convert(key: str, raw: str):
    try:
        if key in _INT_TUPLES:
            return tuple(int(p) for p in raw.replace(" ", "").split(",") if p)
        return type(getattr(ExperimentConfig(), key))(raw)  # int, float or str
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({err})") from None


def parse_config_text(text: str, command: Optional[str] = None) -> ExperimentConfig:
    """The config a file's text sets; with a command, only the keys it reads."""
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
        if command is not None and key not in COMMAND_KEYS[command]:
            raise ConfigError(f"line {ln}: {command} does not read key {key!r}")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        values[key] = _convert(key, raw.strip())
    return ExperimentConfig(**values)


def load_config(path, command: Optional[str] = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config_text(text, command)


def _resolve_problem(name: str) -> PdeProblem:
    try:
        return get_problem(name)
    except KeyError as err:
        raise ConfigError(str(err.args[0])) from None


def canonical_text(config: ExperimentConfig) -> str:
    def fmt(v):
        if isinstance(v, tuple):
            return ",".join(str(p) for p in v)
        return repr(v) if isinstance(v, float) else str(v)

    return "\n".join(f"{name} = {fmt(getattr(config, name))}" for name in _FIELD_NAMES)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode()).hexdigest()[:12]


# -- output and the one training loop ------------------------------------------


def _write_lines(out_dir, name: str, lines: list[str]) -> None:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_csv(out_dir, name: str, config: ExperimentConfig, seed, header: str,
               rows, trailer=()) -> None:
    """Hash line, header, rows (numbers by repr) and the trailer as comments."""
    lines = [f"# config_hash={config_hash(config)} seed={seed}", header]
    lines.extend(",".join(v if isinstance(v, str) else repr(v) for v in row)
                 for row in rows)
    lines.extend(f"# {extra}" for extra in trailer)
    _write_lines(out_dir, name, lines)


def _single_seed(config: ExperimentConfig, command: str) -> int:
    """The seed of a command that trains one network; a list is an error."""
    if len(config.seeds) != 1:
        raise ConfigError(f"{command} runs a single seed, the config lists "
                          f"{len(config.seeds)}; choose one with --seed N")
    return config.seeds[0]


def _training_problem(config: ExperimentConfig, command: str, kinds) -> PdeProblem:
    """The config's problem, if its kind is one of kinds and it has an exact solution."""
    problem = _resolve_problem(config.problem)
    if problem.kind not in kinds:
        raise ConfigError(f"{command} needs a {' or '.join(kinds)} problem, "
                          f"{problem.name} is {problem.kind}")
    if problem.exact is None:
        raise ConfigError(f"problem {problem.name} has no exact solution to measure against")
    return problem


def _train_run(config: ExperimentConfig, objective, metrics=None):
    """Adam on the config's schedule and on the objective its driver built;
    ``metrics(step, flat, loss)`` turns the parameters at each checkpoint
    into one row, and ``objective.ansatz_jets(flat)`` gives it the ansatz
    jets on the training rule without a second forward pass.  Returns
    (rows, state); state.params is the network at the best loss seen, the
    one state.loss certifies."""
    schedule = AdamSchedule(steps=config.steps, lr=config.lr,
                            record_every=config.record_every)
    rows = []
    state = train(objective, schedule=schedule,
                  on_checkpoint=(lambda *c: rows.append(metrics(*c))) if metrics else None)
    return rows, state


# -- certified training runs ----------------------------------------------------


@dataclass
class CertifiedRun:
    seed: int
    header: str                     # the CSV header; it names the norm
    rows: list                      # (step, loss, bound, h2, h1, l2) or, heat,
                                    # (step, loss, bound, x_norm_error); a
                                    # sobolev_k1 row appends its training loss
    final_report: CertifiedReport
    violations: list                # "step S: " + violation() per failed bound


def _certified_single_seed(config: ExperimentConfig, seed: int) -> CertifiedRun:
    problem = _training_problem(config, "certify-run", _CERTIFIED_VARIANTS["interior"])
    if problem.kind not in _CERTIFIED_VARIANTS.get(config.variant, ()):
        raise ConfigError(f"certify-run cannot train variant {config.variant!r} on "
                          f"{problem.name}, which is {problem.kind}: it trains 'interior' "
                          f"on every kind and 'sobolev_k1' on poisson")
    cfg = make_config(problem, config.variant, config.quad_n)
    spec = default_spec(problem, hidden=config.hidden, seed=seed)
    objective = build_objective(spec, problem, cfg)
    # every variant is certified from the interior residual of its network
    k1 = config.variant == "sobolev_k1"
    interior = (build_objective(spec, problem, replace(cfg, variant="interior"))
                if k1 else objective)
    exact = problem.exact.jets(cfg.interior.nodes, 2)
    heat = problem.kind == "heat"
    violations = []

    def certificate(step, flat, trained_loss):
        loss = interior.value(flat) if k1 else trained_loss
        if heat:
            errors = (x_norm_error(interior.ansatz_jets(flat), exact, cfg.interior),)
            report = certify.parabolic_bound(loss, problem, measured_error=errors[0])
        else:
            l2, h1, h2 = sobolev_errors_upto(interior.ansatz_jets(flat), exact,
                                             cfg.interior, s_max=2)
            errors = (h2, h1, l2)
            report = certify.certified_h2_bound(loss, problem.domain, problem,
                                                measured_error=h2)
        if message := report.violation():
            violations.append(f"step {step}: {message}")
        return report, (step, loss, report.bound, *errors, *([trained_loss] if k1 else ()))

    rows, state = _train_run(config, objective,
                             lambda *checkpoint: certificate(*checkpoint)[1])
    final_report = certificate("best", state.params, state.loss)[0]
    header = ("step,loss,bound," + ("x_norm_error" if heat else "h2_error,h1_error,l2_error")
              + (",training_loss" if k1 else ""))
    return CertifiedRun(seed, header, rows, final_report, violations)


def run_certified(config: ExperimentConfig, out_dir, parallel: int = 1):
    """Train an exact-boundary network on the config's variant and certify
    every checkpoint and the best network from its interior residual, in
    the H2 norm for a spatial problem and in the X norm for a heat problem.
    Writes one CSV per seed plus an ensemble summary; raises BoundViolation
    (after writing) if any certified row or final report fails its bound."""
    if parallel < 1:
        raise ConfigError(f"parallel needs at least one worker process, got {parallel}")
    seeds = list(config.seeds)
    if parallel > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only this path forks
        with ProcessPoolExecutor(max_workers=min(parallel, len(seeds))) as pool:
            runs = list(pool.map(_certified_single_seed, [config] * len(seeds), seeds))
    else:
        runs = [_certified_single_seed(config, s) for s in seeds]

    for run in runs:
        _write_csv(out_dir, f"certify_{config.problem}_seed{run.seed}.csv", config, run.seed,
                   run.header, run.rows, run.final_report.text_block().splitlines())

    summary = [f"# config_hash={config_hash(config)} seeds={','.join(map(str, seeds))}"]
    for run in runs:
        summary.append(f"== seed {run.seed} ==")
        summary.append(run.final_report.text_block())
        summary.append("")
    _write_lines(out_dir, f"certify_{config.problem}_summary.txt", summary)

    for run in runs:
        if run.violations:
            raise BoundViolation(f"seed {run.seed} {run.violations[0]}")
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
        mode = harmonic_mode(n)

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


def run_failure_demo(config: ExperimentConfig, out_dir):
    """Boundary-penalty failure demo on the harmonic modes of config.n_list.

    The penalty loss stays flat at tau * pi while the H1 error diverges like
    sqrt(n); the H^(1/2) surrogate stays bounded.  Writes failure_demo.csv
    and returns (records, fitted slope)."""
    records = harmonic_failure_records(config.n_list, config.tau, config.quad_n)
    slope = fit_ratio_slope(records)
    header = ",".join(f.name for f in fields(HarmonicFamilyRecord))
    _write_csv(out_dir, "failure_demo.csv", config, "-", header,
               [astuple(r) for r in records], [f"fitted_slope = {slope!r}"])
    return records, slope


# -- exact constraints vs boundary penalty ----------------------------------------


def run_penalty_vs_exact(config: ExperimentConfig, out_dir):
    """Same problem, same optimiser: exact-boundary ansatz with the interior
    loss against an unconstrained ansatz with the tau-penalty loss.  One
    result (method, state, best, errors, misfit, value, report) per method:
    value is the exact-boundary H2 bound, or the penalty's indicator
    (1 + tau^(-1/2)) * sqrt(loss) with report None, as a penalty certifies
    nothing.  Raises BoundViolation (after writing) if the exact-boundary
    certificate fails."""
    problem = _training_problem(config, "compare-bc", _SPATIAL_KINDS)
    seed = _single_seed(config, "compare-bc")
    boundary_rule = build_rule(problem.domain, "boundary", config.quad_n)
    # u*'s jets on the interior rule that both methods train and measure on
    exact = problem.exact.jets(build_rule(problem.domain, "interior", config.quad_n).nodes, 2)
    results, trailer = [], []

    for method, mode, variant, tau in (("exact_bc", "exact_bc", "interior", None),
                                       ("penalty", "unconstrained", "penalty", config.tau)):
        spec = default_spec(problem, hidden=config.hidden, seed=seed, mode=mode)
        cfg = make_config(problem, variant, config.quad_n, tau=tau)
        objective = build_objective(spec, problem, cfg)
        state = _train_run(config, objective)[1]
        best = spec.with_params(state.params)
        errors = sobolev_errors_upto(objective.ansatz_jets(state.params), exact,
                                     cfg.interior, s_max=2)
        misfit = boundary_misfit(best, problem.lift, boundary_rule)
        if method == "exact_bc":
            report = certify.certified_h2_bound(state.loss, problem.domain, problem,
                                                measured_error=errors[2])
            value, block = report.bound, report.text_block().splitlines()
        else:
            report, value = None, (1.0 + tau ** -0.5) * math.sqrt(state.loss)
            surrogate = math.sqrt(errors[0] * errors[1])  # h_half_surrogate of the errors
            block = ["certificate: none (a boundary penalty certifies nothing above H^(1/2))",
                     f"loss:        {state.loss!r}",
                     f"indicator:   {value!r}  ((1 + tau^(-1/2)) * sqrt(loss), not a bound)",
                     f"surrogate:   {surrogate!r}  (H^(1/2)-scale error surrogate)"]
        results.append((method, state, best, errors, misfit, value, report))
        trailer += [f"-- {method} --", *block]

    header = ("method,final_loss,l2_error,h1_error,h2_error,boundary_misfit,"
              "certified_bound_or_estimator")
    rows = [(m, st.loss, *e, mis, value) for (m, st, _, e, mis, value, _) in results]
    _write_csv(out_dir, f"compare_bc_{config.problem}.csv", config, seed, header, rows,
               trailer)
    results[0][-1].check()  # the exact-boundary certificate
    return results


# -- gradient audit -------------------------------------------------------------------


def run_fd_check(config: ExperimentConfig, out_dir, n_coords: int = 20):
    """Finite-difference audit of the loss gradient for the configured variant:
    one CSV row per coordinate and per direction (see ``training.fd_check``)."""
    problem = _resolve_problem(config.problem)
    seed = _single_seed(config, "fd-check")
    mode = "unconstrained" if config.variant == "penalty" else "exact_bc"
    try:
        spec = default_spec(problem, hidden=config.hidden, seed=seed, mode=mode)
        cfg = make_config(problem, config.variant, config.quad_n,
                          tau=config.tau if config.variant == "penalty" else None)
        report = fd_check(spec, problem, cfg, n_coords=n_coords, seed=seed)
    except ValueError as err:
        raise ConfigError(f"cannot assemble the {config.variant!r} loss for "
                          f"{problem.name}: {err}") from None
    rows = [(r.kind, r.index, r.analytic, r.numeric, r.discrepancy,
             "relative" if r.relative else "absolute", r.floor) for r in report.rows]
    trailer = [f"max_relative_discrepancy = {report.max_discrepancy!r}",
               f"max_absolute_near_zero = {report.max_absolute_near_zero!r}"]
    _write_csv(out_dir, f"fd_check_{config.problem}_{config.variant}.csv", config, seed,
               "kind,index,analytic,numeric,discrepancy,mode,rounding_floor", rows, trailer)
    return report
