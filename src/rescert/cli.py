"""Command-line front end.

Exit codes: 0 success, 2 a certified bound was violated, 3 training
diverged, 4 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .certify import BoundViolation
from .training import DivergenceError

EXIT_OK = 0
EXIT_BOUND = 2
EXIT_DIVERGED = 3
EXIT_CONFIG = 4

_COMMANDS = (
    ("certify-run", "train with exact boundary conditions on the config's variant and "
                    "certify each checkpoint (H2 norm, or the X norm for a heat problem)"),
    ("failure-demo", "harmonic-family demo: penalty loss flat while the H1 error grows"),
    ("compare-bc", "exact-constraint ansatz vs boundary penalty on one problem"),
    ("fd-check", "finite-difference audit of the loss gradient"),
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the config exit code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rescert",
                     description="residual-minimisation PDE solving with "
                                 "certified a posteriori error bounds")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in _COMMANDS:
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", default=None,
                       help="path to a 'key = value' config file")
        s.add_argument("--out", default="out", help="output directory (default: out)")
        if "seeds" in experiments.COMMAND_KEYS[name]:  # only commands that read seeds
            s.add_argument("--seed", type=int, default=None,
                           help="replace the config's seed list with this one seed")
        if name == "certify-run":
            s.add_argument("--parallel", type=int, default=1,
                           help="worker processes for multi-seed runs (at least 1)")
    return parser


# defaults when no --config is given; chosen so every bare subcommand
# finishes in about a minute on one core
_BARE_DEFAULTS = {
    "fd-check": dict(quad_n=8, hidden=(8, 8)),
}


def _load(args) -> experiments.ExperimentConfig:
    if args.config:
        config = experiments.load_config(args.config, args.command)
    else:
        config = experiments.ExperimentConfig(**_BARE_DEFAULTS.get(args.command, {}))
    if getattr(args, "seed", None) is not None:
        config = replace(config, seeds=(args.seed,))
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        # the nearest existing part of --out must be a directory; nothing is
        # created until a command writes, so a config error leaves no directory
        out = Path(args.out).absolute()
        if not (base := next(p for p in (out, *out.parents) if p.exists())).is_dir():
            raise experiments.ConfigError(f"cannot create --out {args.out}: "
                                          f"{base} is not a directory")

        if args.command == "certify-run":
            runs = experiments.run_certified(config, args.out, parallel=args.parallel)
            for run in runs:
                rep = run.final_report
                print(f"seed {run.seed}: loss {rep.loss!r} bound {rep.bound!r} "
                      f"measured {rep.measured_error!r} certified {rep.certified}")

        elif args.command == "failure-demo":
            records, slope = experiments.run_failure_demo(config, args.out)
            last = records[-1]
            print(f"fitted slope of log(h1_ratio) vs log(n): {slope!r}")
            print(f"n={last.n}: loss_tau {last.loss_tau!r} h1_ratio {last.h1_ratio!r} "
                  f"h_half_surrogate {last.h_half_surrogate!r}")

        elif args.command == "compare-bc":
            for method, state, _, (l2, h1, h2), misfit, value, rep in \
                    experiments.run_penalty_vs_exact(config, args.out):
                verdict = (f"bound {value!r} certified {rep.certified}" if rep
                           else f"indicator {value!r}, no certificate")
                print(f"{method}: loss {state.loss!r} h2_error {h2!r} "
                      f"boundary_misfit {misfit!r} {verdict}")

        elif args.command == "fd-check":
            report = experiments.run_fd_check(config, args.out)
            ok = report.passed()
            print(f"max relative discrepancy {report.max_discrepancy!r}, "
                  f"max absolute near zero {report.max_absolute_near_zero!r}: "
                  f"{'PASS' if ok else 'FAIL'}")
            if not ok:
                for r in report.failures():
                    print(f"failed: {r.kind} {r.index}, discrepancy {r.discrepancy!r}")
                return 1

    except experiments.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BoundViolation as err:
        print(f"bound violation: {err}", file=sys.stderr)
        return EXIT_BOUND
    except DivergenceError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
