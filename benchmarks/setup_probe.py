"""Set-up time of one workload in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py PROBLEM VARIANT QUAD_N SEED HIDDEN

HIDDEN is the comma-separated list of hidden widths, e.g. ``16,16``.

Times what every CLI invocation pays before its first optimiser step:
``import rescert``, the problem build, the quadrature rule and
``build_objective`` for the loss.  Prints one JSON object with the phase
times in seconds.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv):
    problem_name, variant, quad_n, seed = argv[0], argv[1], int(argv[2]), int(argv[3])
    hidden = tuple(int(h) for h in argv[4].split(","))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rescert
    from rescert import build_objective, default_spec, get_problem, make_config
    t1 = time.perf_counter()
    if not Path(rescert.__file__).resolve().is_relative_to(SRC):
        print(f"rescert imported from {rescert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    problem = get_problem(problem_name)
    t2 = time.perf_counter()
    cfg = make_config(problem, variant, quad_n)
    t3 = time.perf_counter()
    spec = default_spec(problem, hidden=hidden, seed=seed)
    build_objective(spec, problem, cfg)
    t4 = time.perf_counter()
    print(json.dumps({"setup_s": t4 - t0, "import_s": t1 - t0, "problem_s": t2 - t1,
                      "rule_s": t3 - t2, "objective_s": t4 - t3}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
