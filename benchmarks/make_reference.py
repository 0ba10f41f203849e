"""Record the reference results that every benchmark run is checked against.

Usage (from the repository root):

    python3 benchmarks/make_reference.py [WORKLOAD ...]

For each workload (default: all) and each initialisation seed below
``REFERENCE_SEEDS`` this audits the gradient, makes one certify-run call,
and stores the final loss, the final measured H2 error and the step at which
the target was first met in ``benchmarks/reference.json``.  It fails if any seed
meets its target at another checkpoint than ``target_checkpoint``, or if an
audit or a call fails.  Re-record only when a change of method is meant to
change these numbers, and say so where the change is described.
"""

import json
import sys

from harness import REFERENCE, Harness, load_rescert
from workloads import REFERENCE_SEEDS, WORKLOADS


def survey(modules, w):
    table, bad = {}, []
    before, at = [], []
    for seed in range(REFERENCE_SEEDS):
        harness = Harness(modules, w, seed)
        ok, line = harness.audit()
        res = harness.call()
        if not res.trajectory:
            bad.append((seed, ok, res.reason, None))
            continue
        steps = [s for s, _ in res.trajectory]
        values = [v for _, v in res.trajectory]
        if not ok or res.target_step != w.target_checkpoint:
            bad.append((seed, ok, res.reason, res.target_step))
        k = steps.index(w.target_checkpoint)
        at.append(values[k])
        if k:
            before.append(values[k - 1])
        table[str(seed)] = {"loss": res.final_loss, "error": res.final_error,
                            "target_step": res.target_step}
        print(f"{w.name} seed {seed}: {line}; target met at step "
              f"{res.target_step}; final loss {res.final_loss!r} error "
              f"{res.final_error!r}", flush=True)
    print(f"{w.name}: target {w.target}; at step {w.target_checkpoint} the target "
          f"quantity spans {min(at):.4g}..{max(at):.4g}"
          + (f", one checkpoint earlier {min(before):.4g}..{max(before):.4g}"
             if before else ""))
    return table, bad


def main(argv):
    names = argv or sorted(WORKLOADS)
    _, modules = load_rescert()
    try:
        table = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        table = {}
    failures = []
    for name in names:
        entries, bad = survey(modules, WORKLOADS[name])
        table[name] = entries
        failures.extend((name,) + b for b in bad)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for f in failures:
        print("FAILED", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
