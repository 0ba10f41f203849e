"""rescert benchmark: time to a certified bound, step and checkpoint cost.

Usage (from the repository root):

    python3 benchmarks/run.py --workload p1_certify --seed 0 --seconds 10 --trace 0

Each run drives ``rescert.experiments.run_certified`` (the code behind
``rescert certify-run``) on the fixed config of one workload (see
``workloads.py``), one call at a time from this single process: a closed
loop with one client.  ``--seed`` picks the network-initialisation seed.

A run
1. audits the workload's loss gradient with ``training.fd_check``;
2. makes one warm-up driver call, then calls the driver until ``--seconds``
   have passed;
3. without tracing, times the set-up (import, problem, rule, objective) in
   fresh interpreters: after a driver call, one probe whenever another is
   due at the rate of ``SETUP_PROBES`` per ``--seconds``, so the probes
   sample the whole window as the calls do;
4. gates every call (see ``harness.Harness``) and prints one JSON line.

With ``--trace 0`` the metrics are end to end and the only instrument is a
clock around each checkpoint callback.  Set-up time is reported as the median
of the probes; the per-call timings as their 90th percentile over the run
(see ``TAIL``), with the median in the log.

With ``--trace 1`` the run alternates untraced calls with traced iterations
(a traced set-up, then a traced driver call; see ``tracer.py``) and reports
per-layer metrics per iteration.

Machine settings are left as found; the environment block records them.
The process and its set-up probes run BLAS on one thread (see harness.py).
Results, and the spans of the first traced iteration, are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from harness import (BENCH, BLAS_THREADS_FOUND, HIDDEN, OUT, ROOT, BenchError, Harness,
                     init_seed, load_reference, load_rescert)
from tracer import LAYERS, SpanSummary, Tracer
from workloads import EXPECT_NONZERO, LOSS, WORKLOADS

# fresh-interpreter set-up probes per untraced run, spread over the window
SETUP_PROBES = 12
# Percentile at which the per-call timings are reported.  The machine
# switches between its normal speed and a phase about 1.5x faster, in
# stretches of seconds to minutes.  A run's median follows whichever phase
# covered most of the run: in one ten-run set on p2_certify_dense, run_s
# medians spread 0.33 while 90th percentiles spread 0.08, which read the
# normal speed unless nearly all of the run was fast.
TAIL = 0.9
# most of the traced run_s that may lie outside every rescert span: the
# benchmark's own work there (temporary directory, clock) is about 0.02 %,
# while driver-level functions left unwrapped leave 0.3 % or more
UNATTRIBUTED_MAX = 0.002
# per-layer counts derived from argument shapes rather than observed work
COMPUTED = frozenset({"network.gemm_gflop", "network.jet_mb", "quadrature.kahan_values",
                      "training.steps"})
# printed but left out of the result: a time on the values path, which the
# certify-run workloads never take, so it reads exactly 0 on every run
LOG_ONLY = frozenset({"ansatz.values_ms"})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ----------------------------------------------------------------


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def environment():
    import numpy as np
    import sympy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": sympy.__version__,
        "blas": blas,
        "threads_env": BLAS_THREADS_FOUND,
        "threads_env_set": {k: os.environ.get(k) for k in BLAS_THREADS_FOUND},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": _git_sha(),
        "note": "machine settings left as found, BLAS pinned to one thread in this "
                "process (threads_env_set); a fresh process runs its first "
                "few hundred steps slower, so short runs do not repeat within a "
                "tenth (hence the warm-up call and long runs)",
    }


# -- set-up probes ----------------------------------------------------------------


def probe_setup(w, seed):
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), w.problem, LOSS,
           str(w.quad_n), str(seed), ",".join(map(str, HIDDEN))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- statistics ---------------------------------------------------------------------


def describe(samples, unit):
    """Median, the reported tail percentile, the highest percentile with at
    least ten samples beyond it, n."""
    n = len(samples)
    if n == 0:
        return "no samples"
    text = (f"median {statistics.median(samples):.6g} {unit}, "
            f"p{round(100 * TAIL)} {tail_or_zero(samples):.6g} {unit} (n={n}")
    if n > 10:
        q = int(100 * (n - 10) / n)
        if q > 50:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
            text += f", p{q} {cut:.6g} {unit}"
    return text + ")"


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def tail_or_zero(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * TAIL) - 1]


# -- per-layer metrics ----------------------------------------------------------------

def layer_metrics(summary, counts, iteration, run_span, setup_span):
    d = summary
    certified_reports = counts["certify.reports"]
    m = {
        "network.forward_ms": d.inclusive_ms("network.forward_jets"),
        "network.forward_calls": d.calls("network.forward_jets"),
        "network.backward_ms": d.inclusive_ms("network.backward_jets"),
        "network.backward_calls": d.calls("network.backward_jets"),
        "network.gemm_gflop": counts["network.gemm_flop"] / 1e9,
        "network.jet_mb": counts["network.jet_bytes"] / 1e6,
        "losses.build_ms": d.layer_self_ms("losses", under="losses.build_objective"),
        "losses.value_and_grad_self_ms": d.self_ms("losses.Objective.value_and_grad"),
        "losses.value_calls": d.calls("losses.Objective.value",
                                      "losses.Objective.value_and_grad"),
        "quadrature.kahan_ms": d.inclusive_ms("quadrature.kahan_sum"),
        "quadrature.kahan_values": counts["quadrature.kahan_values"],
        "quadrature.norms_self_ms": d.self_ms("quadrature.sobolev_errors_upto",
                                              "quadrature.x_norm_error",
                                              "quadrature.grad_laplacian_error"),
        "quadrature.build_rule_ms": d.inclusive_ms("quadrature.build_rule"),
        "ansatz.composition_ms": d.inclusive_ms("ansatz.AnsatzSpec.composition"),
        "ansatz.composition_calls": d.calls("ansatz.AnsatzSpec.composition"),
        "ansatz.values_ms": d.inclusive_ms("ansatz.AnsatzSpec.values"),
        "geometry.distance_jets_ms": d.inclusive_ms("geometry.distance_jets"),
        "geometry.distance_points": counts["geometry.distance_points"],
        "geometry.distance_factor_calls": counts["geometry.distance_factor_calls"],
        "jets.scalar_ops": counts["jets.scalar_ops"],
        "fields.jets_ms": d.inclusive_ms("fields.AnalyticField.jets",
                                         "fields.TimeExtendedField.jets",
                                         "fields.HarmonicMode.jets"),
        "fields.values_ms": d.inclusive_ms("fields.AnalyticField.values",
                                           "fields.TimeExtendedField.values",
                                           "fields.HarmonicMode.values"),
        "problems.builtin_ms": d.inclusive_ms("problems.builtin_problems"),
        "training.steps": counts["training.steps"],
        "certify.bound_ms": d.inclusive_ms("certify.certified_h2_bound",
                                           "certify.parabolic_bound"),
        "certify.reports": certified_reports,
        "certify.certified_frac": (counts["certify.certified"] / certified_reports
                                   if certified_reports else 0.0),
    }
    # layer self times over the whole iteration: traced set-up and driver call
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = d.layer_self_ms(layer)
    # the traced driver call less the self times of the layers inside it
    m["trace.unattributed_ms"] = 1e3 * d.duration[run_span] - sum(
        d.layer_self_ms(layer, under="bench.run") for layer in LAYERS)
    m["trace.setup_s"] = d.duration[setup_span]
    m["trace.run_s"] = d.duration[run_span]
    m["trace.iteration_s"] = d.duration[iteration]
    m["trace.spans"] = len(d.members)
    return m


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def traced_setup(modules, w, seed, tracer, raw_builtin):
    """The set-up sequence of setup_probe.py, on a freshly built problem
    registry so the process-wide cache the driver uses stays warm."""
    problem = tracer.wrap("problems.builtin_problems", raw_builtin)()[w.problem]
    cfg = modules["losses"].make_config(problem, LOSS, w.quad_n)
    spec = modules["problems"].default_spec(problem, hidden=HIDDEN, seed=seed)
    modules["losses"].build_objective(spec, problem, cfg)


# -- main -------------------------------------------------------------------------------


def run(args):
    w = WORKLOADS[args.workload]
    seed = init_seed(args.seed)
    rescert, modules = load_rescert()
    reference = load_reference(w.name, seed)
    if reference is None:
        raise BenchError(f"no reference result for {w.name} at seed {seed}")
    print(f"rescert benchmark: workload={w.name} seed={args.seed} init_seed={seed} "
          f"trace={args.trace} seconds={args.seconds}")
    env = environment()
    print("env " + json.dumps(env))

    harness = Harness(modules, w, seed, reference)
    audit_ok, audit_line = harness.audit()
    print(audit_line)
    notes = []
    if not audit_ok:
        notes.append("gradient audit failed")

    calls = [harness.call()]                      # warm-up, gated but not timed
    timed, iterations, setups = [], [], []
    tracer = Tracer() if args.trace else None
    raw_builtin = modules["problems"].builtin_problems.__wrapped__
    first_spans = None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (args.trace and not iterations):
        res = harness.call()
        calls.append(res)
        timed.append(res)
        if not args.trace:
            # the next set-up probe once it is due, at most one per call
            if len(setups) < SETUP_PROBES * (time.perf_counter() - start) / args.seconds:
                setups.append(probe_setup(w, seed))
            continue
        tracer.reset()
        tracer.instrument(rescert, modules)
        try:
            it = tracer.open("bench.iteration")
            su = tracer.open("bench.setup")
            traced_setup(modules, w, seed, tracer, raw_builtin)
            tracer.close(su)
            ru = tracer.open("bench.run")
            drive = harness.drive(tracer)
            tracer.close(ru)
            tracer.close(it)
        finally:
            tracer.restore()
        res = harness.gate(drive)
        calls.append(res)
        iterations.append((res, layer_metrics(SpanSummary(tracer.spans, it), tracer.counts,
                                              it, ru, su)))
        if first_spans is None:
            first_spans = [list(s) for s in tracer.spans]
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(probe_setup(w, seed))

    failed = [c for c in calls if not c.ok]
    for c in failed:
        print(f"failed call: {c.reason}")
    good = [c for c in timed if c.ok]
    fail_frac = len(failed) / len(calls)
    print(f"calls: attempted {len(calls)}, failed {len(failed)}, fail_frac {fail_frac}")
    run_s = [c.wall_s for c in good]
    metrics = {}
    if not args.trace:
        step_ms = [x for c in good for x in c.step_ms]
        ckpt_ms = [x for c in good for x in c.checkpoint_ms]
        ttt = [c.time_to_target_s for c in good]
        print("setup_s " + describe([s["setup_s"] for s in setups], "s") + "; phases "
              + json.dumps({k: round(statistics.median(s[k] for s in setups), 4)
                            for k in ("import_s", "problem_s", "rule_s", "objective_s")}))
        print("run_s " + describe(run_s, "s"))
        print("time_to_target_s " + describe(ttt, "s") + " at steps "
              + str(sorted({c.target_step for c in good})))
        print("step_ms " + describe(step_ms, "ms"))
        print("checkpoint_ms " + describe(ckpt_ms, "ms"))
        metrics = {
            "setup_s": (median_or_zero([s["setup_s"] for s in setups]), "s"),
            "run_s_p90": (tail_or_zero(run_s), "s"),
            "time_to_target_s_p90": (tail_or_zero(ttt), "s"),
            "step_ms_p90": (tail_or_zero(step_ms), "ms"),
            "checkpoint_ms_p90": (tail_or_zero(ckpt_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    else:
        for name in iterations[0][1]:
            metrics[name] = (statistics.mean(m[name] for _, m in iterations),
                             unit_of(name))
        untraced = median_or_zero(run_s)
        overhead = (metrics["trace.run_s"][0] / untraced - 1.0) if untraced else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        notes.extend(coverage_check(iterations, metrics))
        print(f"tracing overhead: traced run_s {metrics['trace.run_s'][0]:.4f} s vs "
              f"untraced {untraced:.4f} s ({overhead:+.1%})")
        print(f"traced run_s {1e3 * metrics['trace.run_s'][0]:.1f} ms, of which "
              f"{metrics['trace.unattributed_ms'][0]:.2f} ms outside the layers' self "
              f"times (at most {UNATTRIBUTED_MAX:.1%} allowed)")
        spans_file = OUT / f"spans-{w.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(first_spans))
    for name, (value, unit) in metrics.items():
        label = (" (computed from shapes)" if name in COMPUTED
                 else " (log only)" if name in LOG_ONLY else "")
        print(f"  {name:36s} {value:.6g} {unit}{label}")
    for note in notes:
        print(f"check failed: {note}")

    correct = not failed and not notes
    result = {"correct": correct, "attempted": len(calls), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                          if k not in LOG_ONLY}}
    record = dict(result, workload=w.name, seed=args.seed, init_seed=seed,
                  trace=args.trace, seconds=args.seconds, env=env, notes=notes,
                  fail_frac=fail_frac, setup_probes=setups,
                  calls=[{"ok": c.ok, "reason": c.reason, "wall_s": c.wall_s,
                          "time_to_target_s": c.time_to_target_s,
                          "target_step": c.target_step} for c in calls])
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def coverage_check(iterations, metrics):
    """Failures of the traced run's self-checks."""
    notes = []
    for name in EXPECT_NONZERO:
        if metrics[name][0] == 0:
            notes.append(f"per-layer metric {name} reads zero")
    if metrics["certify.certified_frac"][0] != 1.0:
        notes.append("certified_frac below 1 on a certified workload")
    for _, m in iterations:
        share = m["trace.unattributed_ms"] / (1e3 * m["trace.run_s"])
        if share > UNATTRIBUTED_MAX:
            notes.append(f"layer self times cover only {1 - share:.2%} of the traced run_s")
    return notes


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
