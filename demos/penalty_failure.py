"""Why an L2 boundary penalty cannot certify errors above H^(1/2).

The witnesses are the harmonic modes u_n = r^n cos(n theta) on the unit
disk with zero boundary data.  Each has zero interior residual and the same
boundary L2 misfit (pi), so the penalty loss tau*pi never changes -- while
the H1 norm grows like sqrt(n).  A loss that stays flat as the error blows
up certifies nothing at that norm scale; the H^(1/2)-scale surrogate
sqrt(||u|| * ||u||_H1) is the strongest thing that stays bounded.

The second half trains the same Poisson problem twice -- once with exact
boundary constraints, once with a tau-penalty -- and prints what each loss
can and cannot guarantee.
"""

import math

from rescert import (ExperimentConfig, fit_ratio_slope,
                     harmonic_failure_records, run_penalty_vs_exact)

# -- the harmonic family: flat loss, growing error --------------------------------

records = harmonic_failure_records(n_list=(2, 4, 8, 16, 32, 64), tau=1.0, quad_n=8)

print(f"{'n':>3} {'loss_tau':>10} {'H1 norm':>10} {'H1/sqrt(loss)':>14} {'H^1/2 surrogate':>16}")
for r in records:
    print(f"{r.n:>3} {r.loss_tau:>10.6f} {r.h1_norm:>10.4f} "
          f"{r.h1_ratio:>14.4f} {r.h_half_surrogate:>16.4f}")

slope = fit_ratio_slope(records)
print(f"\nfitted slope of log(H1/sqrt(loss)) vs log(n): {slope:.4f}  (sqrt growth = 0.5)")
print(f"surrogate limit (pi^2/2)^(1/4) = {(math.pi**2 / 2) ** 0.25:.4f}: "
      "bounded, as an H^(1/2)-scale quantity must be")

# -- the same story in training form ----------------------------------------------

config = ExperimentConfig(problem="P1", hidden=(16, 16), quad_n=16, steps=1500,
                          record_every=500, tau=100.0, seeds=(0,))
print(f"\ntraining {config.problem} both ways ({config.steps} steps, tau={config.tau}) ...")
results = run_penalty_vs_exact(config, out_dir="out")

for method, state, _, (l2, h1, h2), misfit, value, report in results:
    print(f"\n-- {method} --")
    print(f"final loss          {state.loss:.4e}")
    print(f"boundary misfit     {misfit:.4e}")
    print(f"H2 error            {h2:.4e}")
    if report is not None:
        print(f"{report.norm_label} bound: {value:.4e} "
              f"(provenance {report.constant_provenance}, certified {report.certified})")
    else:  # (1 + tau^(-1/2)) sqrt(loss): an indicator, no proven constant
        print(f"indicator           {value:.4e}, no certificate")

print("\nthe exact-constraint loss certifies the H2 error; the penalty loss is an"
      "\nindicator at the H^(1/2) scale only, whatever tau is chosen")
