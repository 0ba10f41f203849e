"""Space-time residual training for the heat equation with exact initial
and boundary conditions.

The exact_bc ansatz v = u0(x) + t * L(x) * net(t, x) matches the initial
condition at t = 0 and the zero lateral boundary values identically, so
training only has to drive the space-time residual d_t v - lap v - f to
zero.  The run tracks the energy-norm error against sqrt(loss): the two
stay proportional along the whole trajectory, and the parabolic
counterpart of the elliptic certificate bounds their ratio by the derived
constant sqrt(1 + c_reg^2) = 1.4329 on the unit square (the proof chain is
in the docstring of ``rescert.c_heat``).
"""

import math

import numpy as np

from rescert import ExperimentConfig, run_certified

config = ExperimentConfig(problem="P4", hidden=(16, 16), quad_n=10,
                          steps=1000, lr=1e-3, record_every=100, seeds=(0,))
(run,) = run_certified(config, out_dir="out")  # certify-run on a heat problem

print(f"{'step':>6} {'loss':>12} {'X-norm error':>13} {'ratio':>8}")
ratios = []
for step, loss, bound, xerr in run.rows:
    ratios.append(xerr / math.sqrt(loss))
    print(f"{step:>6} {loss:>12.4e} {xerr:>13.4e} {ratios[-1]:>8.4f}")

ratios = np.array(ratios[1:])
print(f"\nerror/sqrt(loss) ratio: mean {ratios.mean():.4f}, "
      f"coefficient of variation {ratios.std() / ratios.mean():.4f}")

print("\nX-norm certificate of the best network (derived constant):")
print(run.final_report.text_block())
