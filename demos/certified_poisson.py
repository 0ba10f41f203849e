"""Train a boundary-exact network on the unit-square Poisson problem and
certify the H2 error at every checkpoint.

The ansatz is v = x(1-x)y(1-y) * net(x,y), so the Dirichlet condition holds
identically and the training loss is the plain squared residual norm.  On a
convex domain that loss bounds the full H2 error through the explicit
constant sqrt(1 + 1/lambda_1 + 1/lambda_1^2), lambda_1 = 2 pi^2 the first
Dirichlet eigenvalue of the unit square; no reference solution is needed
for the bound, the manufactured solution is only used to check it.
"""

import math

from rescert import (AdamSchedule, build_objective, certified_h2_bound,
                     default_spec, get_problem, make_config, sobolev_errors_upto,
                     train)

problem = get_problem("P1")  # -lap u = 2 pi^2 sin(pi x) sin(pi y), u = 0 on the boundary
spec = default_spec(problem, hidden=(16, 16), seed=0)
cfg = make_config(problem, "interior", n=16)
objective = build_objective(spec, problem, cfg)

print(f"problem {problem.name}: {problem.kind} on {type(problem.domain).__name__}, "
      f"{spec.params.n_params} parameters")

# record the loss and the measured H2 error along the trajectory; the
# objective hands each checkpoint the ansatz jets of the step it just took,
# and the norms take the error's jets: the ansatz's minus u*'s
exact = problem.exact.jets(cfg.interior.nodes, 2)
trace = []

def checkpoint(step, flat, loss):
    h2 = sobolev_errors_upto(objective.ansatz_jets(flat) - exact, cfg.interior)[2]
    trace.append((step, loss, h2))

state = train(objective, AdamSchedule(steps=1500, lr=1e-3, record_every=100),
              on_checkpoint=checkpoint)

print(f"\n{'step':>6} {'loss':>12} {'bound':>10} {'H2 error':>10}  bound holds")
for step, loss, h2 in trace:
    report = certified_h2_bound(loss, problem.domain, problem, measured_error=h2)
    print(f"{step:>6} {loss:>12.4e} {report.bound:>10.4e} {h2:>10.4e}  {report.bound_holds()}")

# the final certificate, with provenance, measured on the network at the
# best loss seen: the loss it certifies
h2_best = sobolev_errors_upto(objective.ansatz_jets(state.params) - exact, cfg.interior)[2]
final = certified_h2_bound(state.loss, problem.domain, problem,
                           measured_error=h2_best).check()
print("\nfinal certificate")
print(final.text_block())
print(f"\ncertified: H2 error <= {final.constant:.6f} * sqrt(loss) = {final.bound:.4e}, "
      f"measured {final.measured_error:.4e}")
