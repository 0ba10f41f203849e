"""Tour of the two numerical workhorses: Taylor-jet differentiation and
tensor Gauss-Legendre quadrature.

A Taylor jet carries a function value and all partial derivatives up to a
fixed order through arithmetic, so the Laplacian of a network is exact to
rounding -- no graphs, no tapes, no step-size tuning.  The quadrature rules
integrate polynomials of degree 2n-1 exactly and carry their domain measure
in their weights.
"""

import math

import numpy as np
import sympy as sp

from rescert import (AnalyticField, NetworkParams, build_rule, coeff_layout,
                     forward_jets, h_half_surrogate, integrate_values,
                     sobolev_errors_upto)
from rescert.geometry import Disk, Rectangle
from rescert.jets import seed_point, sin, tanh

# -- jets by hand: tanh(x * y) to second order -------------------------------------

x0 = np.array([0.7, -0.3])
a = seed_point(x0, order=2)          # jets of the coordinate functions
u = tanh(a[0] * a[1])                # jet arithmetic composes derivatives
slot = coeff_layout(2, 2).position     # the packed slot of a derivative

xs, ys = sp.symbols("x y")
expr = sp.tanh(xs * ys)
print("tanh(x*y) at (0.7, -0.3):")
print(f"  value    jet {u.coeffs[slot(())]:+.12f}   sympy {float(expr.subs({xs: 0.7, ys: -0.3})):+.12f}")
dxy = float(sp.diff(expr, xs, ys).subs({xs: 0.7, ys: -0.3}))
print(f"  d2/dxdy  jet {u.coeffs[slot((0, 1))]:+.12f}   sympy {dxy:+.12f}")

# -- the Laplacian of a whole network, exactly --------------------------------------

params = NetworkParams.xavier((2, 16, 16, 1), seed=0)
X = np.array([[0.25, 0.5], [0.5, 0.5], [0.75, 0.5]])
jets = forward_jets(params, X, order=2, scale=np.ones(2), shift=np.zeros(2))[0]
lap = jets @ coeff_layout(2, 2).laplacian_row()  # the Laplacian is a row on the jets
print("\nnetwork Laplacian at three points:", np.array2string(lap, precision=6))

# central differences agree to ~1e-6 (their truncation error, not ours)
h = 1e-4
for k, p in enumerate(X):
    fd = 0.0
    for i in range(2):
        e = np.zeros(2); e[i] = h
        vals = [forward_jets(params, np.array([q]), 0, np.ones(2), np.zeros(2))[0][0, 0]
                for q in (p + e, p, p - e)]
        fd += (vals[0] - 2 * vals[1] + vals[2]) / h**2
    print(f"  point {k}: jet {lap[k]:+.8f}   finite differences {fd:+.8f}")

# -- quadrature: exactness and measures ----------------------------------------------

rule = build_rule(Rectangle((0.0, 0.0), (1.0, 1.0)), "interior", n=5)
x, y = rule.nodes.T
print("\nGauss-Legendre n=5 on the unit square, monomial x^9 y^9:",
      f"{integrate_values(rule, x**9 * y**9):.12f} (exact 0.01)")

for domain, target, name in [
    (Rectangle((0.0, 0.0), (1.0, 1.0)), "interior", "unit square"),
    (Disk((0.0, 0.0), 1.0), "interior", "unit disk"),
    (Disk((0.0, 0.0), 1.0), "boundary", "unit circle"),
]:
    r = build_rule(domain, target, n=12)
    print(f"sum of weights on the {name}: {float(np.sum(r.weights)):.12f}")

# -- Sobolev norms against a closed form ----------------------------------------------

# a closed-form field is a jet expression on the coordinate seeds
u = AnalyticField(lambda s: sin(math.pi * s[0]) * sin(math.pi * s[1]), 2)
square = build_rule(Rectangle((0.0, 0.0), (1.0, 1.0)), "interior", 24)
h2 = sobolev_errors_upto(u, None, square, 2)[2]
closed = math.sqrt(0.25 + math.pi**2 / 2 + math.pi**4)
print(f"\nH2 norm of sin(pi x)sin(pi y): quadrature {h2:.12f} closed form {closed:.12f}")

surrogate = h_half_surrogate(u, None, square)
print(f"H^(1/2)-scale surrogate sqrt(||u|| ||u||_H1): {surrogate:.12f}")
