"""Symbolic derivatives as the independent oracle of the jet algebra.

The package computes every derivative with ``rescert.jets``; these tests
check it against sympy, which the package itself does not import.
"""

import numpy as np
import sympy as sp

from rescert.jets import coeff_layout


def sympy_jet(expr, syms, point, order):
    """Packed coefficient vector of expr at point, via sympy — the oracle."""
    lay = coeff_layout(len(syms), order)
    subs = dict(zip(syms, point))
    out = np.zeros(lay.size)
    for c, mi in enumerate(lay.multi_indices):
        d = expr
        for i in mi:
            d = sp.diff(d, syms[i])
        out[c] = float(d.subs(subs))
    return out
