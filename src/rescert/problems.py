"""Dirichlet model problems with manufactured solutions.

Each problem fixes a domain, a right-hand side f, boundary data g (with a
closed-form lift where g is nonzero) and, when available, the exact solution
used for error measurement.  Residual conventions (assembled as jet rows by
``losses.residual_rows``):

    poisson        r = Laplace(v) + f
    elliptic_divA  r = div(A grad v) + f
    heat           r = d_t v - Laplace(v) - f
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import sympy as sp

from .ansatz import AnsatzSpec, build_spec
from .fields import AnalyticField, MatrixField, symbols_for
from .geometry import Disk, Domain, Rectangle, SpaceTimeBox

KINDS = ("poisson", "elliptic_divA", "heat")


@dataclass(frozen=True)
class PdeProblem:
    name: str
    kind: str
    domain: Domain
    rhs: AnalyticField                       # f
    boundary: Optional[AnalyticField] = None  # g; None means zero data
    lift: Optional[AnalyticField] = None      # closed-form extension of g
    initial: Optional[AnalyticField] = None   # u0, heat problems only
    coeff: Optional[MatrixField] = None       # A, elliptic_divA only
    coeff_div: Optional[tuple] = None         # rows of div A, closed form
    ellipticity: Optional[float] = None       # uniform lower bound c_A
    exact: Optional[AnalyticField] = None     # manufactured solution

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "heat":
            if not isinstance(self.domain, SpaceTimeBox):
                raise ValueError("heat problems need a space-time domain")
            if self.initial is None:
                raise ValueError("heat problems need initial data u0")
            if self.boundary is not None:
                raise ValueError("heat problems are restricted to zero boundary data")
        else:
            if isinstance(self.domain, SpaceTimeBox):
                raise ValueError(f"{self.kind} problems need a spatial domain")
        if self.kind == "elliptic_divA" and self.coeff is None:
            raise ValueError("elliptic_divA problems need a coefficient matrix")


def default_spec(problem: PdeProblem, hidden=(16, 16), seed: int = 0,
                 mode: str | None = None) -> AnsatzSpec:
    """Ansatz matching the problem: boundary-exact for elliptic problems,
    initial/boundary-exact for heat problems."""
    if mode is None:
        mode = "parabolic_exact" if problem.kind == "heat" else "exact_bc"
    if mode == "parabolic_exact":
        return build_spec(problem.domain, mode=mode, initial=problem.initial,
                          hidden=hidden, seed=seed)
    if mode == "exact_bc":
        return build_spec(problem.domain, mode=mode, lift=problem.lift,
                          hidden=hidden, seed=seed)
    return build_spec(problem.domain, mode=mode, hidden=hidden, seed=seed)


def _poisson_from_exact(name, domain, u_expr, lift_expr=None) -> PdeProblem:
    """Manufacture f = -Laplace(u*) symbolically."""
    syms = symbols_for(2)
    u = sp.sympify(u_expr)
    f = sp.expand(-sum(sp.diff(u, s, 2) for s in syms))
    g = None
    lift = None
    if lift_expr is not None:
        lift = AnalyticField(lift_expr, syms)
        g = AnalyticField(lift_expr, syms)
    return PdeProblem(
        name=name, kind="poisson", domain=domain,
        rhs=AnalyticField(f, syms), boundary=g, lift=lift,
        exact=AnalyticField(u, syms),
    )


@lru_cache(maxsize=1)
def builtin_problems() -> dict[str, PdeProblem]:
    x, y = symbols_for(2)
    t, xs, ys = symbols_for(3, spacetime=True)

    p1 = _poisson_from_exact(
        "P1", Rectangle((0.0, 0.0), (1.0, 1.0)), sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    )
    p2 = _poisson_from_exact("P2", Disk((0.0, 0.0), 1.0), (1 - x**2 - y**2) / 4)

    # variable-coefficient divergence-form problem, f manufactured symbolically
    a = 1 + (x**2 + y**2) / 2
    u3 = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    coeff = MatrixField.isotropic(AnalyticField(a, (x, y)))
    f3 = sp.expand(-sum(sp.diff(a * sp.diff(u3, s), s) for s in (x, y)))
    p3 = PdeProblem(
        name="P3", kind="elliptic_divA", domain=Rectangle((0.0, 0.0), (1.0, 1.0)),
        rhs=AnalyticField(f3, (x, y)), coeff=coeff,
        coeff_div=tuple(coeff.divergence()), ellipticity=1.0,
        exact=AnalyticField(u3, (x, y)),
    )

    u4 = sp.exp(-2 * sp.pi**2 * t) * sp.sin(sp.pi * xs) * sp.sin(sp.pi * ys)
    f4 = sp.simplify(sp.diff(u4, t) - sp.diff(u4, xs, 2) - sp.diff(u4, ys, 2))
    p4 = PdeProblem(
        name="P4", kind="heat",
        domain=SpaceTimeBox(0.2, Rectangle((0.0, 0.0), (1.0, 1.0))),
        rhs=AnalyticField(f4, (t, xs, ys)),
        initial=AnalyticField(sp.sin(sp.pi * x) * sp.sin(sp.pi * y), (x, y)),
        exact=AnalyticField(u4, (t, xs, ys)),
    )

    p5 = _poisson_from_exact(
        "P5", Rectangle((0.0, 0.0), (1.0, 1.0)), x**2 - y**2, lift_expr=x**2 - y**2
    )

    return {p.name: p for p in (p1, p2, p3, p4, p5)}


def get_problem(name: str) -> PdeProblem:
    reg = builtin_problems()
    if name not in reg:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(reg)}")
    return reg[name]
