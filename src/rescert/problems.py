"""Dirichlet model problems with manufactured solutions.

Each problem fixes a domain, a right-hand side f, Dirichlet data stated once
as a closed-form lift (g is its trace; a problem built without a lift gets
the zero field) and, when available, the exact solution used for error
measurement.  A heat problem lives on a space-time box and carries its
initial data u0 (zero without a lift) as the lift, u0 extended in time; its
lateral data are zero.  A problem is refused at construction unless its
certificate's proof (``certify``) holds for it: an
elliptic_divA problem declares a >= ellipticity > 0 and |grad a| <=
coeff_grad_bound, bounds that a and grad a must not break on sample nodes
(sampling refuses a contradiction but does not prove a bound); a heat
problem's u0 vanishes on the spatial boundary; and u* takes the lift's
data to 1e-12 (heat: at t = 0, and zero on the lateral boundary).  Every
field is an ``AnalyticField`` jet expression; f is written by hand next to
u*, not derived at build time, and the tests check that each u* solves its
PDE.
Residual conventions (assembled as jet rows by ``losses.residual_rows``):

    poisson        r = Laplace(v) + f
    elliptic_divA  r = div(a grad v) + f, isotropic A = a I
    heat           r = d_t v - Laplace(v) - f
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, pi, sqrt
from typing import Optional

import numpy as np

from .ansatz import AnsatzSpec
from .fields import AnalyticField
from .geometry import Disk, Domain, Rectangle, SpaceTimeBox
from .jets import cos, exp, sin
from .network import NetworkParams
from .quadrature import TARGETS, build_rule

KINDS = ("poisson", "elliptic_divA", "heat")


@dataclass(frozen=True)
class PdeProblem:
    name: str
    kind: str
    domain: Domain
    rhs: AnalyticField                       # f
    lift: Optional[AnalyticField] = None      # extends g (heat: u0); None: the zero field
    coeff: Optional[AnalyticField] = None     # a of A = a I, elliptic_divA only
    ellipticity: Optional[float] = None       # uniform lower bound of a
    coeff_grad_bound: Optional[float] = None  # uniform upper bound of |grad a|
    exact: Optional[AnalyticField] = None     # manufactured solution

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.lift is None:
            object.__setattr__(self, "lift", AnalyticField(lambda s: 0.0, self.domain.dim))
        heat = self.kind == "heat"
        if heat:
            if not isinstance(self.domain, SpaceTimeBox):
                raise ValueError("heat problems need a space-time domain")
            nodes = build_rule(self.domain.spatial, "boundary", 8).nodes
            u0 = self.lift.values(np.column_stack([np.zeros(len(nodes)), nodes]))
            if not (worst := np.max(np.abs(u0))) <= 1e-12:  # NaN fails too
                raise ValueError(f"heat problems need u0 = 0 on the spatial boundary, "
                                 f"where |u0| reaches {worst:.3e}: the certificate's "
                                 "proof needs a zero lateral error")
        elif isinstance(self.domain, SpaceTimeBox):
            raise ValueError(f"{self.kind} problems need a spatial domain")
        if self.kind == "elliptic_divA":
            lo, hi = self.ellipticity, self.coeff_grad_bound
            if None in (self.coeff, lo, hi) or not (lo > 0 and 0 <= hi < inf):
                raise ValueError("elliptic_divA problems need a coefficient a and the bounds "
                                 "their certificate rests on: a >= ellipticity > 0 and "
                                 "|grad a| <= coeff_grad_bound, finite")
            # a and |grad a| on 8-point rules: refuses bounds they break, proves none
            X = np.concatenate([build_rule(self.domain, t, 8).nodes for t in TARGETS])
            a = self.coeff.jets(X, 1)
            a_min, grad_max = np.min(a[:, 0]), np.max(np.linalg.norm(a[:, 1:], axis=1))
            if not (a_min >= lo and grad_max <= hi):  # NaN fails too
                raise ValueError(f"{self.name}'s coefficient breaks its bounds: a reaches "
                                 f"{a_min:.7g} (ellipticity {lo:.7g}) and |grad a| "
                                 f"{grad_max:.7g} (coeff_grad_bound {hi:.7g})")
        if self.exact is not None:  # u* takes the data the lift states
            if heat:  # on the initial slice t = 0
                X = build_rule(self.domain.spatial, "interior", 8).nodes
                X = np.column_stack([np.zeros(len(X)), X])
            else:
                X = build_rule(self.domain, "boundary", 8).nodes
            if not (gap := np.max(np.abs(self.exact.values(X) - self.lift.values(X)))) <= 1e-12:
                raise ValueError(f"{self.name}'s exact solution differs from its "
                                 f"{'initial' if heat else 'boundary'} data by {gap:.3e}")
            if heat:  # zero on the spatial boundary nodes at 8 Gauss times in (0, T)
                t = 0.5 * self.domain.horizon * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
                X = np.column_stack([np.repeat(t, len(nodes)), np.tile(nodes, (len(t), 1))])
                if not (gap := np.max(np.abs(self.exact.values(X)))) <= 1e-12:
                    raise ValueError(f"{self.name}'s exact solution is not zero on the "
                                     f"lateral boundary, where |u*| reaches {gap:.3e}")


def default_spec(problem: PdeProblem, hidden=(16, 16), seed: int = 0,
                 mode: str = "exact_bc") -> AnsatzSpec:
    """Fresh Xavier-initialised spec for the problem, hidden layers as given."""
    widths = (problem.domain.dim,) + tuple(hidden) + (1,)
    return AnsatzSpec(NetworkParams.xavier(widths, seed=seed), problem, mode)


def _sinsin(s):
    return sin(pi * s[0]) * sin(pi * s[1])


@lru_cache(maxsize=1)
def builtin_problems() -> dict[str, PdeProblem]:
    """The five model problems.  P1's f is evaluated left to right as
    2 pi^2 sin(pi x) sin(pi y): the benchmark's recorded reference losses
    rest on exactly those bits."""
    unit_square = Rectangle((0.0, 0.0), (1.0, 1.0))

    # u* = sin(pi x) sin(pi y), f = -Laplace(u*) = 2 pi^2 u*
    p1 = PdeProblem(
        name="P1", kind="poisson", domain=unit_square,
        rhs=AnalyticField(lambda s: 2 * pi**2 * sin(pi * s[0]) * sin(pi * s[1]), 2),
        exact=AnalyticField(_sinsin, 2),
    )
    # u* = (1 - x^2 - y^2) / 4, f = -Laplace(u*) = 1
    p2 = PdeProblem(
        name="P2", kind="poisson", domain=Disk((0.0, 0.0), 1.0),
        rhs=AnalyticField(lambda s: 1.0, 2),
        exact=AnalyticField(lambda s: -0.25 * (s[0] * s[0]) - 0.25 * (s[1] * s[1]) + 0.25, 2),
    )
    # A = a I with a = 1 + (x^2 + y^2) / 2 >= 1, |grad a| = |(x, y)| <= sqrt(2)
    # and u* = sin(pi x) sin(pi y):
    # f = -div(a grad u*) = -a Laplace(u*) - grad a . grad u*
    def a(s):
        return 0.5 * (s[0] * s[0]) + 0.5 * (s[1] * s[1]) + 1

    def f3(s):
        x, y = s
        return (2 * pi**2 * a(s) * _sinsin(s) - pi * x * cos(pi * x) * sin(pi * y)
                - pi * y * sin(pi * x) * cos(pi * y))

    p3 = PdeProblem(
        name="P3", kind="elliptic_divA", domain=unit_square,
        rhs=AnalyticField(f3, 2), coeff=AnalyticField(a, 2), ellipticity=1.0,
        coeff_grad_bound=sqrt(2.0),
        exact=AnalyticField(_sinsin, 2),
    )
    # u* = exp(-2 pi^2 t) sin(pi x) sin(pi y) on (t, x, y): d_t u* = Laplace(u*), f = 0
    p4 = PdeProblem(
        name="P4", kind="heat", domain=SpaceTimeBox(0.2, unit_square),
        rhs=AnalyticField(lambda s: 0.0, 3),
        lift=AnalyticField(_sinsin, 2).time_extended(),
        exact=AnalyticField(
            lambda s: exp(-2 * pi**2 * s[0]) * sin(pi * s[1]) * sin(pi * s[2]), 3),
    )
    # u* = x^2 - y^2 is harmonic (f = 0) and is its own lift of g = u*
    harmonic = AnalyticField(lambda s: s[0] * s[0] - s[1] * s[1], 2)
    p5 = PdeProblem(
        name="P5", kind="poisson", domain=unit_square,
        rhs=AnalyticField(lambda s: 0.0, 2), lift=harmonic, exact=harmonic,
    )

    return {p.name: p for p in (p1, p2, p3, p4, p5)}


def get_problem(name: str) -> PdeProblem:
    reg = builtin_problems()
    if name not in reg:
        raise KeyError(f"unknown problem {name!r}; available: {sorted(reg)}")
    return reg[name]
