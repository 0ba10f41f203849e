"""A posteriori error certificates from training losses.

For every built-in problem kind the residual of an ansatz with exact
boundary (and initial) values bounds the error with a proven constant,
||v - u*|| <= c * sqrt(loss): the H2 norm with ``c_reg_convex`` (poisson)
or ``c_div_form`` (elliptic_divA), the X norm with ``c_heat`` (heat);
``certified_h2_bound`` and ``parabolic_bound`` build the two reports, and
``rescert certify-run`` picks one by the problem's kind.  Each proof chain
is in its function's docstring.  Every constant has provenance
"convex_formula", a kind without one is refused with a ``ValueError``, and
a penalty loss certifies nothing above H^(1/2).  A report derives its bound
constant * sqrt(loss); ``CertifiedReport.violation`` is the one predicate
for a broken bound: a measured error above it beyond the 2 percent
``QUAD_HEADROOM``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi, sqrt
from typing import Optional

from .geometry import Disk, Domain, Rectangle, SpaceTimeBox
from .problems import PdeProblem

PROVENANCE_CONVEX = "convex_formula"

NORM_H2 = "H2"
NORM_X_PARABOLIC = "X_parabolic"

QUAD_HEADROOM = 0.02

J01 = 2.404825557695773  # first positive zero of the Bessel function J_0


class BoundViolation(RuntimeError):
    """A measured error exceeded a certified bound beyond the headroom."""


@dataclass(frozen=True)
class CertifiedReport:
    """One certificate: bound = constant * sqrt(loss) in the named norm."""

    norm_label: str
    loss: float
    constant: float
    measured_error: Optional[float] = None
    # class attributes, not fields: every constant rescert derives is proven
    constant_provenance = PROVENANCE_CONVEX
    certified = True

    def __post_init__(self):
        loss = float(self.loss)
        if not 0.0 <= loss < inf:
            raise ValueError(f"loss must be finite and nonnegative, got {loss}")
        if not 0.0 < self.constant < inf:
            raise ValueError(f"constant must be finite and positive, got {self.constant}")
        object.__setattr__(self, "loss", loss)

    @property
    def bound(self) -> float:
        return self.constant * sqrt(self.loss)

    def bound_holds(self) -> bool:
        """measured_error <= bound * (1 + QUAD_HEADROOM); True if unmeasured."""
        if self.measured_error is None:
            return True
        return self.measured_error <= self.bound * (1.0 + QUAD_HEADROOM)

    def violation(self) -> str:
        """Why the bound fails its measurement; "" when it holds."""
        if self.bound_holds():
            return ""
        return (f"{self.norm_label} error {self.measured_error:.6e} exceeds "
                f"bound {self.bound:.6e} (headroom {QUAD_HEADROOM:.0%})")

    def check(self) -> "CertifiedReport":
        """self, or BoundViolation with ``violation()``'s message."""
        if message := self.violation():
            raise BoundViolation(message)
        return self

    def text_block(self) -> str:
        lines = [
            f"norm:        {self.norm_label}",
            f"loss:        {self.loss!r}",
            f"constant:    {self.constant!r}  ({self.constant_provenance})",
            f"bound:       {self.bound!r}",
            f"headroom:    {QUAD_HEADROOM!r}",
            f"certified:   {self.certified}",
        ]
        if self.measured_error is not None:
            lines.append(f"measured:    {self.measured_error!r}  "
                         f"(holds: {self.bound_holds()})")
        return "\n".join(lines)


def _lambda1(domain: Domain) -> float:
    """First Dirichlet eigenvalue, exact for every accepted domain:
    pi^2 (1/a^2 + 1/b^2) on an a x b rectangle and j01^2 / R^2 on a disk of
    radius R (j01 the first zero of J_0)."""
    if isinstance(domain, Rectangle):
        a, b = (h - l for l, h in zip(domain.lo, domain.hi))
        return pi**2 * (1.0 / a**2 + 1.0 / b**2)
    if isinstance(domain, Disk):
        return J01**2 / domain.radius**2
    raise TypeError(f"no convex-domain constant for {type(domain).__name__}")


def c_reg_convex(domain: Domain) -> float:
    """Constant c with ||e||_H2 <= c ||Laplace(e)||_L2 for every e in
    H2 and H1_0 on a convex domain: c = sqrt(1 + 1/lambda_1 + 1/lambda_1^2).

    Proof chain, with e = v - u* (zero on the boundary for an exact-boundary
    ansatz) and Laplace(e) the residual, so ||Laplace(e)|| = sqrt(loss):
    - ||D^2 e|| <= ||Laplace(e)|| on convex domains (Grisvard, Elliptic
      Problems in Nonsmooth Domains, 1985, Thm 3.1.1.2);
    - ||grad e||^2 = (-Laplace(e), e) <= ||Laplace(e)|| ||e|| and the
      Poincare inequality ||e|| <= lambda_1^(-1/2) ||grad e|| give
      ||grad e|| <= lambda_1^(-1/2) ||Laplace(e)||;
    - hence ||e|| <= lambda_1^(-1) ||Laplace(e)||, and summing the squares
      of the three parts gives c.
    lambda_1 is exact for every accepted domain (``_lambda1``).  All three
    parts are attained by the first eigenfunction, so the constant is sharp
    on rectangles.
    """
    lam = _lambda1(domain)
    return sqrt(1.0 + 1.0 / lam + 1.0 / lam**2)


def c_div_form(domain: Domain, a_min: float, grad_bound: float) -> float:
    """Constant c with ||e||_H2 <= c ||div(a grad e)||_L2 for every e in H2
    and H1_0 on a convex domain, when a >= a_min > 0 and |grad a| <= G:
    c = sqrt((1/(a_min l1))^2 + (1/(a_min sqrt(l1)))^2
             + ((1 + G/(a_min sqrt(l1))) / a_min)^2), l1 = lambda_1.

    Proof chain, with e = v - u* and r = div(a grad e), so ||r|| = sqrt(loss):
    - energy: a_min ||grad e||^2 <= (a grad e, grad e) = -(r, e)
      <= ||r|| ||e|| <= ||r|| l1^(-1/2) ||grad e|| (Poincare), so
      ||grad e|| <= ||r|| / (a_min sqrt(l1)) and ||e|| <= ||r|| / (a_min l1);
    - a Laplace(e) = r - grad a . grad e, so a_min ||Laplace(e)||
      <= ||r|| + G ||grad e|| <= (1 + G / (a_min sqrt(l1))) ||r||;
    - ||D^2 e|| <= ||Laplace(e)|| on convex domains (as in
      ``c_reg_convex``), and summing the squares of the three parts gives c.
    For P3 (a_min = 1, G = sqrt(2), l1 = 2 pi^2) c = 1.3383.
    """
    lam = _lambda1(domain)
    return sqrt((1.0 / (a_min * lam))**2 + (1.0 / (a_min * sqrt(lam)))**2
                + ((1.0 + grad_bound / (a_min * sqrt(lam))) / a_min)**2)


def c_heat(box: SpaceTimeBox) -> float:
    """Constant c with ||e||_X <= c ||d_t e - Laplace(e)||_L2(L2) on a
    cylinder (0, T) x Omega with Omega convex, for e = 0 at t = 0 and on
    the lateral boundary; ||e||_X = ||d_t e||_L2(L2) + ||e||_L2(H2) is the
    norm of ``quadrature.x_norm_error``.  c = sqrt(1 + c_reg_convex(Omega)^2).

    Proof chain, with e = v - u* (e(0) = 0 as v = u0 at t = 0, e = 0
    laterally as u0 = 0 on the boundary) and r = d_t e - Laplace(e):
    - in space -(d_t e, Laplace(e)) = (grad d_t e, grad e) = 1/2 d/dt
      ||grad e||^2, so expanding ||r||^2 and integrating in time gives
      ||d_t e||^2 + ||Laplace(e)||^2 + ||grad e(T)||^2 = ||r||^2;
    - at each time ||e(t)||_H2 <= c_reg ||Laplace(e(t))|| (``c_reg_convex``),
      so ||e||_L2(H2) <= c_reg ||Laplace(e)||, and by Cauchy-Schwarz
      ||d_t e|| + c_reg ||Laplace(e)|| <= sqrt(1 + c_reg^2) ||r||.
    For P4 on the unit square c = 1.4329.
    """
    return sqrt(1.0 + c_reg_convex(box.spatial)**2)


def certified_h2_bound(loss: float, domain: Domain, problem: PdeProblem,
                       measured_error: Optional[float] = None) -> CertifiedReport:
    """H2 certificate for the exact-boundary residual loss of a spatial
    problem on its own domain; ValueError for another domain, and for a heat
    problem, which ``parabolic_bound`` certifies."""
    if problem.kind == "heat":
        raise ValueError(f"certified_h2_bound covers spatial problems, {problem.name} "
                         f"is {problem.kind}; parabolic_bound certifies it")
    if domain != problem.domain:
        raise ValueError(f"{problem.name} lives on {problem.domain}, not on {domain}")
    if problem.kind == "poisson":
        c = c_reg_convex(domain)
    else:
        c = c_div_form(domain, problem.ellipticity, problem.coeff_grad_bound)
    return CertifiedReport(norm_label=NORM_H2, loss=loss, constant=c,
                           measured_error=measured_error)


def parabolic_bound(loss: float, problem: PdeProblem,
                    measured_error: Optional[float] = None) -> CertifiedReport:
    """X-norm certificate ||error||_X <= c_heat * sqrt(loss) for the
    exact-boundary residual loss of a heat problem; ValueError for any
    other kind."""
    if problem.kind != "heat":
        raise ValueError(f"parabolic_bound covers heat problems, {problem.name} "
                         f"is {problem.kind}")
    return CertifiedReport(norm_label=NORM_X_PARABOLIC, loss=loss,
                           constant=c_heat(problem.domain), measured_error=measured_error)
