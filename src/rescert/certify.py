"""A posteriori error certificates from training losses.

For the Dirichlet Laplacian on a convex domain the residual controls the
full H2 error with the explicit constant

    c_reg = sqrt(1 + 1/lambda_1 + 1/lambda_1^2),

lambda_1 the first Dirichlet eigenvalue of the domain (exact for every
built-in domain; see ``c_reg_convex``), so ||v - u||_H2 <= c_reg * sqrt(loss)
holds for any ansatz with exact boundary values; a penalty loss certifies
nothing above H^(1/2).  Constants carry provenance "convex_formula" (this
formula), "user_supplied" or "unknown_labeled_heuristic".  A report derives
its bound constant * sqrt(loss) and its certified flag (provenance not
heuristic); ``CertifiedReport.violation`` is the one predicate for a broken
bound: a measured error above it beyond the 2 percent ``QUAD_HEADROOM``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi, sqrt
from typing import Optional

from .geometry import Disk, Domain, Interval, Rectangle, SpaceTimeBox
from .problems import PdeProblem

PROVENANCE_CONVEX = "convex_formula"
PROVENANCE_USER = "user_supplied"
PROVENANCE_HEURISTIC = "unknown_labeled_heuristic"
PROVENANCES = (PROVENANCE_CONVEX, PROVENANCE_USER, PROVENANCE_HEURISTIC)

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
    constant_provenance: str
    measured_error: Optional[float] = None
    note: str = ""

    def __post_init__(self):
        if self.constant_provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.constant_provenance!r}")

    @property
    def bound(self) -> float:
        return self.constant * sqrt(self.loss)

    @property
    def certified(self) -> bool:
        """Whether the constant is a proven one (convex formula or supplied)."""
        return self.constant_provenance != PROVENANCE_HEURISTIC

    def bound_holds(self) -> bool:
        """measured_error <= bound * (1 + QUAD_HEADROOM); True if unmeasured."""
        if self.measured_error is None:
            return True
        return self.measured_error <= self.bound * (1.0 + QUAD_HEADROOM)

    def violation(self) -> str:
        """Why the certified bound fails its measurement; "" when it holds
        or when nothing is certified."""
        if not self.certified or self.bound_holds():
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
        if self.note:
            lines.append(f"note:        {self.note}")
        return "\n".join(lines)


def _check_loss(loss: float) -> float:
    loss = float(loss)
    if not 0.0 <= loss < inf:
        raise ValueError(f"loss must be finite and nonnegative, got {loss}")
    return loss


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
    lambda_1 is exact for every accepted domain: pi^2 / L^2 on an interval
    of length L, pi^2 (1/a^2 + 1/b^2) on an a x b rectangle, and
    j01^2 / R^2 on a disk of radius R (j01 the first zero of J_0).  All
    three parts are attained by the first eigenfunction, so the constant is
    sharp on intervals and rectangles.
    """
    if isinstance(domain, SpaceTimeBox):
        raise TypeError("c_reg_convex applies to spatial domains")
    if isinstance(domain, Interval):
        lam = pi**2 / domain.measure**2
    elif isinstance(domain, Rectangle):
        a, b = (h - l for l, h in zip(domain.lo, domain.hi))
        lam = pi**2 * (1.0 / a**2 + 1.0 / b**2)
    elif isinstance(domain, Disk):
        lam = J01**2 / domain.radius**2
    else:
        raise TypeError(f"no convex-domain constant for {type(domain).__name__}")
    return sqrt(1.0 + 1.0 / lam + 1.0 / lam**2)




def _supplied(norm_label: str, loss: float, constant: float,
              measured_error: Optional[float]) -> CertifiedReport:
    """Certificate with the caller's constant, which must be positive."""
    loss = _check_loss(loss)
    if not constant > 0:
        raise ValueError(f"supplied constant must be positive, got {constant}")
    return CertifiedReport(
        norm_label=norm_label, loss=loss, constant=float(constant),
        constant_provenance=PROVENANCE_USER, measured_error=measured_error,
        note="constant supplied by caller",
    )


def certified_h2_bound(loss: float, domain: Domain,
                       problem: Optional[PdeProblem] = None,
                       constant: Optional[float] = None,
                       measured_error: Optional[float] = None) -> CertifiedReport:
    """H2 certificate for an exact-boundary residual loss.

    The convex formula applies to the Laplacian; for other operators a
    user-supplied constant is required for certification, otherwise the
    report is labelled heuristic with constant 1.
    """
    if constant is not None:
        return _supplied(NORM_H2, loss, constant, measured_error)
    loss = _check_loss(loss)
    if problem is None or problem.kind == "poisson":
        c, prov, note = c_reg_convex(domain), PROVENANCE_CONVEX, ""
    else:
        c, prov = 1.0, PROVENANCE_HEURISTIC
        note = (f"no explicit constant for kind {problem.kind!r}; "
                "sqrt(loss) reported without certification")
    return CertifiedReport(
        norm_label=NORM_H2, loss=loss, constant=c, constant_provenance=prov,
        measured_error=measured_error, note=note,
    )


def parabolic_bound(loss: float, constant: Optional[float] = None,
                    measured_error: Optional[float] = None) -> CertifiedReport:
    """Space-time energy-norm certificate ||error||_X <= C * sqrt(loss).

    C is the operator norm of the solution map of the heat equation on the
    given cylinder; no formula is fabricated for it.  Callers either supply
    it (certified) or receive sqrt(loss) labelled heuristic.
    """
    if constant is not None:
        return _supplied(NORM_X_PARABOLIC, loss, constant, measured_error)
    return CertifiedReport(
        norm_label=NORM_X_PARABOLIC, loss=_check_loss(loss), constant=1.0,
        constant_provenance=PROVENANCE_HEURISTIC, measured_error=measured_error,
        note="solution-map norm unknown; sqrt(loss) reported without certification",
    )
