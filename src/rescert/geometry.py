"""Domains (rectangle, disk, space-time box) and their distance factors:
polynomial fields that vanish exactly on the Dirichlet boundary and are
strictly positive inside.

A factor is written once, as jet arithmetic on coordinate seeds, and
evaluated on a whole batch of points at once (``TaylorJet`` slots of shape
(C, N)).  Order 0 gives plain values.  On a space-time box (t, x...) the
factor is t * L(x), built from the space-time seeds, so it vanishes on the
initial slice and on the lateral boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, pi
from typing import Union

import numpy as np

from .jets import TaylorJet, seed_point


@dataclass(frozen=True)
class Rectangle:
    lo: tuple[float, float] = (0.0, 0.0)
    hi: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError("rectangle needs two coordinates per corner")
        for name, corner in (("lo", self.lo), ("hi", self.hi)):
            if not all(isfinite(c) for c in corner):
                raise ValueError(f"rectangle corner {name} must be finite, got {corner}")
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty rectangle lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return 2

    @property
    def measure(self) -> float:
        return (self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1])

    def bounding_box(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if len(self.center) != 2 or not all(isfinite(c) for c in self.center):
            raise ValueError(f"disk center needs two finite coordinates, got {self.center}")
        if not 0 < self.radius < inf:
            raise ValueError(f"disk radius must be finite and positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return 2

    @property
    def measure(self) -> float:
        return pi * self.radius**2

    def bounding_box(self):
        c = np.asarray(self.center, dtype=float)
        r = self.radius
        return c - r, c + r


@dataclass(frozen=True)
class SpaceTimeBox:
    """Cylinder (0, horizon) x spatial domain; nodes are laid out (t, x...)."""

    horizon: float
    spatial: Union[Rectangle, Disk]

    def __post_init__(self):
        if not 0 < self.horizon < inf:
            raise ValueError(f"time horizon must be finite and positive, got {self.horizon}")
        if not isinstance(self.spatial, (Rectangle, Disk)):
            raise ValueError(f"spatial part of a space-time box must be a Rectangle or "
                             f"a Disk, got spatial = {self.spatial!r}")

    @property
    def dim(self) -> int:
        return 1 + self.spatial.dim

    @property
    def measure(self) -> float:
        return self.horizon * self.spatial.measure

    def bounding_box(self):
        lo, hi = self.spatial.bounding_box()
        return np.concatenate(([0.0], lo)), np.concatenate(([self.horizon], hi))


Domain = Union[Rectangle, Disk, SpaceTimeBox]


def _factor(domain: Domain, s) -> TaylorJet:
    """Distance factor as jet arithmetic on the coordinate jets s."""
    if isinstance(domain, Rectangle):
        out = (s[0] - domain.lo[0]) * (domain.hi[0] - s[0])
        return out * ((s[1] - domain.lo[1]) * (domain.hi[1] - s[1]))
    if isinstance(domain, Disk):
        d0 = s[0] - domain.center[0]
        d1 = s[1] - domain.center[1]
        return (domain.radius**2 - d0 * d0) - d1 * d1
    if isinstance(domain, SpaceTimeBox):
        return s[0] * _factor(domain.spatial, s[1:])
    raise TypeError(f"no distance factor for domain {type(domain).__name__}")


def distance_jet(domain: Domain, X, order: int) -> TaylorJet:
    """Jet of the distance factor at a point X (d,) or at every point of a
    batch X (N, d), built from coordinate seeds so the polynomial structure
    (and its exact boundary zeros) is preserved."""
    X = np.atleast_1d(np.asarray(X, dtype=float))
    if X.shape[-1] != domain.dim:
        raise ValueError(f"{domain.dim}-dimensional domain, got points of shape {X.shape}")
    return _factor(domain, seed_point(X, order))


def distance_jets(domain: Domain, X, order: int) -> np.ndarray:
    """Packed distance-factor jets for a batch of points, shape (N, C)."""
    return distance_jet(domain, X, order).coeffs.T
