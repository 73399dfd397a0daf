"""Geometry of the unperturbed oscillator.

The conservative system is

    x' = y,   y' = x - x**3,

with first integral H(x, y) = y**2/2 - x**2/2 + x**4/4.  Its phase portrait
has two centers at (+-1, 0) on the level H = -1/4 and a saddle at the origin
on the level H = 0.  Closed orbits come in three families ("annuli"): the two
lobes inside the figure-eight separatrix, parameterized by h in (-1/4, 0),
and the exterior family surrounding the whole eight, parameterized by h > 0.

Everything here is elementary closed-form plumbing: level-set geometry,
branch points of the oval y(x), and the Poincare cross-sections used by the
rest of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

H_CENTER = -0.25
H_SADDLE = 0.0


def hamiltonian(x, y):
    """H(x, y) = y^2/2 - x^2/2 + x^4/4.  Accepts scalars or arrays, real or complex."""
    return 0.5 * y * y - 0.5 * x * x + 0.25 * x * x * x * x


class DomainError(ValueError):
    """An energy level fell outside the annulus it was used with."""


class Annulus(enum.Enum):
    """Which family of closed orbits, with its open energy interval."""

    INTERIOR_LEFT = "interior-left"
    INTERIOR_RIGHT = "interior-right"
    EXTERIOR = "exterior"

    @property
    def sigma(self) -> tuple[float, float]:
        """Open interval of admissible energies (upper bound inf for the exterior)."""
        if self is Annulus.EXTERIOR:
            return (H_SADDLE, math.inf)
        return (H_CENTER, H_SADDLE)

    def contains(self, h: float) -> bool:
        lo, hi = self.sigma
        return lo < h < hi

    def require(self, h: float) -> None:
        if not self.contains(h):
            lo, hi = self.sigma
            raise DomainError(
                f"h={h!r} outside the energy interval ({lo}, {hi}) of the {self.value} annulus"
            )

    @classmethod
    def from_label(cls, label: str) -> "Annulus":
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(f"unknown annulus label {label!r}; expected one of "
                         + ", ".join(m.value for m in cls))


@dataclass(frozen=True)
class OvalGeometry:
    """x-extent of a closed level oval."""

    h: float
    annulus: Annulus
    x_lo: float
    x_hi: float


def branch_points(h: float, annulus: Annulus) -> OvalGeometry:
    """Roots of 2h + x^2 - x^4/2 = 0 bounding the oval at level h.

    The quartic has roots x^2 = 1 +- sqrt(1 + 4h).  The exterior oval spans
    the symmetric interval [-x_hi, x_hi] with x_hi^2 = 1 + sqrt(1 + 4h); an
    interior lobe spans the interval between the two roots of one sign.
    """
    annulus.require(h)
    s = math.sqrt(1.0 + 4.0 * h)
    outer = math.sqrt(1.0 + s)
    if annulus is Annulus.EXTERIOR:
        return OvalGeometry(h, annulus, -outer, outer)
    inner = math.sqrt(1.0 - s)
    if annulus is Annulus.INTERIOR_RIGHT:
        return OvalGeometry(h, annulus, inner, outer)
    return OvalGeometry(h, annulus, -outer, -inner)


def section_point(h: float, annulus: Annulus) -> tuple[float, float]:
    """Canonical cross-section point on the oval at level h.

    Interior lobes use the segment {y = 0} outside the center (x in (1, sqrt(2))
    for the right lobe, mirrored for the left); the exterior family uses the
    upper half-axis {x = 0, y > 0}.  On each of these transversals h restricts
    to a monotone coordinate, so first-return maps are well defined in h.
    """
    annulus.require(h)
    if annulus is Annulus.EXTERIOR:
        return (0.0, math.sqrt(2.0 * h))
    x = math.sqrt(1.0 + math.sqrt(1.0 + 4.0 * h))
    if annulus is Annulus.INTERIOR_LEFT:
        return (-x, 0.0)
    return (x, 0.0)
