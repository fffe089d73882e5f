"""Exact point configurations on the modified moment curve.

The curve behind the face-maximizing family, (t, t^2, ..., t^(d-1), p(t)),
keeps the first d-1 moment coordinates and replaces the last one by a
polynomial-with-power factor p that vanishes on a prescribed prefix of
the parameter grid, forcing those points into a common hyperplane.  A
point is held only as its primitive integer vector (w, w*x), w > 0, the
form aspoly.hull's sign decisions run on; rationals appear only in JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .enumerative import ASPParams
from .errors import DomainError, ShapeError
from .exactnum import format_rational


@dataclass(frozen=True)
class PointConfig:
    """n points in R^d; point i (ids 1..n) is hom[i-1], the primitive integer (w, w*x), w > 0."""

    d: int
    hom: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for pid, h in enumerate(self.hom, start=1):
            if len(h) != self.d + 1:
                raise ShapeError(f"point {pid} has {len(h) - 1} coordinates, not {self.d}")
            if h[0] <= 0 or math.gcd(*h) != 1:
                raise ShapeError(f"point {pid} is not a primitive integer (w, w*x) with w > 0")
            if h in seen:
                raise ShapeError(f"point {pid} duplicates an earlier point")
            seen.add(h)

    @classmethod
    def from_rationals(cls, d: int, rows: Iterable[Sequence[Fraction | int]]) -> PointConfig:
        """Points from rational coordinates: w is the lcm of a point's denominators."""
        hom = []
        for coords in rows:
            w = math.lcm(*(c.denominator for c in coords))
            hom.append((w, *(c.numerator * (w // c.denominator) for c in coords)))
        return cls(d, tuple(hom))

    @property
    def n(self) -> int:
        return len(self.hom)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "points": [
                {"id": pid, "coords": [format_rational(Fraction(c, w)) for c in x]}
                for pid, (w, *x) in enumerate(self.hom, start=1)
            ],
        }


def p_eval(t: int, params: ASPParams) -> int:
    """Last-coordinate polynomial: (n-1)^((t-1)(d-1)) * t(t+1)...(t+d+s-1).

    An integer on the curve's grid: zero exactly for t in {-(d+s-1), ..., 0},
    where the power's exponent is negative, and positive for t >= 1.  Below
    the grid the value is not an integer, so such t are refused.  The power
    factor grows the tail fast enough that late points see the earlier ones
    as nearly flat.
    """
    if not isinstance(t, int):
        raise DomainError("only integer curve parameters are supported")
    d, n, s = params.d, params.n, params.s
    if t < 1 - d - s:
        raise DomainError(f"curve parameters start at {1 - d - s}, got {t}")
    prod = 1
    for j in range(d + s):
        prod *= t + j
    return (n - 1) ** max(0, (t - 1) * (d - 1)) * prod


def curve_parameters(params: ASPParams) -> tuple[int, ...]:
    """Integer grid t_i = -s-d+i for i = 1..n; the first d+s are roots of p."""
    return tuple(-params.s - params.d + i for i in range(1, params.n + 1))


def almost_cyclic_points(params: ASPParams) -> PointConfig:
    """The n-point configuration generating the face-maximizing family.

    The first d+s points have last coordinate zero, so they span the
    non-simplex facet; all later points sit strictly above that hyperplane.
    Ids 1..n follow the ascending parameters of curve_parameters.  Every
    coordinate is an integer, so each point is (1, x).
    """
    rows = (
        (1, *(t**k for k in range(1, params.d)), p_eval(t, params))
        for t in curve_parameters(params)
    )
    return PointConfig(params.d, tuple(rows))
