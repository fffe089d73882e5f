"""Exact point configurations on the modified moment curve.

The curve behind the face-maximizing family, (t, t^2, ..., t^(d-1), p(t)),
keeps the first d-1 moment coordinates and replaces the last one by a
polynomial-with-power factor p that vanishes on a prescribed prefix of
the parameter grid, forcing those points into a common hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumerative import ASPParams
from .errors import DomainError, ShapeError
from .exactnum import format_rational


@dataclass(frozen=True)
class PointConfig:
    """Ordered rational points; ids 1..n follow ascending curve parameter."""

    d: int
    points: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def __post_init__(self):
        seen = set()
        for i, (pid, coords) in enumerate(self.points, start=1):
            if pid != i:
                raise ShapeError(f"point ids must be 1..n in order, got {pid} at {i}")
            if len(coords) != self.d:
                raise ShapeError(f"point {pid} has {len(coords)} coordinates, not {self.d}")
            # (numerator, denominator) pairs hash much faster than Fractions.
            key = tuple((x.numerator, x.denominator) for x in coords)
            if key in seen:
                raise ShapeError(f"point {pid} duplicates an earlier point")
            seen.add(key)

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "points": [
                {"id": pid, "coords": [format_rational(x) for x in coords]}
                for pid, coords in self.points
            ],
        }


def p_eval(t: int, params: ASPParams) -> Fraction:
    """Last-coordinate polynomial: (n-1)^((t-1)(d-1)) * t(t+1)...(t+d+s-1).

    Vanishes exactly for t in {-(d+s-1), ..., 0} and is positive for t >= 1.
    The power factor grows the tail fast enough that late points see the
    earlier ones as nearly flat.
    """
    if not isinstance(t, int):
        raise DomainError("only integer curve parameters are supported")
    d, n, s = params.d, params.n, params.s
    prod = 1
    for j in range(d + s):
        prod *= t + j
    return Fraction(n - 1) ** ((t - 1) * (d - 1)) * prod


def curve_parameters(params: ASPParams) -> tuple[int, ...]:
    """Integer grid t_i = -s-d+i for i = 1..n; the first d+s are roots of p."""
    return tuple(-params.s - params.d + i for i in range(1, params.n + 1))


def almost_cyclic_points(params: ASPParams) -> PointConfig:
    """The n-point configuration generating the face-maximizing family.

    The first d+s points have last coordinate zero, so they span the
    non-simplex facet; all later points sit strictly above that hyperplane.
    Ids 1..n follow the ascending parameters of curve_parameters.
    """
    points = (
        (i, (*(Fraction(t) ** k for k in range(1, params.d)), p_eval(t, params)))
        for i, t in enumerate(curve_parameters(params), start=1)
    )
    return PointConfig(params.d, tuple(points))
