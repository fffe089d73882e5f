"""Exact point configurations on modified moment curves.

The curve behind the face-maximizing family keeps the first d-1 moment
coordinates and replaces the last one by a polynomial-with-power factor
that vanishes on a prescribed prefix of the parameter grid, forcing those
points into a common hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .enumerative import ASPParams
from .errors import DomainError, ShapeError
from .exactnum import format_rational

TailPoly = Callable[[int], Fraction]


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

    def coords(self, pid: int) -> tuple[Fraction, ...]:
        return self.points[pid - 1][1]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "points": [
                {"id": pid, "coords": [format_rational(x) for x in coords]}
                for pid, coords in self.points
            ],
        }


@dataclass(frozen=True)
class CurveSpec:
    """Curve (t, t^2, ..., t^(d-r), p_1(t), ..., p_r(t))."""

    d: int
    r: int
    tail_polys: tuple[TailPoly, ...]

    def __post_init__(self):
        if not 0 <= self.r < self.d:
            raise DomainError(f"need 0 <= r < d, got r={self.r}, d={self.d}")
        if len(self.tail_polys) != self.r:
            raise ShapeError(f"expected {self.r} tail polynomials")

    def point(self, t: int) -> tuple[Fraction, ...]:
        head = tuple(Fraction(t) ** k for k in range(1, self.d - self.r + 1))
        return head + tuple(p(t) for p in self.tail_polys)


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


def almost_cyclic_spec(params: ASPParams) -> CurveSpec:
    return CurveSpec(params.d, 1, (lambda t: p_eval(t, params),))


def general_curve_points(spec: CurveSpec, ts: Iterable[int]) -> PointConfig:
    """Points x(t) for the given parameters, ids assigned in ascending t."""
    tlist = sorted(ts)
    if len(set(tlist)) != len(tlist):
        raise DomainError("curve parameters must be distinct")
    pts = tuple((i, spec.point(t)) for i, t in enumerate(tlist, start=1))
    return PointConfig(spec.d, pts)


def almost_cyclic_points(params: ASPParams) -> PointConfig:
    """The n-point configuration generating the face-maximizing family.

    The first d+s points have last coordinate zero, so they span the
    non-simplex facet; all later points sit strictly above that hyperplane.
    """
    return general_curve_points(almost_cyclic_spec(params), curve_parameters(params))
