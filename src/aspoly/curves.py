"""Exact point configurations on the modified moment curve.

The curve behind the face-maximizing family, (t, t^2, ..., t^(d-1), p(t)),
keeps the first d-1 moment coordinates and replaces the last one by the
rising factorial p(t) = t(t+1)...(t+d+s-1), which vanishes on a
prescribed prefix of the parameter grid, forcing those points into a
common hyperplane.  No coordinate depends on n, so the n-point
configuration is the first n points of one sequence per (d, s).  A
point is held only as its primitive integer vector (w, w*x), w > 0, the
form aspoly.hull's sign decisions run on; rationals appear only in JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Sequence

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
            _check_point(self.d, pid, h, seen)
            seen.add(h)

    def with_point(self, h: tuple[int, ...]) -> PointConfig:
        """This configuration with h appended as point n+1, validating h alone.

        The points already held passed the constructor's checks, so h
        meets the same ones, with the same refusals, against them.
        """
        _check_point(self.d, self.n + 1, h, self.hom)
        config = object.__new__(PointConfig)
        object.__setattr__(config, "d", self.d)
        object.__setattr__(config, "hom", (*self.hom, h))
        return config

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


def _check_point(d: int, pid: int, h: tuple[int, ...], earlier: Container) -> None:
    """Refuse point pid unless it is a primitive (w, w*x), w > 0, in R^d and not in earlier."""
    if len(h) != d + 1:
        raise ShapeError(f"point {pid} has {len(h) - 1} coordinates, not {d}")
    if h[0] <= 0 or math.gcd(*h) != 1:
        raise ShapeError(f"point {pid} is not a primitive integer (w, w*x) with w > 0")
    if h in earlier:
        raise ShapeError(f"point {pid} duplicates an earlier point")


def p_eval(t: int, params: ASPParams) -> int:
    """Last coordinate of the curve: the rising factorial f(t) = t(t+1)...(t+m-1), m = d+s.

    Zero exactly for t in {1-m, ..., 0}, the first m grid points, and
    positive for t >= 1.  It does not depend on n.

    Why the hull is the almost-cyclic family.  A forward difference of a
    rising factorial is a shorter one, Delta f(t) = f(t+1) - f(t) =
    m(t+1)(t+2)...(t+m-1) (finite calculus: Graham, Knuth, Patashnik,
    Concrete Mathematics, 2.6), so

        Delta^d f(t) = m(m-1)...(m-d+1) * (t+d)(t+d+1)...(t+d+s-1).

    For t >= 1-m the s factors are consecutive integers from t+d >= 1-s,
    so the product is >= 0, and > 0 exactly when t+d >= 1 (s = 0 leaves
    the positive constant d!).  A d-th divided difference on integer knots
    t_0 < ... < t_d is a combination of Delta^d f(k), k = t_0..t_d-d, with
    discrete B-spline weights, all positive (Schumaker, Spline Functions:
    Basic Theory, 8.5).  So it is >= 0 on the grid, and 0 exactly when
    every knot is a root: t_d - d <= -d.  The determinant of d+1 curve
    points (1, t, ..., t^(d-1), f(t)) in ascending t is their Vandermonde
    product times that divided difference, so every orientation of the
    grid's points has one sign, zero exactly on subsets of the roots.  By
    Sturmfels' criterion ("Cyclic polytopes and d-order curves", 1987) the
    facets are then those of the cyclic polytope, Gale's evenness
    condition (Gale 1963), with the roots spanning the one non-simplex
    facet: gale.almost_cyclic_facets.  Nothing downstream rests on this
    argument: construct gift-wraps the points exactly, the loader
    certifies every stored hull, and the acceptance gate compares the
    hull with Gale's family.

    Below the grid, t < 1-m, the s factors are all negative and
    Delta^d f(t) has the sign (-1)^s; points there would break the one
    sign, so such t are refused.
    """
    if not isinstance(t, int):
        raise DomainError("only integer curve parameters are supported")
    d, s = params.d, params.s
    if t < 1 - d - s:
        raise DomainError(f"curve parameters start at {1 - d - s}, got {t}")
    prod = 1
    for j in range(d + s):
        prod *= t + j
    return prod


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
