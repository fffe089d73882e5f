"""Face-count vectors and the closed-form bounds for almost simplicial polytopes.

Conventions.  A d-polytope has boundary dimension d-1; its f-vector is
stored as (f_{-1}, f_0, ..., f_{d-1}) with f_{-1} = 1 for the empty face.
The h-vector of a (d-1)-dimensional complex has parameter d and entries
h_0..h_d.  Polytope f-vectors count the non-simplex facet once; the ball
obtained by deleting that facet from the boundary has one facet fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DomainError, ParameterMismatchError, ShapeError


def binom(a: int, b: int) -> int:
    """Binomial coefficient, 0 whenever b < 0 or a < b (negative a included)."""
    return comb(a, b) if 0 <= b <= a else 0


@dataclass(frozen=True)
class ASPParams:
    """Parameters (d, n, s): dimension, vertex count, excess of the special facet.

    The special facet has d + s vertices; s = 0 means the polytope is
    simplicial with one facet merely designated.
    """

    d: int
    n: int
    s: int

    def __post_init__(self):
        if self.d < 3:
            raise DomainError(f"dimension must be at least 3, got {self.d}")
        if self.s < 0:
            raise DomainError(f"facet excess must be nonnegative, got {self.s}")
        if self.n < self.d + self.s + 1:
            raise DomainError(
                f"need n >= d+s+1, got n={self.n} with d={self.d}, s={self.s}"
            )


@dataclass(frozen=True)
class FVector:
    """Face numbers (f_{-1}, f_0, ..., f_{d-1}) of a (d-1)-dimensional complex."""

    d: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.d + 1:
            raise ShapeError(
                f"f-vector for d={self.d} needs {self.d + 1} entries, got {len(self.entries)}"
            )
        if self.entries[0] != 1:
            raise ShapeError("f_{-1} must be 1")

    def f(self, k: int) -> int:
        """f_k for -1 <= k <= d-1."""
        if not (-1 <= k <= self.d - 1):
            raise ShapeError(f"f_{k} undefined for d={self.d}")
        return self.entries[k + 1]


@dataclass(frozen=True)
class HVector:
    """h-numbers h_0..h_d of a (d-1)-dimensional complex."""

    d: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.d + 1:
            raise ShapeError(
                f"h-vector for d={self.d} needs {self.d + 1} entries, got {len(self.entries)}"
            )

    def h(self, k: int) -> int:
        """h_k, with h_k = 0 outside 0..d."""
        if 0 <= k <= self.d:
            return self.entries[k]
        return 0


def h_from_f(f: FVector) -> HVector:
    """h_k = sum_{i=0}^{k} (-1)^{k-i} C(d-i, k-i) f_{i-1}."""
    d = f.d
    ent = tuple(
        sum((-1) ** (k - i) * binom(d - i, k - i) * f.entries[i] for i in range(k + 1))
        for k in range(d + 1)
    )
    return HVector(d, ent)


def f_from_h(h: HVector) -> FVector:
    """f_{k-1} = sum_{i=0}^{k} C(d-i, k-i) h_i; inverse of h_from_f."""
    d = h.d
    ent = tuple(
        sum(binom(d - i, k - i) * h.entries[i] for i in range(k + 1))
        for k in range(d + 1)
    )
    return FVector(d, ent)


def g_from_h(h: HVector) -> tuple[int, ...]:
    """Termwise differences g_k = h_k - h_{k-1}, same length as h, with h_{-1} = 0."""
    prev = 0
    out = []
    for x in h.entries:
        out.append(x - prev)
        prev = x
    return tuple(out)


def dehn_sommerville_defect(h_ball: HVector, g_boundary: tuple[int, ...]) -> tuple[int, ...]:
    """Defects h_k - h_{d-k} - g_k for a simplicial ball against its boundary.

    ``h_ball`` is the h-vector (parameter d) of the ball; ``g_boundary`` is
    the g-vector of the ball's boundary sphere, which has parameter d-1 and
    hence d entries g_0..g_{d-1}.  The missing top entry is forced by
    h_d(boundary) = 0, i.e. g_d = -h_{d-1}(boundary) = -(g_0+...+g_{d-1}).
    A zero defect vector is the ball form of the Dehn-Sommerville relations.
    """
    d = h_ball.d
    if len(g_boundary) != d:
        raise ShapeError(
            f"boundary g-vector must have {d} entries for ball parameter {d}, "
            f"got {len(g_boundary)}"
        )
    g_ext = [*g_boundary, -sum(g_boundary)]
    return tuple(h_ball.h(k) - h_ball.h(d - k) - g_ext[k] for k in range(d + 1))


def phi(d: int, n: int, k: int) -> int:
    """Face numbers of a stacked d-polytope on n vertices, k = 1..d-1."""
    if d < 3 or n < d + 1:
        raise DomainError(f"need d >= 3 and n >= d+1, got d={d}, n={n}")
    if not 1 <= k <= d - 1:
        raise DomainError(f"index k={k} outside 1..{d - 1}")
    if k == d - 1:
        return (d - 1) * n - (d + 1) * (d - 2)
    return binom(d, k) * n - binom(d + 1, k + 1) * k


def f_almost_stacked(p: ASPParams) -> FVector:
    """f-vector of the almost-stacked family: stacked counts minus s in the top two.

    This is the conjectured-and-proved minimizer among almost simplicial
    polytopes with parameters p, in polytope convention.
    """
    d, n, s = p.d, p.n, p.s
    ent = [1, n] + [phi(d, n, k) for k in range(1, d)]
    ent[d - 1] -= s
    ent[d] -= s
    return FVector(d, tuple(ent))


def h_almost_cyclic_ball(p: ASPParams) -> HVector:
    """h-vector of the ball left by deleting the special facet of the
    almost-cyclic polytope.

    Low indices match the cyclic polytope values; high indices lose a
    binomial in s; the top entry vanishes because the complex is a ball.
    """
    d, n, s = p.d, p.n, p.s
    ent = [0] * (d + 1)
    for k in range((d - 1) // 2 + 1):
        ent[k] = binom(n - d - 1 + k, k)
    for k in range(1, d // 2 + 1):
        ent[d - k] = binom(n - d - 1 + k, k) - binom(s + k - 1, k)
    ent[d] = 0
    return HVector(d, tuple(ent))


def f_almost_cyclic(p: ASPParams) -> FVector:
    """f-vector of the almost-cyclic polytope (ball counts, special facet added)."""
    f_ball = f_from_h(h_almost_cyclic_ball(p))
    ent = list(f_ball.entries)
    ent[-1] += 1
    return FVector(p.d, tuple(ent))


@dataclass(frozen=True)
class BoundsVerdict:
    index: int
    lower_ok: bool
    upper_ok: bool
    equal_lower: bool


@dataclass(frozen=True)
class BoundsReport:
    verdicts: tuple[BoundsVerdict, ...]

    @property
    def all_ok(self) -> bool:
        return all(v.lower_ok and v.upper_ok for v in self.verdicts)

    @property
    def all_equal_lower(self) -> bool:
        return all(v.equal_lower for v in self.verdicts)


def check_asp_bounds(f_subject: FVector, p: ASPParams) -> BoundsReport:
    """Compare a polytope f-vector against the extremal families entrywise."""
    if f_subject.d != p.d:
        raise ShapeError(f"f-vector dimension {f_subject.d} != d={p.d}")
    if f_subject.f(0) != p.n:
        raise ParameterMismatchError(
            f"subject has {f_subject.f(0)} vertices, parameters say {p.n}"
        )
    lo = f_almost_stacked(p)
    hi = f_almost_cyclic(p)
    verdicts = []
    for i in range(p.d):
        a, b, c = lo.f(i), f_subject.f(i), hi.f(i)
        verdicts.append(BoundsVerdict(i, lower_ok=a <= b, upper_ok=b <= c, equal_lower=a == b))
    return BoundsReport(tuple(verdicts))


def ridge_identity_defect(f_polytope: FVector, f_facet: FVector) -> int:
    """Defect of 2 f_{d-2}(P) = d (f_{d-1}(P) - 1) + f_{d-2}(F).

    ``f_polytope`` is the polytope f-vector (special facet counted);
    ``f_facet`` is the f-vector of the special facet as a (d-1)-polytope.
    Zero for every almost simplicial polytope: doubled ridges account for
    the simplex facets' ridges plus the special facet's own.
    """
    d = f_polytope.d
    if f_facet.d != d - 1:
        raise ShapeError(f"facet f-vector must have dimension {d - 1}, got {f_facet.d}")
    return 2 * f_polytope.f(d - 2) - d * (f_polytope.f(d - 1) - 1) - f_facet.f(d - 2)
