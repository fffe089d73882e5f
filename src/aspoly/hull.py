"""Exact convex-position geometry: facets, beyond points, line shellings.

Facets are enumerated by one exact beneath-beyond insertion
(_beneath_beyond): from a start simplex, each further point is inserted
by one pass evaluating every facet there.  The facets it is beyond are
dropped, those whose hyperplane holds it take it in, and each ridge
between a dropped facet and one it is beneath gets the cone to the
point, whose plane is the pencil of the two (_pencil).  Past the start
simplex, found by one running fraction-free elimination, no kernel is
solved, and every sign decision is an integer comparison.  Inside the
routine facets and ridges are bitmasks over point indexes, and a
non-simplex facet's ridges come from the same routine one dimension
down.  A hull that is already known, such as the facets an artifact
stores, is checked instead of enumerated: each hyperplane against every
point at once, by d+1 integer products with the points' coordinates
packed W bits a point into one integer each (_PackedPoints), the vertex
sets against the complex, and completeness from the facet-ridge graph.
A facet holds its hyperplane as one primitive integer vector (offset,
*normal), the form the insertion builds it in, and a plane is evaluated
by one integer dot product with a homogeneous point, or by that packed
product at all of them.  The facets a line crosses are ranked by integer
keys, and nothing in this module uses rational arithmetic.
stack_over_special is the one place a point y beyond the special facet
is found; it builds the new boundary by the same beneath-beyond step
instead of enumerating the hull again: each new hyperplane is the
_pencil of two old ones through a ridge of the special facet, and
that pencil certifies it at the d points of the old facet.  Points,
centroids, y and line targets are integer homogeneous vectors; the
points are read as PointConfig holds them, with no conversion.  A
geometry computes its centroid and every facet's value there once, and
once its stacking frame: each ridge of the special facet with the facet
across it, and each kept facet's value at the special facet's vertex
centroid and, from the first stacking that pulls toward one, at each of
its vertices.  Stacking reads each kept facet's value at the exit point
off the frame by linearity, two products per facet, evaluates the
special facet once, at y, and each cone at the d points of its old
facet, and takes every value at the centroid by linearity too and hands
them to the stacked geometry.  Line shellings are produced geometrically
and every crossing order is re-checked by the independent combinatorial
verifier, so a bug in the crossing logic cannot leak an invalid
certificate.  The constrained shelling is no line: it is the greedy
search of complexes.key_lemma_certificate on the boundary complex.
Key-lemma defects are read off the certificate's restriction faces, O(d)
per shelling step.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import chain
from typing import Iterable, Sequence

from .complexes import (
    ASPComplex,
    ShellingCertificate,
    SimplicialComplex,
    _bits,
    star_shelling,
    verify_shelling,
)
from .curves import PointConfig
from .enumerative import ASPParams
from .errors import (
    CapExceededError,
    DegeneracyError,
    DomainError,
    NotAFaceError,
    NotASPError,
    PseudomanifoldError,
    RankDeficientError,
    ShapeError,
    ShellingError,
    ShellingSearchError,
)
from .exactnum import format_rational, int_nullspace

# Seeded directions line_shelling tries before it gives up.
_LINE_RETRIES = 32


@dataclass(frozen=True)
class FacetDescriptor:
    """A facet with its supporting hyperplane, oriented inward.

    plane = (offset, *normal) is a primitive integer vector, and
    _dot(plane, h) is its value at the homogeneous point h: >= 0 at every
    configuration point, 0 exactly at the points listed in vertex_ids.
    """

    vertex_ids: frozenset[int]
    plane: tuple[int, ...]

    def is_simplex(self) -> bool:
        return len(self.vertex_ids) == len(self.plane) - 1

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertex_ids),
            "normal": [format_rational(a) for a in self.plane[1:]],
            "offset": format_rational(self.plane[0]),
        }


@dataclass(frozen=True)
class ASPGeometry:
    """A point configuration together with its enumerated boundary."""

    config: PointConfig
    facets: tuple[FacetDescriptor, ...]
    special: FacetDescriptor | None
    ball: ASPComplex | None

    @property
    def d(self) -> int:
        return self.config.d

    @cached_property
    def is_simplicial(self) -> bool:
        return all(f.is_simplex() for f in self.facets)

    @cached_property
    def facet_keys(self) -> tuple[tuple[int, ...], ...]:
        """Per facet, its sorted vertex ids, the key facets are ordered by; computed once."""
        return tuple(tuple(sorted(f.vertex_ids)) for f in self.facets)

    @cached_property
    def centroid(self) -> tuple[int, ...]:
        """An integer vector positively proportional to (1, mean of the points), computed once."""
        return tuple(_mean(self.config.hom, [1] * self.config.n))

    @cached_property
    def centroid_values(self) -> tuple[int, ...]:
        """Per facet, its value at the centroid vector, computed once."""
        return tuple(_dot(f.plane, self.centroid) for f in self.facets)

    @cached_property
    def stacking_frame(self) -> _StackingFrame:
        """What stack_over_special reads off this geometry alone, formed once."""
        return _StackingFrame(self)

    def facet_by_vertices(self, vertex_ids: Iterable[int]) -> FacetDescriptor:
        fs = frozenset(vertex_ids)
        for f in self.facets:
            if f.vertex_ids == fs:
                return f
        raise NotAFaceError(f"{sorted(fs)} is not a facet of this geometry")

    def boundary_complex(self) -> SimplicialComplex:
        if not self.is_simplicial:
            raise ShapeError("boundary complex requires a simplicial geometry")
        return SimplicialComplex.from_facets(f.vertex_ids for f in self.facets)


def _mean(hom: Sequence[Sequence[int]], weights: Sequence[int]) -> list[int]:
    """An integer vector positively proportional to (1, x), x the weighted mean of the points.

    Each row of hom is positively proportional to (1, point); the weights
    are nonnegative and not all zero.
    """
    scale = math.lcm(*(h[0] for h in hom))
    coef = [w * (scale // h[0]) for w, h in zip(weights, hom)]
    return [_dot(coef, col) for col in zip(*hom)]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _dots(w: Sequence[int], hom: Sequence[Sequence[int]]) -> list[int]:
    return [_dot(w, h) for h in hom]


def _primitive(w: Sequence[int]) -> list[int]:
    g = math.gcd(*w)
    return [x // g for x in w]


def _ids(m: int) -> list[int]:
    """The 0-based point indexes of a mask, ascending."""
    return [b.bit_length() - 1 for b in _bits(m)]


def _pencil(
    wg: Sequence[int], ag: int, wh: Sequence[int], ah: int
) -> tuple[tuple[int, ...], int]:
    """The primitive plane through the ridge G & H and a point x, and its divisor k.

    wg and wh are the planes of the facets G and H, and ag < 0 < ah
    their values at x.  The plane is k*w = ah*wg - ag*wh: 0 at x, and
    at a point where both planes are >= 0 it is >= 0, and 0 exactly
    where both are 0.
    """
    w = [ah * a - ag * b for a, b in zip(wg, wh)]
    k = math.gcd(*w)
    return tuple([c // k for c in w]), k


def _ridges(hom: Sequence[Sequence[int]], facet: int, w: Sequence[int]) -> list[int]:
    """Point masks of the ridges of one facet, given as a mask.

    A simplex facet's ridges drop one vertex each.  Otherwise they are
    the facets of the facet's own points, found by _beneath_beyond one
    dimension down with a coordinate dropped where w is nonzero (an
    affine isomorphism of the facet hyperplane).
    """
    d = len(w) - 1
    if facet.bit_count() == d:
        out, m = [], facet
        while m:
            out.append(facet ^ (m & -m))
            m &= m - 1
        return out
    j = next(c for c in range(1, d + 1) if w[c])
    ids = _ids(facet)
    sub = [hom[i][:j] + hom[i][j + 1 :] for i in ids]
    return [sum(1 << ids[k] for k in _ids(ridge)) for ridge in _beneath_beyond(sub)]


def _beneath_beyond(hom: Sequence[Sequence[int]]) -> dict[int, tuple[int, ...]]:
    """Facets of full-dimensional homogeneous points, by exact beneath-beyond insertion.

    Maps each facet's mask of 0-based point indexes, every point on its
    hyperplane, to its primitive inward hyperplane (offset, *normal).

    Order.  The points are sorted lexicographically by their affine
    coordinates (the ratios h[k]/h[0] compared by cross-multiplication)
    and taken alternately from the low and the high end.  The first d+1
    of them that are affinely independent form the start simplex, whose
    d+1 facet planes are the only kernels solved; a candidate is taken
    if one running Bareiss elimination leaves it a nonzero row.  Every
    other point, those skipped while the simplex was sought included, is
    then inserted in that order.  With fewer than d+1 independent points
    the configuration is flat, and RankDeficientError is raised.

    Insertion of p, by the beneath-beyond theorem (Grunbaum, Convex
    Polytopes, 5.2; Edelsbrunner, Algorithms in Combinatorial Geometry,
    1987).  One pass evaluates every facet at p and lists the facets
    with value 0 and those with a value < 0, which p is beyond and which
    are dropped.  A facet with value 0 keeps its plane, which still
    supports every point, and takes p into its point set.  For each
    ridge R between a dropped facet G and a facet H with value a_H > 0,
    the facet R + p is added with the pencil plane
    k*w = a_H*w_G - a_G*w_H, made primitive (_pencil).  At an inserted
    point q, w_G(q) and w_H(q) are >= 0 and a_H > 0 > a_G, so
    k*w(q) >= 0, and 0 exactly where both vanish, on G & H = R; at p it
    is a_H*a_G - a_G*a_H = 0.  So w supports the new hull and its zero
    set is R + p exactly, and no plane is evaluated at the other points.
    No two horizon ridges share a plane, since the plane through R and p
    meets the old points in R alone, and a ridge next to a facet with
    value 0 adds no cone, as that facet's plane is the one through R and
    p.  So no facets need merging, and points on a facet's hyperplane
    need this one extra rule and no symbolic perturbation.  If p is
    beyond no facet, the only change is that the facets with value 0
    take it in.

    Ridges.  Each facet, when added, registers its ridges (_ridges) in
    an index from ridge mask to the facets that hold it, and leaves the
    index when dropped.  A ridge of a dropped facet that is not held by
    exactly two facets, or any ridge left so at the end, raises
    PseudomanifoldError naming it, so a hull is returned only when every
    ridge of its facets lies in exactly two.

    Why this order.  The cost is set by the facets that are added and
    dropped on the way, since every insertion evaluates every facet.  At
    (5, 57, 2) on the curve the alternating order drops 2,654 facets on
    the way to 2,857.  A one-sided lexicographic order, ascending or
    descending, drops 24,801, and ascending ran at 0.5x the gift-wrap
    this routine replaced; growing outward from the middle of the sorted
    points drops 24,801 too.
    """
    if not hom or len(hom) < len(hom[0]):
        raise RankDeficientError("too few points to span the ambient dimension")
    n, d = len(hom), len(hom[0]) - 1

    def by_coords(i: int, j: int) -> int:
        hi, hj = hom[i], hom[j]
        for a, b in zip(hi[1:], hj[1:]):
            if c := a * hj[0] - b * hi[0]:
                return c
        return 0

    lex = sorted(range(n), key=cmp_to_key(by_coords))
    order = [lex[k // 2] if k % 2 == 0 else lex[-1 - k // 2] for k in range(n)]
    start: dict[int, tuple[int, Sequence[int]]] = {}  # point -> pivot column, reduced row
    for i in order:
        v, prev = hom[i], 1
        for c, r in start.values():
            p, q = r[c], v[c]
            v, prev = [(p * x - q * y) // prev for x, y in zip(v, r)], p
        if any(v):
            start[i] = next(c for c, x in enumerate(v) if x), v
            if len(start) == d + 1:
                break
    else:
        raise RankDeficientError("points do not affinely span the ambient space")
    found: dict[int, tuple[int, ...]] = {}
    ridges_of: dict[int, list[int]] = {}
    held: dict[int, list[int]] = {}

    def add(facet: int, w: tuple[int, ...]) -> None:
        found[facet] = w
        ridges_of[facet] = rs = _ridges(hom, facet, w)
        for ridge in rs:
            if (owners := held.get(ridge)) is None:
                held[ridge] = [facet]
            else:
                owners.append(facet)

    def drop(facet: int) -> None:
        del found[facet]
        for ridge in ridges_of.pop(facet):
            if len(owners := held[ridge]) == 1:
                del held[ridge]
            else:
                owners.remove(facet)

    def refuse(ridge: int, owners: list[int]) -> PseudomanifoldError:
        return PseudomanifoldError(
            f"ridge {_ids(ridge)} lies in facets {[_ids(f) for f in owners]}, "
            "not in exactly two (0-based point indexes)"
        )

    simplex = sum(1 << i for i in start)
    for i in start:
        w = _primitive(int_nullspace([hom[j] for j in start if j != i])[0])
        add(simplex ^ (1 << i), tuple(w if _dot(w, hom[i]) > 0 else [-c for c in w]))
    for i in order:
        if simplex >> i & 1:
            continue
        h, bit = hom[i], 1 << i
        values, beyond, on = {}, [], []
        for f, w in found.items():
            values[f] = a = _dot(w, h)
            if a <= 0:
                (beyond if a else on).append(f)
        cones = []
        for g in beyond:
            for ridge in ridges_of[g]:
                owners = held[ridge]
                if len(owners) != 2:
                    raise refuse(ridge, owners)
                other = owners[1] if owners[0] == g else owners[0]
                if values[other] > 0:
                    w, _ = _pencil(found[g], values[g], found[other], values[other])
                    cones.append((ridge | bit, w))
        for g in beyond:
            drop(g)
        for f in on:
            w = found[f]
            drop(f)
            add(f | bit, w)
        for facet, w in cones:
            add(facet, w)
    for ridge, owners in held.items():
        if len(owners) != 2:
            raise refuse(ridge, owners)
    return found


def _check_cap(n: int, cap: int | None) -> None:
    if cap is not None and n > cap:
        raise CapExceededError(f"{n} points exceed the cap {cap}; raise it explicitly")


def enumerate_facets(config: PointConfig) -> tuple[FacetDescriptor, ...]:
    """All facets of the convex hull, by exact beneath-beyond insertion.

    The points are inserted one at a time (_beneath_beyond): each
    insertion evaluates every facet once, drops the facets the point is
    beyond and cones it over their horizon ridges with pencil planes, so
    past the start simplex no kernel is solved.  A facet's point set is
    every point on its hyperplane, so non-simplex facets come out whole.
    Flat configurations raise RankDeficientError.
    """
    keyed = []
    for on, w in _beneath_beyond(config.hom).items():
        ids = []  # 1-based, ascending
        while on:
            low = on & -on
            ids.append(low.bit_length())
            on ^= low
        keyed.append((ids, w))
    keyed.sort()
    return tuple(FacetDescriptor(frozenset(set(ids)), w) for ids, w in keyed)


def detect_asp(config: PointConfig, cap: int | None = None) -> ASPGeometry:
    """Classify an enumerated boundary as almost simplicial or simplicial.

    With exactly one non-simplex facet the ball complex (all other
    facets) is assembled and validated; with none, the geometry is
    returned unclassified and a caller may designate any facet as
    special via designate_special.  A `cap` bounds the point count.
    """
    _check_cap(config.n, cap)
    facets = enumerate_facets(config)
    big = [f for f in facets if not f.is_simplex()]
    if len(big) > 1:
        raise NotASPError(
            f"{len(big)} non-simplex facets: "
            + ", ".join(str(sorted(f.vertex_ids)) for f in big)
        )
    if not big:
        return ASPGeometry(config, facets, None, None)
    return _with_special(config, facets, big[0])


def designate_special(geom: ASPGeometry, vertex_ids: Iterable[int]) -> ASPGeometry:
    """Pick a facet of a simplicial geometry to play the special role (s=0)."""
    if geom.special is not None:
        raise DomainError("geometry already has a non-simplex facet")
    return _with_special(geom.config, geom.facets, geom.facet_by_vertices(vertex_ids))


def _with_special(
    config: PointConfig, facets: tuple[FacetDescriptor, ...], special: FacetDescriptor
) -> ASPGeometry:
    """The hull with `special` as its special facet and the other facets as its ball, checked."""
    d = config.d
    ball = SimplicialComplex.from_facets(f.vertex_ids for f in facets if f is not special)
    asp = ASPComplex(ASPParams(d, config.n, len(special.vertex_ids) - d), ball, special.vertex_ids)
    asp.special_boundary  # validate_asp
    return ASPGeometry(config, facets, special, asp)


def asp_geometry(config: PointConfig, special: Iterable[int]) -> ASPGeometry:
    """The uncapped hull as an ASP; special is designated if all facets are simplices."""
    geom = detect_asp(config)
    if geom.ball is None:
        geom = designate_special(geom, special)
    return geom


class _PackedPoints:
    """Every point's value on a plane at once: one integer product per coordinate.

    Point i (0-based) owns the W-bit field [i*W, (i+1)*W) of each packed
    coordinate col_k = sum_i hom[i][k] * 2^(i*W), with
    W = bitlen(bound) + bitlen(max |coordinate|) + bitlen(d+1) + 2, where
    bound is at least every plane entry's size.  For a plane w of d+1
    entries, v = bias + sum_k w_k*col_k, bias = sum_i 2^(i*W + W-1), equals
    sum_i (w.h_i + 2^(W-1)) * 2^(i*W) as an integer.  Exactness: each
    |w.h_i| <= (d+1)*bound*max|h| < 2^(W-2), so each digit
    w.h_i + 2^(W-1) lies strictly between 2^(W-2) and 3*2^(W-2), inside
    [0, 2^W); the sum is therefore v's base-2^W expansion, with no carry
    between fields, and a field's top bit is set exactly when its value is
    >= 0.  So w >= 0 at every point iff v & bias == bias.  Then
    y = v ^ bias holds each value w.h_i < 2^(W-2) in its field, and
    (y & low) + low, low the W-1 low bits of every field, sets a field's
    top bit exactly when the value is nonzero, again with no carry;
    or-ing y in keeps the test exact without the sign test before it.  So
    bias & ~(((y & low) + low) | y) has the top bit of exactly the fields
    where w is 0, and w is 0 exactly at vertex_ids iff it equals their
    top bits.  Broadword tests on packed integers: Knuth, TAOCP 4A, 7.1.3.
    """

    def __init__(self, hom: Sequence[Sequence[int]], bound: int) -> None:
        n, d = len(hom), len(hom[0]) - 1
        size = max(map(abs, chain.from_iterable(hom))).bit_length()
        width = bound.bit_length() + size + (d + 1).bit_length() + 2
        ones = ((1 << n * width) - 1) // ((1 << width) - 1)
        self.cols = [sum(h[k] << i * width for i, h in enumerate(hom)) for k in range(d + 1)]
        self.bias = ones << (width - 1)
        self.low = ones * ((1 << (width - 1)) - 1)
        self.top = {i: 1 << (i * width - 1) for i in range(1, n + 1)}  # by 1-based id

    def supports(self, w: Sequence[int], vertex_ids: frozenset[int]) -> bool:
        """Whether w (d+1 entries within bound) is >= 0 at every point, 0 exactly at vertex_ids."""
        bias, low = self.bias, self.low
        v = sum(map(operator.mul, w, self.cols), bias)
        if v & bias != bias or not self.top.keys() >= vertex_ids:  # an id off 1..n: no point
            return False
        y = v ^ bias
        return bias & ~(((y & low) + low) | y) == sum(map(self.top.__getitem__, vertex_ids))


def certified_geometry(
    config: PointConfig, asp: ASPComplex, stored: Iterable[FacetDescriptor]
) -> ASPGeometry:
    """The hull asp_geometry would enumerate, read off stored facets once they are checked.

    Each stored hyperplane must be primitive, >= 0 at every point and 0
    exactly at its own vertices; the stored vertex sets, with no repeats,
    must be the complex's facets; and validate_asp must hold.  So each
    ridge of a ball facet G lies in a second stored facet H: another ball
    facet, or the special facet F for a ridge on the ball's boundary.
    Then G spans its hyperplane: were its points dependent, some v in G
    would lie in the affine hull of G - v, so H's hyperplane would be 0
    at v, making H = G or G inside F, which validate_asp rules out.  F
    spans too: it holds a boundary ridge of some G, so were it flatter it
    would lie on G's plane, whose only points are G's.  So every stored
    facet is a true facet, H is the other true facet through the ridge,
    and as the facet-ridge graph stays connected without F (Balinski), no
    facet is missing.  No rank is computed.

    The facets are tested in sorted order, each plane's length and
    coprimality first.  Its signs at every point come from d+1 integer
    products with the points packed W bits a point (_PackedPoints, whose
    docstring proves the test exact); only a plane that fails is
    evaluated point by point, to name the point in the message.
    validate_asp runs last, as asp.special_boundary; a failed test raises
    an AspolyError naming the facet.
    """
    d, n = config.d, config.n
    if (asp.params.d, asp.params.n) != (d, n):
        raise ShapeError(f"complex has d={asp.params.d}, n={asp.params.n}; points d={d}, n={n}")
    facets = tuple(sorted(stored, key=lambda f: sorted(f.vertex_ids)))
    special = next((f for f in facets if f.vertex_ids == asp.special_facet), None)
    geom = ASPGeometry(config, facets, special, asp)
    bound = max(map(abs, chain.from_iterable(f.plane for f in facets)), default=0)
    packed = _PackedPoints(config.hom, bound)
    for f in facets:
        name, w = sorted(f.vertex_ids), f.plane
        if len(w) != d + 1 or math.gcd(*w) != 1:
            raise NotAFaceError(f"facet {name}: hyperplane is not {d + 1} coprime integers")
        if packed.supports(w, f.vertex_ids):
            continue
        values = _dots(w, config.hom)
        if min(values) < 0:
            low = values.index(min(values)) + 1
            raise NotAFaceError(f"facet {name}: hyperplane is negative at point {low}")
        zeros = [i for i, x in enumerate(values, 1) if x == 0]
        if frozenset(zeros) != f.vertex_ids:
            raise NotAFaceError(f"facet {name}: hyperplane is zero at points {zeros}")
    for f, g in zip(facets, facets[1:]):
        if f.vertex_ids == g.vertex_ids:
            raise NotAFaceError(f"facet {sorted(f.vertex_ids)} is stored twice")
    sets, sphere = {f.vertex_ids for f in facets}, asp.boundary_sphere_facets()
    for odd, where in ((sets - sphere, "not in the complex"), (sphere - sets, "not stored")):
        if odd:
            raise NotAFaceError(f"facet {min(map(sorted, odd))} is {where}")
    asp.special_boundary  # validate_asp
    return geom


class _LinesFrom:
    """Facet crossing orders of lines shot from one interior base point.

    Write base = B/b0 and target = T/t0 in integer homogeneous form, and
    let A/b0 and C/t0 be a facet's values there.  The line x(tau) = base +
    tau*(target - base) crosses the facet's hyperplane at tau = 1/(1 - r)
    with r = (C/t0)/(A/b0).  Going out (tau > 0, r < 1) the facets are met
    in ascending r; the returning line (tau < 0, r > 1) then meets the rest
    in ascending r.  So the Bruggesser-Mani order sorts the facets by r,
    that is by C/A, since b0/t0 > 0 is shared by every facet and A > 0 at
    an interior base.  The key floor(C * 2^s / A), with 2^s > (max A)^2,
    ranks C/A exactly: two distinct ratios C1/A1 and C2/A2 differ by at
    least 1/(A1*A2) > 2^-s, so their keys differ, and equal ratios get
    equal keys.  A key has about the size of C plus twice that of A,
    whatever the number of facets.  The base point is the geometry's
    centroid and the values A its centroid_values, each computed once per
    geometry (or handed over by stack_over_special), so the facet planes
    are read as stored and not evaluated at the base here.  r = 1
    (C*b0 = A*t0: a parallel hyperplane) or two equal keys (two
    hyperplanes met at one point) is a degeneracy.  A parallel facet has
    C/A = t0/b0, so its key is floor(t0 * 2^s / b0), and only facets with
    that key are tested for one.  Orders are not verified here.
    """

    def __init__(self, geom: ASPGeometry) -> None:
        self.facets = geom.facets
        self.rows = [f.plane for f in geom.facets]
        self.values = geom.centroid_values
        if min(self.values) <= 0:
            raise DegeneracyError("base point is not interior")
        self.b0 = geom.centroid[0]
        self.shift = 2 * max(self.values).bit_length()

    def order(self, target: Sequence[int]) -> list[frozenset[int]]:
        values, b0, shift = self.values, self.b0, self.shift
        at = _dots(target, self.rows)
        keys = [(c << shift) // a for c, a in zip(at, values)]
        t0 = target[0]
        level = (t0 << shift) // b0
        if any(k == level and c * b0 == a * t0 for k, c, a in zip(keys, at, values)):
            raise DegeneracyError("line parallel to a facet hyperplane")
        if len(set(keys)) != len(keys):
            raise DegeneracyError("line meets two facet hyperplanes at one parameter")
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        return [self.facets[i].vertex_ids for i in ranked]


def line_shelling(geom: ASPGeometry, seed: int) -> ShellingCertificate:
    """Seeded Bruggesser-Mani shelling of a simplicial boundary.

    Each crossing order is certified by verify_shelling; a line that is
    degenerate, or whose order fails, counts as one of the retries.
    """
    if not geom.is_simplicial:
        raise DomainError("line shelling requires a simplicial boundary")
    cx = geom.boundary_complex()
    hb = geom.centroid
    lines = _LinesFrom(geom)
    rng = random.Random(seed)
    last = None
    for _ in range(_LINE_RETRIES):
        direction = [rng.randint(-(2**30), 2**30) for _ in range(geom.d)]
        if all(x == 0 for x in direction):
            continue
        target = [hb[0]] + [b + hb[0] * x for b, x in zip(hb[1:], direction)]
        try:
            return verify_shelling(cx, lines.order(target))
        except ShellingError as exc:
            last = f"crossing order failed verification: {exc}"
        except DegeneracyError as exc:
            last = exc
    raise DegeneracyError(f"no usable direction after {_LINE_RETRIES} tries: {last}")


def constrained_line_shelling(
    geom: ASPGeometry, y_id: int, v_id: int, seed: int
) -> ShellingCertificate:
    """Shelling of a simplicial boundary that starts with st(y) and continues with the rest of st(v).

    key_lemma_certificate's search (star_shelling) on the geometry's
    boundary complex.  No line is shot and no plane is evaluated, so the
    seed is not read.  A stuck search raises ShellingSearchError, which is
    inconclusive.
    """
    if not geom.is_simplicial:
        raise DomainError("constrained shelling requires a simplicial boundary")
    n = geom.config.n
    if not (1 <= y_id <= n and 1 <= v_id <= n) or y_id == v_id:
        raise DomainError("y and v must be two distinct vertex ids")
    edge = {y_id, v_id}
    if not any(edge <= f.vertex_ids for f in geom.facets):
        raise DomainError(f"{v_id} is not in the vertex link of {y_id}")
    try:
        return star_shelling(geom.boundary_complex(), y_id, v_id)
    except ShellingError as exc:
        raise ShellingSearchError(
            f"no shelling with st({y_id}), then st({v_id}), first found: {exc}"
        ) from exc


class _StackingFrame:
    """What stack_over_special reads off a geometry alone, formed once per geometry.

    facets and values are the kept facets (all but the special facet F)
    and their centroid values, in geometry order; special_value is F's
    centroid value.  he0 is F's vertex centroid, as _mean builds it, and
    exit_values the kept facets' values there; at_vertex(v) gives their
    values at F's vertex v, formed the first time a stacking pulls toward v.
    cones holds, per ridge R of F, the index of the kept facet G that
    meets F in R, sorted R, R's points, G's points off R, and the cone's
    vertex set R + y, y = n+1.  order is the permutation of the kept
    facets followed by the cones that sorts them by their sorted vertex
    ids, the stacked hull's facet order.
    """

    def __init__(self, geom: ASPGeometry) -> None:
        special, hom = geom.special, geom.config.hom
        kept = [
            (key, f, b)
            for key, f, b in zip(geom.facet_keys, geom.facets, geom.centroid_values)
            if f is not special
        ]
        keys = [key for key, _, _ in kept]
        self.facets = [f for _, f, _ in kept]
        self.values = [b for _, _, b in kept]
        self.special_value = next(
            b for f, b in zip(geom.facets, geom.centroid_values) if f is special
        )
        self.simplicial = all(f.is_simplex() for f in self.facets)
        self.he0 = _mean([hom[v - 1] for v in special.vertex_ids], [1] * len(special.vertex_ids))
        self.exit_values = [_dot(f.plane, self.he0) for f in self.facets]
        y_id = geom.config.n + 1
        self.cones = []
        for i, g in enumerate(self.facets):
            ridge = g.vertex_ids & special.vertex_ids
            if len(ridge) == geom.d - 1:
                on = [hom[v - 1] for v in ridge]
                off = [hom[v - 1] for v in g.vertex_ids - ridge]
                self.cones.append((i, sorted(ridge), on, off, ridge | {y_id}))
                keys.append((*sorted(ridge), y_id))
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self._hom = hom
        self._at_vertex: dict[int, list[int]] = {}

    def at_vertex(self, v: int) -> list[int]:
        values = self._at_vertex.get(v)
        if values is None:
            h = self._hom[v - 1]
            values = self._at_vertex[v] = [_dot(f.plane, h) for f in self.facets]
        return values


def stack_over_special(
    geom: ASPGeometry,
    toward: int | None = None,
    closeness: int = 2,
    cap: int | None = None,
) -> ASPGeometry:
    """Extend the configuration with a vertex y beyond the special facet.

    y is outside the special facet F and strictly inside all others.  It
    is found on the walk out of the polytope from the interior centroid
    through a relative-interior point of F, at the longest step 2^-k
    (k >= 0) for which those conditions hold.  Every facet's value is
    affine along the walk, so k is solved for exactly, facet by facet.  A
    facet positive at the exit point needs a finite k, bounded by the bit
    lengths of its values there and at the centroid, so no fixed bound is
    set; a facet whose hyperplane passes through the exit point, or cuts
    it off, raises DegeneracyError.  With `toward` the exit point is
    pulled toward that vertex of F by the weight 1 - 2^-closeness, which
    stays below 1, so the exit point remains in the relative interior.
    Closeness extra halvings
    then bring y toward F, since shrinking preserves all the conditions,
    and each facet's value at y is checked exactly.  The centroid, the
    exit point and y are integer vectors positively proportional to
    (1, point); y joins the configuration as its primitive vector, and
    only y is validated as a point.

    By the beneath-beyond theorem the new hull is simplicial and its
    facets are the old simplex facets, hyperplanes unchanged, plus the
    cone from y over each ridge of F.  No hull is enumerated and no kernel
    is solved: a ridge of F is G & F for the one simplex facet G that
    meets F in d-1 vertices, and the cone's hyperplane w is the member
    k*w = ag*w_F - af*w_G of the pencil through that ridge R which
    vanishes at y, made primitive (_pencil, as _beneath_beyond forms its
    cones), with ag = w_G(y) > 0 > af = w_F(y) the values of the beyond
    check.  Every plane of the geometry is >= 0 at
    all old points and 0 exactly at its own vertices (enumerate_facets
    and certified_geometry establish this), so at an old point p,
    k*w(p) = ag*w_F(p) - af*w_G(p) is >= 0, and 0 exactly where both
    planes are, on F & G = R; at y it is ag*af - af*ag = 0.  So w meets
    the n+1 points exactly in R + y and is >= 0 at all of them.  The check
    made is O(d): w is 0 at the d-1 vertices of R and > 0 at G's vertex
    off R, or DegeneracyError is raised, so a stored plane that is not 0
    on its ridge with F fails here.  A `cap` bounds the extended point
    count as detect_asp does.

    What depends on the geometry alone is its stacking_frame, formed once:
    the kept facets' values at F's vertex centroid he0 and, per vertex v
    of F that a stacking pulls toward, at v, and each ridge of F with its G.
    With `toward` the exit point is _mean([he0, v], [1, 2^closeness - 1]),
    that is c0*he0 + c1*v, so a kept facet's value there is c0*E0 + c1*Ev:
    two products per facet (without it the exit point is he0), and F is
    evaluated once, at y.  Each cone is
    evaluated at the d vertices of its G; the rest follows by linearity.
    A kept facet's centroid value is the geometry's own, and its value at
    y, like F's, is its value at the unreduced y over that vector's gcd; a
    cone is 0 at y, so its centroid value follows from F's and G's by the
    pencil.  The stacked geometry comes with its centroid, centroid values
    and simpliciality set, so its line shellings evaluate no facet at the
    centroid again.
    """
    special = geom.special
    if special is None:
        raise DomainError("geometry has no designated special facet to stack over")
    if toward is not None and toward not in special.vertex_ids:
        raise DomainError(f"vertex {toward} is not on the chosen facet")
    frame = geom.stacking_frame
    hom, hb = geom.config.hom, geom.centroid
    he, at_exit = frame.he0, frame.exit_values
    if toward is not None:
        # he = _mean([he0, v], [1, 2^closeness - 1]) = c0*he0 + c1*v.
        hv = hom[toward - 1]
        both = math.lcm(he[0], hv[0])
        c0, c1 = both // he[0], ((1 << closeness) - 1) * (both // hv[0])
        he = [c0 * a + c1 * b for a, b in zip(he, hv)]
        at_exit = [c0 * e + c1 * x for e, x in zip(at_exit, frame.at_vertex(toward))]
    # At exit + lam*(exit - centroid) a facet's value is E + lam*(E - B),
    # with E and B its values at the exit point and the centroid: positive
    # at lam = 2^-k exactly when 2^k * E > B - E.  In homogeneous form that
    # reads 2^k * r > p below.
    halvings = 0
    steps = []
    for e, b in zip(at_exit, frame.values):
        r = e * hb[0]
        p = b * he[0] - r
        if r <= 0:
            raise DegeneracyError(
                "no number of halvings of the step gives a beyond point; "
                "another facet hyperplane passes through or cuts off the exit point"
            )
        steps.append((r, p))
        halvings = max(halvings, (max(p, 0) // r).bit_length())
    # exit + 2^-k * (exit - centroid), times 2^k * he[0] * hb[0]; a kept
    # facet's value there is up * hb[0] * E - he[0] * B = up * r - (p + r).
    up = (1 << (halvings + closeness)) + 1
    hy = [up * hb[0] * e - he[0] * b for e, b in zip(he, hb)]
    af = _dot(special.plane, hy)
    at_y = [up * r - (p + r) for r, p in steps]
    if af >= 0 or min(at_y) <= 0:
        raise DegeneracyError("beyond point fails the beyond conditions")
    y_id = geom.config.n + 1
    _check_cap(y_id, cap)
    # y as its primitive vector, and F's and the kept facets' values there.
    k = math.gcd(*hy)
    hy = tuple(c // k for c in hy)
    af //= k
    at_y = [a // k for a in at_y]
    config = geom.config.with_point(hy)
    # The stacked centroid vector, as _mean would build it: with scale the
    # lcm of the old first coordinates (hb[0] = n * scale), it is
    # lcm(scale, y0)/scale * hb + lcm(scale, y0)/y0 * y.
    scale = hb[0] // geom.config.n
    both = math.lcm(scale, hy[0])
    mb, my = both // scale, both // hy[0]
    hc = tuple(mb * b + my * c for b, c in zip(hb, hy))
    facets = [(f, mb * b + my * ag) for f, b, ag in zip(frame.facets, frame.values, at_y)]
    bf = frame.special_value
    for i, ridge, on, off, ids in frame.cones:
        g, b, ag = frame.facets[i], frame.values[i], at_y[i]
        w, kw = _pencil(special.plane, af, g.plane, ag)
        (hx,) = off
        if any(_dot(w, h) for h in on) or _dot(w, hx) <= 0:
            raise DegeneracyError(
                f"cone from {y_id} over ridge {ridge} is not a facet of the stacked hull"
            )
        facets.append((FacetDescriptor(ids, w), mb * ((ag * bf - af * b) // kw)))
    facets = [facets[i] for i in frame.order]
    stacked = ASPGeometry(config, tuple(f for f, _ in facets), None, None)
    # The cached properties, as a fresh geometry would compute them.
    vars(stacked).update(
        centroid=hc,
        centroid_values=tuple(c for _, c in facets),
        is_simplicial=frame.simplicial,
    )
    return stacked


def key_shelling_defects(
    cert: ShellingCertificate, y_id: int, v_id: int
) -> tuple[tuple[int, ...], ...]:
    """Per-step, per-k values of (h^j(Q) - h^j(Q/v)) - (h^j(F) - h^j(F/v)).

    h^j means the h-vector of the union of the first j facets.  The F
    complex is read off as the link of y (its facets are the y-facets of
    the prefix with y removed), since stacking beyond the special facet
    makes that link the facet's boundary sphere; F/v is the link of the
    edge yv.  A link with no faces yet has the zero h-vector.

    The h-vectors are read off the certificate's restriction faces.  The
    faces of the link of u that step i adds are the G with G + u new,
    that is G + u >= R_i; so when u <= F_i the induced order shells the
    link with restriction face R_i - u, and h^j(lk u) gains 1 at index
    |R_i - u|.  The cost is O(d) per step.
    """
    if y_id == v_id:
        raise DomainError("y and v must be two distinct vertex ids")
    d = cert.complex.dim + 1
    # Q, Q/v, F and F/v are the links of these faces, with these signs.
    links = (
        (frozenset(), 1),
        (frozenset({v_id}), -1),
        (frozenset({y_id}), -1),
        (frozenset({y_id, v_id}), 1),
    )
    row = [0] * (d + 1)
    out = []
    for facet, restriction in zip(cert.order, cert.restriction):
        for u, sign in links:
            if u <= facet:
                row[len(restriction - u)] += sign
        out.append(tuple(row))
    return tuple(out)
