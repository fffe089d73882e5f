"""Exact convex-position geometry: facets, beyond points, line shellings.

Facets are enumerated by gift-wrapping (Chand-Kapur): from one facet,
a ridge is crossed by rotating the facet's hyperplane about it until the
hyperplane meets further points.  Found facets register their ridges,
and only a ridge whose second facet is still unknown is crossed, so each
crossing finds a new facet and the cost follows the number of facets
rather than C(n, d).  A simplex facet's ridge planes pass to a simplex
neighbour by a rank-one update, so a fraction-free kernel is solved only
where no simplex facet hands them on, and every sign decision is an
integer comparison.  A hull that is already known, such as the facets an
artifact stores, is checked instead of enumerated: each hyperplane
against every point, the vertex sets against the complex, and
completeness from the facet-ridge graph.
Facet hyperplanes are primitive integer vectors, so the facets a line
crosses are ranked by integer keys with no rational arithmetic.
stack_over_special is the one place a point y beyond the special facet
is found; it builds the new boundary by the beneath-beyond theorem
instead of enumerating the hull again: each new hyperplane is a
combination of two old ones, and is checked against all points.
Points, centroids, y and line targets are integer homogeneous vectors;
the points are read as PointConfig holds them, with no conversion.  A
geometry computes its centroid and every facet's value there once;
stacking reads the parent's values, gets each kept facet's value at y by
linearity, and hands the stacked geometry its centroid and centroid
values, so a key-lemma rung evaluates each facet plane at most once at
each point it needs.  Shelling orders are produced geometrically.  The
constrained search shoots one line, through y symbolically perturbed
toward v, and ranks the facets by their exact keys lexicographically,
evaluating v and the later targets only on facets still tied; every
order that is returned is re-checked by the independent combinatorial
verifier, so a bug in the crossing logic cannot leak an invalid
certificate.  Key-lemma defects are read off the certificate's
restriction faces, O(d) per shelling step.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .complexes import (
    ASPComplex,
    ShellingCertificate,
    SimplicialComplex,
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
from .exactnum import format_rational, int_nullspace, int_rank

# Most step halvings stack_over_special accepts when it places y.  The
# 80-cell grid needs at most 125 (d=6, pulled toward a vertex at
# closeness 40).
_MAX_HALVINGS = 1024

# Seeded directions line_shelling tries before it gives up.
_LINE_RETRIES = 32


@dataclass(frozen=True)
class FacetDescriptor:
    """A facet with its supporting hyperplane, oriented inward.

    normal and offset are integers with no common factor.  Every
    configuration point x satisfies offset + normal.x >= 0, with equality
    exactly for the points listed in vertex_ids.
    """

    vertex_ids: frozenset[int]
    normal: tuple[int, ...]
    offset: int

    def eval_homogeneous(self, hom: Sequence[int]) -> int:
        """offset*hom[0] + normal.hom[1:]: the value at hom[1:]/hom[0], times hom[0]."""
        return self.offset * hom[0] + sum(map(operator.mul, self.normal, hom[1:]))

    def is_simplex(self) -> bool:
        return len(self.vertex_ids) == len(self.normal)

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.vertex_ids),
            "normal": [format_rational(a) for a in self.normal],
            "offset": format_rational(self.offset),
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
        """Per facet, its sorted vertex ids, the key of _facet_order; computed once."""
        return tuple(tuple(sorted(f.vertex_ids)) for f in self.facets)

    @cached_property
    def centroid(self) -> tuple[int, ...]:
        """An integer vector positively proportional to (1, mean of the points), computed once."""
        return tuple(_mean(self.config.hom, [1] * self.config.n))

    @cached_property
    def centroid_values(self) -> tuple[int, ...]:
        """Per facet, its value at the centroid vector, computed once."""
        return tuple(f.eval_homogeneous(self.centroid) for f in self.facets)

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


def _rotate(
    hom: list[list[int]], w: list[int], a: list[int], g: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Rotate the supporting hyperplane w about a ridge, outward onto the next facet.

    a holds w's values at the points.  g is any plane through the ridge
    that is negative on the facet's points off the ridge; the planes
    through the ridge are the combinations of w and g, so the result does
    not depend on which such g is given.  Among the points with a > 0, the
    ones maximising b/a, b = g.x, are met first (ratios compared by
    cross-multiplication); the plane b*.w - a*.g through them is >= 0 at
    every point with a > 0 and equals -a*.b where a = 0.  Returns it
    primitive, with its values at the points.
    """
    b = _dots(g, hom)
    best_a, best_b = 0, 0
    for ai, bi in zip(a, b):
        if ai > 0 and (best_a == 0 or bi * best_a > best_b * ai):
            best_a, best_b = ai, bi
    new = [best_b * x - best_a * y for x, y in zip(w, g)]
    k = math.gcd(*new)
    return [x // k for x in new], [(best_b * x - best_a * y) // k for x, y in zip(a, b)]


def _pivot(
    hom: list[list[int]], ridge: Iterable[int], off: Sequence[int], drop: int
) -> list[int]:
    """The hyperplane through the ridge's points and off, negative at point drop."""
    g = int_nullspace([hom[i] for i in ridge] + [off])[0]
    return g if _dot(g, hom[drop]) < 0 else [-x for x in g]


def _inherited_normals(
    hom: list[list[int]],
    w: Sequence[int],
    a: Sequence[int],
    normals: dict[int, list[int]],
    v: int,
    x: int,
) -> dict[int, list[int]]:
    """Ridge normals of the simplex facet (F - {v}) + {x}, carried over from F.

    w is the simplex facet F's hyperplane and a its values at the points;
    normals[j] vanishes on F - {j} and is negative at j.  The new facet's
    normal for x is -w.  For j in F - {v} it is a(x)*g_j - (g_j.x)*w,
    made primitive: it vanishes on the new facet less j and on v, and at
    j it is a(x)*g_j(j) < 0.  A rank-one update replaces a kernel.
    """
    out = {x: [-c for c in w]}
    for j, g in normals.items():
        if j != v:
            gx = _dot(g, hom[x])
            out[j] = _primitive([a[x] * gc - gx * wc for gc, wc in zip(g, w)])
    return out


def _ridges(
    hom: list[list[int]], facet: frozenset[int], w: Sequence[int]
) -> list[frozenset[int]]:
    """Point sets of the ridges of one facet.

    A simplex facet's ridges drop one vertex each.  Otherwise they are
    the facets of the facet's own points, wrapped one dimension down with
    a coordinate dropped where w is nonzero (an affine isomorphism of the
    facet hyperplane).
    """
    d = len(w) - 1
    if len(facet) == d:
        return [facet - {i} for i in facet]
    j = next(c for c in range(1, d + 1) if w[c])
    ids = sorted(facet)
    sub = [hom[i][:j] + hom[i][j + 1 :] for i in ids]
    return [frozenset(ids[k] for k in ridge) for ridge in _gift_wrap(sub)]


def _gift_wrap(hom: list[list[int]]) -> dict[frozenset[int], list[int]]:
    """Facets of full-dimensional homogeneous points, by gift-wrapping.

    Maps each facet's 0-based point set to its primitive inward
    hyperplane (offset, *normal).  The first facet comes from the support
    at the least first coordinate, rotated about its face until the face
    spans a hyperplane.  A facet registers its ridges when it is found:
    a ridge registered once is open, held by that facet; registered
    again, by the facet on its other side, it is closed.  When a facet
    is popped it crosses only its ridges that are still open: _rotate
    turns it outward about the ridge onto the neighbouring facet, taking
    every tied point with it, so each crossing finds a new facet.  The
    plane g it turns against passes through the ridge and is negative on
    the facet's other points.  The walk ends with every ridge closed and
    no crossing landing on a facet already found, or it raises
    PseudomanifoldError naming the ridge.

    A simplex facet holds one such g per vertex j, for its ridge without
    j.  When it is reached from another simplex facet it inherits them
    by _inherited_normals, from the parent's planes stored when it was
    found, and only if it still has an open ridge when popped; otherwise
    (the first facet, and the neighbours of a non-simplex facet) it
    solves one kernel per vertex, through the ridge and a point off the
    facet.  A non-simplex facet solves that kernel per open ridge, its
    ridges coming from the wrap one dimension down.
    """
    d = len(hom[0]) - 1
    low = min(range(len(hom)), key=lambda i: Fraction(hom[i][1], hom[i][0]))
    w = _primitive([-hom[low][1], hom[low][0]] + [0] * (d - 1))
    a = _dots(w, hom)
    while True:
        off = hom[a.index(max(a))]
        kernel = int_nullspace([h for h, x in zip(hom, a) if x == 0] + [off])
        if not kernel:
            break
        w, a = _rotate(hom, w, a, kernel[0])
    found: dict[frozenset[int], tuple[list[int], list[int]]] = {}
    ridges_of: dict[frozenset[int], list[frozenset[int]]] = {}
    open_ridges: dict[frozenset[int], frozenset[int]] = {}
    parents: dict[frozenset[int], tuple] = {}

    def register(facet: frozenset[int], w: list[int], a: list[int]) -> None:
        found[facet] = (w, a)
        ridges_of[facet] = _ridges(hom, facet, w)
        for ridge in ridges_of[facet]:
            if open_ridges.pop(ridge, None) is None:
                open_ridges[ridge] = facet

    first = frozenset(i for i, x in enumerate(a) if x == 0)
    register(first, w, a)
    queue = [first]
    while queue:
        facet = queue.pop()
        parent = parents.pop(facet, None)
        ridges = [r for r in ridges_of.pop(facet) if r in open_ridges]
        if not ridges:
            continue
        w, a = found[facet]
        off = hom[a.index(max(a))]
        simplex = len(facet) == d
        if simplex:
            if parent is None:
                normals = {j: _pivot(hom, facet - {j}, off, j) for j in facet}
            else:
                normals = _inherited_normals(hom, *parent)
        for ridge in ridges:
            v = min(facet - ridge)
            g = normals[v] if simplex else _pivot(hom, ridge, off, v)
            nw, na = _rotate(hom, w, a, g)
            key = frozenset(i for i, x in enumerate(na) if x == 0)
            if key in found:
                raise PseudomanifoldError(
                    f"ridge {sorted(ridge)} of facet {sorted(facet)} crosses onto "
                    f"facet {sorted(key)}, which is already found (0-based point indexes)"
                )
            register(key, nw, na)
            queue.append(key)
            if simplex and len(key) == d:
                (x,) = key - ridge
                parents[key] = (w, a, normals, v, x)
    if open_ridges:
        ridge, facet = next(iter(open_ridges.items()))
        raise PseudomanifoldError(
            f"ridge {sorted(ridge)} of facet {sorted(facet)} lies in no second facet "
            "(0-based point indexes)"
        )
    return {facet: w for facet, (w, _) in found.items()}


def _check_cap(n: int, cap: int | None) -> None:
    if cap is not None and n > cap:
        raise CapExceededError(f"{n} points exceed the cap {cap}; raise it explicitly")


def _facet_order(facets: Iterable[FacetDescriptor]) -> tuple[FacetDescriptor, ...]:
    return tuple(sorted(facets, key=lambda f: tuple(sorted(f.vertex_ids))))


def enumerate_facets(
    config: PointConfig, cap: int | None = None
) -> tuple[FacetDescriptor, ...]:
    """All facets of the convex hull, by exact gift-wrapping.

    Starting from one facet, each ridge whose second facet is still
    unknown is crossed by rotating the facet's hyperplane about it until
    it meets further points; the cost follows the number of facets, not
    C(n, d).  A facet's point set is every point on its hyperplane, so
    non-simplex facets come out whole.  Flat configurations raise
    RankDeficientError.
    """
    n, d = config.n, config.d
    _check_cap(n, cap)
    if n < d + 1:
        raise RankDeficientError("too few points to span the ambient dimension")
    hom = config.hom
    if int_rank(hom) != d + 1:
        raise RankDeficientError("points do not affinely span the ambient space")
    return _facet_order(
        FacetDescriptor(frozenset(i + 1 for i in on), tuple(w[1:]), w[0])
        for on, w in _gift_wrap(hom).items()
    )


def detect_asp(config: PointConfig, cap: int | None = None) -> ASPGeometry:
    """Classify an enumerated boundary as almost simplicial or simplicial.

    With exactly one non-simplex facet the ball complex (all other
    facets) is assembled and validated; with none, the geometry is
    returned unclassified and a caller may designate any facet as
    special via designate_special.
    """
    facets = enumerate_facets(config, cap)
    big = [f for f in facets if len(f.vertex_ids) > config.d]
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
    facet is missing.  No rank is computed.  validate_asp runs last, as
    asp.special_boundary; a failed test raises an AspolyError naming the
    facet.
    """
    d, n = config.d, config.n
    if (asp.params.d, asp.params.n) != (d, n):
        raise ShapeError(f"complex has d={asp.params.d}, n={asp.params.n}; points d={d}, n={n}")
    facets = _facet_order(stored)
    special = next((f for f in facets if f.vertex_ids == asp.special_facet), None)
    geom = ASPGeometry(config, facets, special, asp)
    for f in facets:
        name, w = sorted(f.vertex_ids), (f.offset, *f.normal)
        if len(w) != d + 1 or math.gcd(*w) != 1:
            raise NotAFaceError(f"facet {name}: hyperplane is not {d + 1} coprime integers")
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
    whatever the number of facets.  The values A may be handed in, as a
    geometry's centroid_values, instead of evaluated here.

    Several targets t1, t2, t3, ... stand for the symbolically perturbed
    target t1 + eps*(t2 - t1) + eps^2*(t3 - t1) + ... with eps > 0
    infinitesimal.  r is affine in the target, so that line sorts the
    facets by the tuples of their keys at t1, t2, ... lexicographically
    (Edelsbrunner-Mucke, "Simulation of Simplicity").  A later target
    only breaks ties, so it is evaluated only on the facets still tied
    with another facet at the earlier ones, and on those parallel at every
    earlier one.  r = 1 at every target (C*b0 = A*t0: a parallel
    hyperplane) or two equal tuples (two hyperplanes met at one point) is
    a degeneracy.  Orders are not verified here.
    """

    def __init__(
        self, geom: ASPGeometry, base_hom: Sequence[int], values: Sequence[int] | None = None
    ) -> None:
        self.facets = geom.facets
        self.rows = [(f.offset, *f.normal) for f in geom.facets]
        self.values = _dots(base_hom, self.rows) if values is None else values
        if min(self.values) <= 0:
            raise DegeneracyError("base point is not interior")
        self.b0 = base_hom[0]
        self.shift = 2 * max(self.values).bit_length()

    def order(self, first: Sequence[int], *later: Sequence[int]) -> list[frozenset[int]]:
        rows, values, b0, shift = self.rows, self.values, self.b0, self.shift
        at = _dots(first, rows)
        keys = [((c << shift) // a,) for c, a in zip(at, values)]
        flat = [i for i, (c, a) in enumerate(zip(at, values)) if c * b0 == a * first[0]]
        tied = _tied(keys, range(len(keys)))
        for t in later:
            if not (tied or flat):
                break
            at = {i: _dot(t, rows[i]) for i in {*tied, *flat}}
            flat = [i for i in flat if at[i] * b0 == values[i] * t[0]]
            for i, c in at.items():
                keys[i] += ((c << shift) // values[i],)
            tied = _tied(keys, tied)
        if flat:
            raise DegeneracyError("line parallel to a facet hyperplane")
        if tied:
            raise DegeneracyError("line meets two facet hyperplanes at one parameter")
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        return [self.facets[i].vertex_ids for i in ranked]


def _tied(keys: Sequence[tuple[int, ...]], among: Sequence[int]) -> list[int]:
    """The indexes among `among` whose key another of them shares."""
    group = [keys[i] for i in among]
    if len(set(group)) == len(group):
        return []
    count = Counter(group)
    return [i for i in among if count[keys[i]] > 1]


def _verified(
    cx: SimplicialComplex, order: list[frozenset[int]]
) -> ShellingCertificate:
    """Certify a crossing order; a failure is a degeneracy of that line."""
    try:
        return verify_shelling(cx, order)
    except ShellingError as exc:
        raise DegeneracyError(f"crossing order failed verification: {exc}") from exc


def line_shelling(geom: ASPGeometry, seed: int) -> ShellingCertificate:
    """Seeded Bruggesser-Mani shelling of a simplicial boundary."""
    if not geom.is_simplicial:
        raise DomainError("line shelling requires a simplicial boundary")
    cx = geom.boundary_complex()
    hb = geom.centroid
    lines = _LinesFrom(geom, hb, geom.centroid_values)
    rng = random.Random(seed)
    last = None
    for _ in range(_LINE_RETRIES):
        direction = [rng.randint(-(2**30), 2**30) for _ in range(geom.d)]
        if all(x == 0 for x in direction):
            continue
        target = [hb[0]] + [b + hb[0] * x for b, x in zip(hb[1:], direction)]
        try:
            return _verified(cx, lines.order(target))
        except DegeneracyError as exc:
            last = exc
    raise DegeneracyError(f"no usable direction after {_LINE_RETRIES} tries: {last}")


def constrained_line_shelling(
    geom: ASPGeometry, y_id: int, v_id: int, seed: int
) -> ShellingCertificate:
    """Shelling whose order starts with st(y) and continues with the rest of st(v).

    The line is shot from the interior centroid through y + eps*(v - y) +
    eps^2*(g - y) for an infinitesimal eps > 0, where g is a positive
    average of the other points with weights drawn from Random(seed).
    Facets through y have key 0 at y and come first; a facet of st(v) -
    st(y) tied at y with another facet is ranked first at v, where its key
    is 0; g then orders the facets through both y and v, so the seed
    reorders only those.  Whether the prefix holds therefore depends on
    where y is placed, not on the seed: a wrong prefix raises
    ShellingSearchError, inconclusive at this placement, and a tie left
    after g raises DegeneracyError.  A returned order is always a verified
    shelling.
    """
    if not geom.is_simplicial:
        raise DomainError("constrained shelling requires a simplicial boundary")
    hom = geom.config.hom
    if not (1 <= y_id <= len(hom) and 1 <= v_id <= len(hom)) or y_id == v_id:
        raise DomainError("y and v must be two distinct vertex ids")
    if not any({y_id, v_id} <= f.vertex_ids for f in geom.facets):
        raise DomainError(f"{v_id} is not in the vertex link of {y_id}")
    others = [h for pid, h in enumerate(hom, 1) if pid not in (y_id, v_id)]
    rng = random.Random(seed)
    g = _mean(others, [rng.randint(1, 1000) for _ in others])
    lines = _LinesFrom(geom, geom.centroid, geom.centroid_values)
    order = lines.order(hom[y_id - 1], hom[v_id - 1], g)
    blocks = [0 if y_id in f else 1 if v_id in f else 2 for f in order]
    if blocks != sorted(blocks):
        raise ShellingSearchError(
            f"the line through y={y_id} perturbed toward v={v_id} does not shell "
            "st(y), then st(v), first; inconclusive at this placement of y"
        )
    return _verified(geom.boundary_complex(), order)


def key_lemma_rung(
    geom: ASPGeometry, v_id: int, closeness: int
) -> ShellingCertificate | None:
    """One rung of the key-lemma ladder, or None when it is inconclusive.

    Stacks y = n+1 beyond the special facet toward v at this closeness
    and shoots the constrained line through y toward v (seeded by the
    closeness).  A misplaced prefix or a degenerate placement or line
    gives None: a closer y may still certify.
    """
    try:
        stacked = stack_over_special(geom, toward=v_id, closeness=closeness)
        return constrained_line_shelling(stacked, stacked.config.n, v_id, seed=closeness)
    except (ShellingSearchError, DegeneracyError):
        return None


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
    affine along the walk, so k is solved for exactly, facet by facet; a
    facet that needs more than _MAX_HALVINGS halvings raises
    DegeneracyError.  With `toward` the exit point is pulled toward that
    vertex of F by the weight 1 - 2^-closeness, which stays below 1, so
    the exit point remains in the relative interior; the constrained
    shelling search needs this.  Closeness extra halvings then bring y
    toward F, since shrinking preserves all the conditions, and each
    facet's value at y is checked exactly.  The centroid, the exit point
    and y are integer vectors positively proportional to (1, point); y
    joins the configuration as its primitive vector.

    By the beneath-beyond theorem the new hull is simplicial and its
    facets are the old simplex facets, hyperplanes unchanged, plus the
    cone from y over each ridge of F.  No hull is enumerated and no kernel
    is solved: a ridge of F is G & F for the one simplex facet G that
    meets F in d-1 vertices, and the cone's hyperplane is the member
    w_G(y)*w_F - w_F(y)*w_G of the pencil through that ridge which
    vanishes at y, made primitive, with the values of the beyond check.
    It is >= 0 at the old points, as w_G(y) > 0 > w_F(y), and each one
    must still meet the n+1 points exactly in its own vertices, or
    DegeneracyError is raised.  A `cap` bounds the extended point count
    as enumerate_facets does.

    A kept facet is evaluated once, at the exit point: its centroid value
    is the geometry's own and its value at y follows by linearity.  The
    stacked geometry comes with its centroid and centroid values set, a
    kept facet's from its two values and a cone's by one dot product, so
    its line shellings evaluate no facet at the centroid again.
    """
    special = geom.special
    if special is None:
        raise DomainError("geometry has no designated special facet to stack over")
    hom = geom.config.hom
    hb = geom.centroid
    he = _mean([hom[v - 1] for v in special.vertex_ids], [1] * len(special.vertex_ids))
    if toward is not None:
        if toward not in special.vertex_ids:
            raise DomainError(f"vertex {toward} is not on the chosen facet")
        he = _mean([he, hom[toward - 1]], [1, (1 << closeness) - 1])
    kept = zip(geom.facet_keys, geom.facets, geom.centroid_values)
    kept = [(key, f, b) for key, f, b in kept if f is not special]
    # At exit + lam*(exit - centroid) a facet's value is E + lam*(E - B),
    # with E and B its values at the exit point and the centroid: positive
    # at lam = 2^-k exactly when 2^k * E > B - E.  In homogeneous form that
    # reads 2^k * r > p below.
    halvings = 0
    steps = []
    for _, f, b in kept:
        r = f.eval_homogeneous(he) * hb[0]
        p = b * he[0] - r
        steps.append((r, p))
        needed = (max(p, 0) // r).bit_length() if r > 0 else _MAX_HALVINGS + 1
        halvings = max(halvings, needed)
    if halvings > _MAX_HALVINGS:
        raise DegeneracyError(
            f"no beyond point within {_MAX_HALVINGS} halvings of the step; "
            "another facet hyperplane passes through or next to the exit point"
        )
    # exit + 2^-k * (exit - centroid), times 2^k * he[0] * hb[0]; a kept
    # facet's value there is up * hb[0] * E - he[0] * B = up * r - (p + r).
    up = (1 << (halvings + closeness)) + 1
    hy = [up * hb[0] * e - he[0] * b for e, b in zip(he, hb)]
    wf = (special.offset, *special.normal)
    af = _dot(wf, hy)
    at_y = [up * r - (p + r) for r, p in steps]
    if af >= 0 or min(at_y) <= 0:
        raise DegeneracyError("beyond point fails the beyond conditions")
    y_id = geom.config.n + 1
    _check_cap(y_id, cap)
    k = math.gcd(*hy)
    hy = tuple(c // k for c in hy)
    hom = (*hom, hy)
    config = PointConfig(geom.d, hom)
    # The stacked centroid vector, as _mean would build it: with scale the
    # lcm of the old first coordinates (hb[0] = n * scale), it is
    # lcm(scale, y0)/scale * hb + lcm(scale, y0)/y0 * y.
    scale = hb[0] // geom.config.n
    both = math.lcm(scale, hy[0])
    mb, my = both // scale, both // hy[0]
    hc = tuple(mb * b + my * c for b, c in zip(hb, hy))
    facets = [(key, f, mb * b + my * (ag // k)) for (key, f, b), ag in zip(kept, at_y)]
    for (_, g, _), ag in zip(kept, at_y):
        ridge = g.vertex_ids & special.vertex_ids
        if len(ridge) != geom.d - 1:
            continue
        w = _primitive([ag * a - af * b for a, b in zip(wf, (g.offset, *g.normal))])
        values = _dots(w, hom)
        vertex_ids = ridge | {y_id}
        if min(values) < 0 or frozenset(i for i, x in enumerate(values, 1) if x == 0) != vertex_ids:
            raise DegeneracyError(
                f"cone from {y_id} over ridge {sorted(ridge)} "
                "is not a facet of the stacked hull"
            )
        cone = FacetDescriptor(vertex_ids, tuple(w[1:]), w[0])
        facets.append(((*sorted(ridge), y_id), cone, _dot(w, hc)))
    # The kept facets are in _facet_order already (geom.facet_keys), and the
    # sort merges the cones into them; vertex sets differ, so no keys tie.
    facets.sort()
    stacked = ASPGeometry(config, tuple(f for _, f, _ in facets), None, None)
    # The cached properties, as a fresh geometry would compute them.
    vars(stacked).update(centroid=hc, centroid_values=tuple(c for _, _, c in facets))
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
