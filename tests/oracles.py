"""Earlier implementations of aspoly.complexes and aspoly.hull, kept as test oracles.

Each function here is the direct version of an indexed one in the
library: faces counted as frozensets, ridges found by sorting the
facets, missing simplices found by testing every ridge-plus-vertex pair,
a decomposition that rebuilds the ridge incidence at every split, a
shelling check that intersects every pair of facets, key-lemma defects
from running face counts, hyperplanes from a kernel solve, a point's
integer homogeneous vector from its rational coordinates, a point
placed beyond any one facet, and line orders that evaluate every target
on every facet.  The frozenset cells, their indexed
missing-simplex search and their decomposition are the library's code
before it moved to vertex bitmasks.  The property tests check that the
library gives the same results.

The mask converters run the library's bitmask search and decomposition
on frozenset cells and hand back frozensets, so the oracles and the
library are compared on one input.

Below them sit the small exact tools several test modules share:
cofactor determinants, Gaussian-elimination ranks and Bareiss
determinants, stacked spheres from facet indices, and the
stacked-sphere test by prime decomposition.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from aspoly.complexes import (
    ASPComplex,
    ShellingCertificate,
    SimplicialComplex,
    _cell_decomposition,
    _cell_missing_simplices,
    _face_ids,
    _mask,
    _vertex_bits,
    face_key,
    prime_decomposition,
)
from aspoly.curves import PointConfig
from aspoly.enumerative import FVector, h_from_f
from aspoly.errors import (
    DegeneracyError,
    DomainError,
    NotAFaceError,
    PseudomanifoldError,
    ShapeError,
    ShellingError,
)
from aspoly.exactnum import _echelon, int_nullspace
from aspoly.hull import (
    _MAX_HALVINGS,
    ASPGeometry,
    FacetDescriptor,
    _dot,
    _dots,
    _LinesFrom,
    _mean,
    _primitive,
)
from aspoly.stackgen import _refined_cells, _stacked_sphere_with_solids


def face_set(c: SimplicialComplex) -> frozenset[frozenset[int]]:
    """All faces of c including the empty face."""
    out: set[frozenset[int]] = set()
    for f in c.facets:
        verts = tuple(f)
        for k in range(len(verts) + 1):
            out.update(frozenset(s) for s in combinations(verts, k))
    return frozenset(out)


def f_vector_by_face_set(c: SimplicialComplex) -> FVector:
    if not c.facets:
        raise DomainError("empty complex has no f-vector")
    counts = [0] * (c.dim + 2)
    for f in face_set(c):
        counts[len(f)] += 1
    return FVector(c.dim + 1, tuple(counts))


def ridge_incidence(c: SimplicialComplex) -> dict[frozenset[int], list[frozenset[int]]]:
    """Map each ridge (codimension-1 face) to the facets containing it."""
    inc: dict[frozenset[int], list[frozenset[int]]] = {}
    for g in c.sorted_facets():
        for x in g:
            inc.setdefault(g - {x}, []).append(g)
    return inc


def boundary_by_incidence(c: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the ridges of ridge_incidence in one facet."""
    if not c.facets:
        raise DomainError("empty complex has no boundary")
    boundary = []
    for ridge, fs in ridge_incidence(c).items():
        if len(fs) > 2:
            raise PseudomanifoldError(f"ridge {sorted(ridge)} lies in {len(fs)} facets")
        if len(fs) == 1:
            boundary.append(ridge)
    return SimplicialComplex.from_facets(boundary)


@dataclass(frozen=True)
class Cell:
    """Polyhedral cell: vertex set and boundary ridges.

    original_f marks a prime factor of an ASP's special facet F.
    """

    vertices: frozenset[int]
    ridges: frozenset[frozenset[int]]
    original_f: bool

    def is_simplex(self, d: int) -> bool:
        return len(self.vertices) == d


def simplex_cell(vertices: frozenset[int]) -> Cell:
    return Cell(vertices, frozenset(vertices - {x} for x in vertices), False)


def mask_cells(cells: Sequence[Cell]) -> tuple[list, tuple[int, ...]]:
    """The cells as the library's (vertex mask, ridge masks) pairs, and the sorted ids."""
    ids = tuple(sorted(frozenset().union(*(c.vertices for c in cells))))
    bit = _vertex_bits(ids)
    return [(_mask(c.vertices, bit), tuple(_mask(r, bit) for r in c.ridges)) for c in cells], ids


def cell_missing_by_masks(cells: Sequence[Cell], d: int) -> list[frozenset[int]]:
    """The library's bitmask search, on frozenset cells."""
    masks, ids = mask_cells(cells)
    return [frozenset(_face_ids(a, ids)) for a in _cell_missing_simplices(masks, d)]


def cell_decomposition_by_masks(
    cells: Sequence[Cell], d: int
) -> tuple[list[tuple[Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """The library's bitmask decomposition, on frozenset cells.

    A factor lists the given cells it keeps, and a cut simplex as a
    simplex cell.
    """
    masks, ids = mask_cells(cells)
    out, parts, edges = _cell_decomposition(masks, d, ids)
    view = list(cells) + [simplex_cell(frozenset(_face_ids(m, ids))) for m, _ in out[len(cells):]]
    return (
        [tuple(view[i] for i in part) for part in parts],
        [(i, j, frozenset(_face_ids(a, ids))) for i, j, a in edges],
    )


def refined_frozenset_cells(asp: ASPComplex) -> list[Cell]:
    """The recognizer's boundary cells as frozenset cells, F's factors marked."""
    ids = asp.ball.vertex_ids
    masks, n_f = _refined_cells(asp, _vertex_bits(ids))

    def face(m: int) -> frozenset[int]:
        return frozenset(_face_ids(m, ids))

    return [
        Cell(face(m), frozenset(map(face, rs)), i < n_f) for i, (m, rs) in enumerate(masks)
    ]


def cell_missing_by_extension_index(cells: Sequence[Cell], d: int) -> list[frozenset[int]]:
    """Missing facets: d-vertex sets that are not faces but whose facets are.

    Every (d-1)-vertex face is a cell ridge and every d-vertex face is a
    simplex cell.  A candidate a = r + x, with r a ridge, needs (r - y) + x
    to be a ridge for every y in r.  So an index sends each (d-2)-face to
    the vertices that extend it to a ridge, and x is looked up in the
    index sets of r's (d-2)-faces.  Only x > max(r) is taken, which finds
    each a once, from r = a - max(a).
    """
    ridges = {r for c in cells for r in c.ridges}
    simplices = {c.vertices for c in cells if c.is_simplex(d)}
    extensions: dict[frozenset[int], set[int]] = {}
    for r in ridges:
        for y in r:
            extensions.setdefault(r - {y}, set()).add(y)
    out = []
    for r in ridges:
        top = max(r)
        for x in set.intersection(*[extensions[r - {y}] for y in r]):
            if x > top:
                a = r | {x}
                if a not in simplices:
                    out.append(a)
    return sorted(out, key=face_key)


def cell_decomposition_by_frozensets(
    cells: Sequence[Cell], d: int
) -> tuple[list[tuple[Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """Factors and cut tree from one ridge-to-cell map, on frozenset cells.

    The missing set is searched once, at the root, and carried down: each
    part of the cut along a keeps the parent's other missing simplices
    whose ridges all have an owner in that part.
    """
    cells = list(cells)
    owners: dict[frozenset[int], list[int]] = {}
    for i, c in enumerate(cells):
        for r in c.ridges:
            owners.setdefault(r, []).append(i)
    for r, own in owners.items():
        if len(own) > 2:
            raise PseudomanifoldError(f"ridge {sorted(r)} lies in {len(own)} cells")
    factors: list[list[int]] = []
    edges: list[tuple[int, int, frozenset[int]]] = []

    def reach(i: int, members: set[int], cut: set[frozenset[int]]) -> set[int]:
        comp, stack = {i}, [i]
        while stack:
            for r in cells[stack.pop()].ridges - cut:
                for nb in owners[r]:
                    if nb in members and nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
        return comp

    def decompose(part: list[int], carried: list[frozenset[int]]) -> list[int]:
        members = set(part)
        missing = [
            m for m in carried if all(not members.isdisjoint(owners[m - {x}]) for x in m)
        ]
        if not missing:
            factors.append(part)
            return [len(factors) - 1]
        a = missing[0]
        cut = {a - {x} for x in a}
        side = reach(part[0], members, cut)
        rest = [i for i in part if i not in side]
        if not rest or reach(rest[0], members, cut) != set(rest):
            raise DegeneracyError(f"cutting along {sorted(a)} does not give two components")
        k = len(cells)
        cells.append(simplex_cell(a))
        for r in cut:
            owners[r].append(k)
        s1 = [i for i in part if i in side] + [k]
        s2 = rest + [k]
        idx1 = decompose(s1, missing[1:])
        idx2 = decompose(s2, missing[1:])
        i, j = (next(f for f in idx if k in factors[f]) for idx in (idx1, idx2))
        edges.append((i, j, a))
        return idx1 + idx2

    decompose(list(range(len(cells))), cell_missing_by_extension_index(cells, d))
    return [tuple(cells[i] for i in part) for part in factors], edges


def cell_missing_by_ridge_scan(cells: Sequence[Cell], d: int) -> list[frozenset[int]]:
    """Missing simplices, testing every ridge plus every vertex off it."""
    ridges = {r for c in cells for r in c.ridges}
    simplices = {c.vertices for c in cells if c.is_simplex(d)}
    verts = frozenset().union(*(c.vertices for c in cells))
    out = set()
    for r in ridges:
        for x in verts - r:
            a = r | {x}
            if a not in simplices and all(a - {y} in ridges for y in r):
                out.add(a)
    return sorted(out, key=face_key)


def cell_split(cells: Sequence[Cell], a: frozenset[int]) -> tuple[list[Cell], list[Cell]]:
    """Cut a sphere of cells along a missing simplex a, rebuilding the incidence.

    Each part keeps its cells in the given order, with a appended.
    """
    cut = {a - {x} for x in a}
    inc: dict[frozenset[int], list[int]] = {}
    for i, c in enumerate(cells):
        for r in c.ridges:
            inc.setdefault(r, []).append(i)
    for r, owners in inc.items():
        if len(owners) > 2:
            raise PseudomanifoldError(f"ridge {sorted(r)} lies in {len(owners)} cells")

    def reach(i: int) -> set[int]:
        comp, stack = {i}, [i]
        while stack:
            for r in cells[stack.pop()].ridges - cut:
                for nb in inc[r]:
                    if nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
        return comp

    side = reach(0)
    rest = set(range(len(cells))) - side
    if not rest or reach(min(rest)) != rest:
        raise DegeneracyError(f"cutting along {sorted(a)} does not give two components")
    new = simplex_cell(a)
    return (
        [c for i, c in enumerate(cells) if i in side] + [new],
        [c for i, c in enumerate(cells) if i in rest] + [new],
    )


def carried_missing(
    part: Sequence[Cell], missing: Iterable[frozenset[int]]
) -> list[frozenset[int]]:
    """The parent's missing simplices whose ridges are all ridges of part."""
    ridges = {r for c in part for r in c.ridges}
    return [m for m in missing if all(m - {x} in ridges for x in m)]


def cell_decomposition_per_split(
    cells: Sequence[Cell], d: int
) -> tuple[list[tuple[Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """Factors and cut tree, each split building its own part's incidence."""
    factors: list[tuple[Cell, ...]] = []
    edges: list[tuple[int, int, frozenset[int]]] = []

    def decompose(part: Sequence[Cell], missing: list[frozenset[int]]) -> list[int]:
        if not missing:
            factors.append(tuple(part))
            return [len(factors) - 1]
        a = missing[0]
        s1, s2 = cell_split(part, a)
        idx1 = decompose(s1, carried_missing(s1, missing[1:]))
        idx2 = decompose(s2, carried_missing(s2, missing[1:]))
        i, j = (
            next(k for k in idx if any(c.vertices == a for c in factors[k]))
            for idx in (idx1, idx2)
        )
        edges.append((i, j, a))
        return idx1 + idx2

    decompose(cells, cell_missing_by_ridge_scan(cells, d))
    return factors, edges


def verify_shelling_pairwise(
    c: SimplicialComplex, order: Sequence[Iterable[int]]
) -> ShellingCertificate:
    """verify_shelling as it intersected each facet with every earlier one.

    At step j >= 2 every face of the new facet already present must lie in
    an old ridge of that facet; equivalently all maximal intersections with
    earlier facets have codimension 1.  The restriction face is the set of
    vertices whose opposite ridge is old; it is the unique minimal new face.
    """
    seq = [frozenset(f) for f in order]
    if len(seq) != len(c.facets) or set(seq) != set(c.facets) or len(set(seq)) != len(seq):
        raise DomainError("order must list every facet exactly once")
    size = c.dim + 1
    restriction: list[frozenset[int]] = []
    for j, fj in enumerate(seq):
        if j == 0:
            rj = frozenset()
        else:
            inters = {fj & seq[i] for i in range(j)}
            big = {x for x in inters if len(x) == size - 1}
            for x in inters:
                if not any(x <= b for b in big):
                    raise ShellingError(
                        j + 1,
                        f"facet {sorted(fj)} meets earlier facets in "
                        f"{sorted(x)}, not inside any old ridge",
                    )
            rj = frozenset(x for x in fj if (fj - {x}) in big)
        restriction.append(rj)
    return ShellingCertificate(c, tuple(seq), tuple(restriction))


def key_shelling_defects_by_face_counts(
    cert: ShellingCertificate, y_id: int, v_id: int
) -> tuple[tuple[int, ...], ...]:
    """key_shelling_defects as it counted the faces of the four links.

    Per-step, per-k values of (h^j(Q) - h^j(Q/v)) - (h^j(F) - h^j(F/v)).
    h^j means the h-vector of the union of the first j facets.  The F
    complex is read off as the link of y (its facets are the y-facets of
    the prefix with y removed), since stacking beyond the special facet
    makes that link the facet's boundary sphere; F/v is the link of the
    edge yv.  A link with no faces yet has the zero h-vector.

    One pass over the order keeps the faces seen so far.  The link of a
    face u in the prefix is generated by {f - u : u <= f}, so its faces
    are the prefix faces containing u, less u: each new face is counted
    into every link whose face it contains, |u| sizes lower.  The cost is
    O(m 2^d) for m facets of size d; no complex is built per step.
    """
    if y_id == v_id:
        raise DomainError("y and v must be two distinct vertex ids")
    d = cert.complex.dim + 1
    # Q, Q/v, F and F/v are the links of these faces, with these signs.
    links = (frozenset(), frozenset({v_id}), frozenset({y_id}), frozenset({y_id, v_id}))
    signs = (1, -1, -1, 1)
    counts = [[0] * (d + 1 - len(u)) for u in links]
    hs = [(0,) * (d + 1)] * len(links)
    seen: set[frozenset[int]] = set()
    out = []
    for facet in cert.order:
        for size in range(d + 1):
            for face in map(frozenset, combinations(facet, size)):
                if face in seen:
                    continue
                seen.add(face)
                for u, c in zip(links, counts):
                    if u <= face:
                        c[size - len(u)] += 1
        for i, u in enumerate(links):
            if u <= facet:  # else the link gained no face at this step
                h = h_from_f(FVector(d - len(u), tuple(counts[i]))).entries
                hs[i] = h + (0,) * len(u)
        out.append(tuple(sum(s * h[k] for s, h in zip(signs, hs)) for k in range(d + 1)))
    return tuple(out)


def supporting_hyperplane(
    hom: list[list[int]], subset: Sequence[int]
) -> tuple[tuple[int, ...], frozenset[int]] | None:
    """Primitive inward hyperplane through the points at 0-based `subset`.

    The kernel solve stack_over_special once made per cone.  The normal
    spans the kernel of the subset's homogeneous coordinate matrix.
    Returns it as (offset, *normal) with the ids of every point on it, or
    None when the subset spans no hyperplane or points lie strictly on
    both sides.
    """
    kernel = int_nullspace([hom[i] for i in subset])
    if len(kernel) != 1:
        return None
    w = kernel[0]
    dots = _dots(w, hom)
    has_pos = any(x > 0 for x in dots)
    has_neg = any(x < 0 for x in dots)
    if has_pos and has_neg:
        return None
    if has_neg:
        w = [-x for x in w]
    on_ids = frozenset(i + 1 for i, x in enumerate(dots) if x == 0)
    return tuple(_primitive(w)), on_ids


def homogeneous(coords: Sequence[Fraction]) -> list[int]:
    """An integer vector positively proportional to (1, coords).

    The conversion aspoly.hull once made for every point, when PointConfig
    stored rational coordinates; PointConfig.from_rationals must agree.
    """
    scale = math.lcm(*(c.denominator for c in coords)) if coords else 1
    return [scale] + [c.numerator * (scale // c.denominator) for c in coords]


def rational_points(config: PointConfig) -> tuple[tuple[int, tuple[Fraction, ...]], ...]:
    """(id, rational coordinates) per point, as PointConfig once stored them."""
    return tuple(
        (pid, tuple(Fraction(c, h[0]) for c in h[1:])) for pid, h in enumerate(config.hom, 1)
    )


def point_beyond(
    geom: ASPGeometry,
    facet: FacetDescriptor,
    toward: int | None = None,
    closeness: int = 0,
) -> tuple[Fraction, ...]:
    """Exact point beyond one facet: outside it, strictly inside all others.

    Walks out of the polytope from the interior centroid through a
    relative-interior point of the facet, taking the longest step 2^-k
    (k >= 0) for which the beyond conditions hold.  Every facet's value is
    affine along the walk, so k is solved for exactly, facet by facet; a
    facet that needs more than _MAX_HALVINGS halvings raises
    DegeneracyError.  With `toward` the exit point is pulled toward that
    facet vertex by the weight 1 - 2^-closeness, which stays below 1, so
    the exit point remains in the relative interior.  Closeness extra
    halvings then bring the result toward the facet, since shrinking
    preserves all three conditions.  The returned point is checked
    exactly.  The centroid, the exit point and the result are integer
    vectors positively proportional to (1, point) until it is returned.

    stack_over_special makes this placement inline, for the special facet.
    """
    if facet not in geom.facets:
        raise NotAFaceError("facet descriptor does not belong to this geometry")
    hom = geom.config.hom
    hb = _mean(hom, [1] * len(hom))
    he = _mean([hom[v - 1] for v in facet.vertex_ids], [1] * len(facet.vertex_ids))
    if toward is not None:
        if toward not in facet.vertex_ids:
            raise DomainError(f"vertex {toward} is not on the chosen facet")
        he = _mean([he, hom[toward - 1]], [1, (1 << closeness) - 1])
    others = [f for f in geom.facets if f is not facet]
    # At exit + lam*(exit - centroid) a facet's value is E + lam*(E - B),
    # with E and B its values at the exit point and the centroid: positive
    # at lam = 2^-k exactly when 2^k * E > B - E.  In homogeneous form that
    # reads 2^k * r > p below.
    halvings = 0
    for f in others:
        r = _dot(f.plane, he) * hb[0]
        p = _dot(f.plane, hb) * he[0] - r
        needed = (max(p, 0) // r).bit_length() if r > 0 else _MAX_HALVINGS + 1
        halvings = max(halvings, needed)
    if halvings > _MAX_HALVINGS:
        raise DegeneracyError(
            f"no beyond point within {_MAX_HALVINGS} halvings of the step; "
            "another facet hyperplane passes through or next to the exit point"
        )
    # exit + 2^-k * (exit - centroid), times 2^k * he[0] * hb[0].
    up = (1 << (halvings + closeness)) + 1
    hy = [up * hb[0] * e - he[0] * b for e, b in zip(he, hb)]
    if _dot(facet.plane, hy) >= 0 or any(_dot(f.plane, hy) <= 0 for f in others):
        raise DegeneracyError("beyond point fails the beyond conditions")
    return tuple(Fraction(c, hy[0]) for c in hy[1:])


def extend_config(config: PointConfig, coords: Sequence[Fraction]) -> PointConfig:
    """Append one point with the next vertex id."""
    return PointConfig(config.d, (*config.hom, tuple(homogeneous(coords))))


class EagerLines(_LinesFrom):
    """_LinesFrom as it evaluated every target on every facet.

    The library evaluates a later target only on the facets it still has
    to tell apart; the order and the DegeneracyError raised must not change.
    """

    def order(self, *target_homs: Sequence[int]) -> list[frozenset[int]]:
        at = [_dots(t, self.rows) for t in target_homs]
        for i, a in enumerate(self.values):
            if all(c[i] * self.b0 == a * t[0] for c, t in zip(at, target_homs)):
                raise DegeneracyError("line parallel to a facet hyperplane")
        keys = [tuple((c[i] << self.shift) // a for c in at) for i, a in enumerate(self.values)]
        if len(set(keys)) != len(keys):
            raise DegeneracyError("line meets two facet hyperplanes at one parameter")
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        return [self.facets[i].vertex_ids for i in ranked]


def cofactor_det(rows) -> Fraction:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = Fraction(rows[0][j]) * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def gauss_rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the signed last pivot of exactnum's Bareiss."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant requires a square matrix")
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def stacked_sphere(d: int, n: int, moves: tuple[int, ...]) -> SimplicialComplex:
    """Stacked (d-1)-sphere on vertex ids 1..n, each move the index of the facet stacked over."""
    return _stacked_sphere_with_solids(d, n, moves)[0]


def is_stacked_sphere(sphere: SimplicialComplex) -> bool:
    """True when every prime factor is a simplex boundary: dim+2 facets on dim+2 vertices."""
    return all(
        len(f.vertex_ids) == len(f.facets) == f.dim + 2
        for f in prime_decomposition(sphere)
    )
