"""Earlier implementations of aspoly library code, kept as test oracles.

Each function here is the direct version of an indexed one in the
library: faces counted as frozensets, ridges found by sorting the
facets, missing simplices found by testing every ridge-plus-vertex pair,
a decomposition that rebuilds the ridge incidence at every split, a
shelling check that intersects every pair of facets and one that holds
ridges as frozensets of vertex ids, key-lemma defects from running face
counts, hyperplanes from a kernel solve, a point's integer homogeneous
vector from its rational coordinates, a point placed beyond any one
facet, stacking that evaluated every kept facet at the exit point on
every rung, the stacked cone checked at every point, the constrained search
evaluating every facet at y, line orders that evaluate every target on
every facet, stacking constructions that sort the facets and rebuild the
complex at every move, refined cells masked from the prime factors as
complexes, trilateration blocks ranked modulo 2^61 - 1, the gift-wrap
that carried every facet's values at all points with facets and ridges
as frozensets, and the Bareiss echelon form that found its pivots by
generators, and the paper's own curve, whose last coordinate carries the
power factor (n-1)^((t-1)(d-1)).  The frozenset cells, their indexed
missing-simplex search and their decomposition are the library's code
before it moved to vertex bitmasks.  The property tests check that the library gives the same
results.

The mask converters run the library's bitmask search and decomposition
on frozenset cells and hand back frozensets, so the oracles and the
library are compared on one input.

Below them sit the small exact tools several test modules share:
cofactor determinants, Gaussian-elimination ranks and Bareiss
determinants, pyramids, single stacking moves on the library's walk, prime
factors as complexes, stacked spheres from facet indices, and the
stacked-sphere test by prime decomposition.
"""

import math
import random
from dataclasses import dataclass
from functools import cmp_to_key
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from aspoly.complexes import (
    ASPComplex,
    ShellingCertificate,
    SimplicialComplex,
    _cell_decomposition,
    _cell_missing_simplices,
    _face_ids,
    _mask,
    _prime_cells,
    _simplex_cell,
    _vertex_bits,
    boundary_of_ball,
    face_key,
)
from aspoly.curves import PointConfig, curve_parameters
from aspoly.enumerative import ASPParams, FVector, h_from_f
from aspoly.errors import (
    DegeneracyError,
    DomainError,
    InvalidMoveError,
    NotAFaceError,
    PseudomanifoldError,
    ShapeError,
    ShellingError,
    ShellingSearchError,
)
from aspoly.exactnum import _echelon, int_nullspace, rank_mod_p
from aspoly.hull import (
    ASPGeometry,
    FacetDescriptor,
    _check_cap,
    _dot,
    _dots,
    _LinesFrom,
    _mean,
    _pivot,
    _primitive,
    _verified,
)
from aspoly.rigidity import Graph, _trilateration_order
from aspoly.stackgen import (
    _refined_cells,
    _stacked_sphere_with_solids,
    _Walk,
    random_scripts,
    trivial_asp,
)


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
    masks, n_f = _refined_cells(asp, ids, _vertex_bits(ids))

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


def verify_shelling_by_frozensets(
    c: SimplicialComplex, order: Sequence[Iterable[int]]
) -> ShellingCertificate:
    """verify_shelling as it held each ridge as a frozenset of vertex ids.

    At step j >= 2 every face of the new facet F_j already present must lie
    in an old ridge of F_j.  The restriction face R_j is the set of vertices
    x whose opposite ridge F_j - x is old; it is the unique minimal new face.
    F_j & F_i lies in F_j - x exactly when x is not in F_i, so the condition
    reads: R_j is nonempty and lies in no earlier facet.  A bitmask per
    vertex of the earlier facets holding it tests that in O(d) per step.
    """
    seq = [frozenset(f) for f in order]
    if len(seq) != len(c.facets) or set(seq) != set(c.facets) or len(set(seq)) != len(seq):
        raise DomainError("order must list every facet exactly once")
    old_ridges: set[frozenset[int]] = set()
    holders: dict[int, int] = {}
    restriction: list[frozenset[int]] = []
    for j, fj in enumerate(seq):
        ridges = [fj - {x} for x in fj]
        rj = frozenset(x for x, r in zip(fj, ridges) if r in old_ridges)
        if j:
            inside = (1 << j) - 1  # earlier facets that hold all of R_j
            for x in rj:
                inside &= holders.get(x, 0)
            if inside:
                i = (inside & -inside).bit_length() - 1
                raise ShellingError(
                    j + 1,
                    f"facet {sorted(fj)} meets earlier facets in "
                    f"{sorted(fj & seq[i])}, not inside any old ridge",
                )
        old_ridges.update(ridges)
        for x in fj:
            holders[x] = holders.get(x, 0) | 1 << j
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


# The gift-wrap as it carried every found facet's values at all points:
# each crossing evaluated g at every point and formed the new facet's
# values there, and facets and ridges were frozensets of point indexes.


def rotate_with_values(
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


def inherited_normals_with_values(
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


def ridge_sets(
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
    return [frozenset(ids[k] for k in ridge) for ridge in gift_wrap_with_values(sub)]


def gift_wrap_with_values(hom: list[list[int]]) -> dict[frozenset[int], list[int]]:
    """Facets of full-dimensional homogeneous points, by gift-wrapping.

    Maps each facet's 0-based point set to its primitive inward
    hyperplane (offset, *normal).  The first facet comes from the support
    at the first point of least x_1 (ratios h[1]/h[0] compared by
    cross-multiplication), rotated about its face until the face spans a
    hyperplane.  A facet registers its ridges when it is found:
    a ridge registered once is open, held by that facet; registered
    again, by the facet on its other side, it is closed.  When a facet
    is popped it crosses only its ridges that are still open: rotate_with_values
    turns it outward about the ridge onto the neighbouring facet, taking
    every tied point with it, so each crossing finds a new facet.  The
    plane g it turns against passes through the ridge and is negative on
    the facet's other points.  The walk ends with every ridge closed and
    no crossing landing on a facet already found, or it raises
    PseudomanifoldError naming the ridge.

    A simplex facet holds one such g per vertex j, for its ridge without
    j.  When it is reached from another simplex facet it inherits them
    by inherited_normals_with_values, from the parent's planes stored when it was
    found, and only if it still has an open ridge when popped; otherwise
    (the first facet, and the neighbours of a non-simplex facet) it
    solves one kernel per vertex, through the ridge and a point off the
    facet.  A non-simplex facet solves that kernel per open ridge, its
    ridges coming from the wrap one dimension down.
    """
    d = len(hom[0]) - 1
    by_x1 = cmp_to_key(lambda i, j: hom[i][1] * hom[j][0] - hom[j][1] * hom[i][0])
    low = min(range(len(hom)), key=by_x1)
    w = _primitive([-hom[low][1], hom[low][0]] + [0] * (d - 1))
    a = _dots(w, hom)
    while True:
        off = hom[a.index(max(a))]
        kernel = int_nullspace([h for h, x in zip(hom, a) if x == 0] + [off])
        if not kernel:
            break
        w, a = rotate_with_values(hom, w, a, kernel[0])
    found: dict[frozenset[int], tuple[list[int], list[int]]] = {}
    ridges_of: dict[frozenset[int], list[frozenset[int]]] = {}
    open_ridges: dict[frozenset[int], frozenset[int]] = {}
    parents: dict[frozenset[int], tuple] = {}

    def register(facet: frozenset[int], w: list[int], a: list[int]) -> None:
        found[facet] = (w, a)
        ridges_of[facet] = ridge_sets(hom, facet, w)
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
                normals = inherited_normals_with_values(hom, *parent)
        for ridge in ridges:
            v = min(facet - ridge)
            g = normals[v] if simplex else _pivot(hom, ridge, off, v)
            nw, na = rotate_with_values(hom, w, a, g)
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


def paper_curve_points(params: ASPParams) -> PointConfig:
    """The paper's almost-cyclic points: last coordinate (n-1)^((t-1)(d-1)) * t(t+1)...(t+d+s-1).

    What curves.almost_cyclic_points built before its last coordinate
    dropped the power factor.  The factor is 1 on the roots t <= 0 and
    grows entries to about (n-d-s)(d-1)*log2(n-1) bits, so tests that
    exercise large integers, many halvings of y's step or inconclusive
    key-lemma rungs build their geometry here.
    """
    d, n, s = params.d, params.n, params.s
    rows = []
    for t in curve_parameters(params):
        last = (n - 1) ** max(0, (t - 1) * (d - 1)) * math.prod(range(t, t + d + s))
        rows.append((1, *(t**k for k in range(1, d)), last))
    return PointConfig(d, tuple(rows))


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
    facet whose hyperplane passes through the exit point, or cuts it off,
    raises DegeneracyError.  With `toward` the exit point is pulled toward
    that facet vertex by the weight 1 - 2^-closeness, which stays below 1,
    so the exit point remains in the relative interior.  Closeness extra
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
        if r <= 0:
            raise DegeneracyError(
                "no number of halvings of the step gives a beyond point; "
                "another facet hyperplane passes through or cuts off the exit point"
            )
        halvings = max(halvings, (max(p, 0) // r).bit_length())
    # exit + 2^-k * (exit - centroid), times 2^k * he[0] * hb[0].
    up = (1 << (halvings + closeness)) + 1
    hy = [up * hb[0] * e - he[0] * b for e, b in zip(he, hb)]
    if _dot(facet.plane, hy) >= 0 or any(_dot(f.plane, hy) <= 0 for f in others):
        raise DegeneracyError("beyond point fails the beyond conditions")
    return tuple(Fraction(c, hy[0]) for c in hy[1:])


def stack_over_special_by_dots(
    geom: ASPGeometry,
    toward: int | None = None,
    closeness: int = 2,
    cap: int | None = None,
) -> ASPGeometry:
    """stack_over_special as it evaluated every kept facet at the exit point per rung.

    Each call found the cone partners by intersecting every kept facet
    with F, built the exit point by _mean, took one dot product per kept
    facet there, and re-validated every point when y joined.  The library
    reads these from the geometry's stacking frame by linearity; the
    stacked geometry and every refusal must not change.
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
    bf = next(b for f, b in zip(geom.facets, geom.centroid_values) if f is special)
    # At exit + lam*(exit - centroid) a facet's value is E + lam*(E - B),
    # with E and B its values at the exit point and the centroid: positive
    # at lam = 2^-k exactly when 2^k * E > B - E.  In homogeneous form that
    # reads 2^k * r > p below.
    halvings = 0
    steps = []
    for _, f, b in kept:
        r = _dot(f.plane, he) * hb[0]
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
    hom = (*hom, hy)
    config = PointConfig(geom.d, hom)
    # The stacked centroid vector, as _mean would build it: with scale the
    # lcm of the old first coordinates (hb[0] = n * scale), it is
    # lcm(scale, y0)/scale * hb + lcm(scale, y0)/y0 * y.
    scale = hb[0] // geom.config.n
    both = math.lcm(scale, hy[0])
    mb, my = both // scale, both // hy[0]
    hc = tuple(mb * b + my * c for b, c in zip(hb, hy))
    facets = [(key, f, mb * b + my * ag, ag) for (key, f, b), ag in zip(kept, at_y)]
    for (_, g, b), ag in zip(kept, at_y):
        ridge = g.vertex_ids & special.vertex_ids
        if len(ridge) != geom.d - 1:
            continue
        pencil = [ag * a - af * c for a, c in zip(special.plane, g.plane)]
        kw = math.gcd(*pencil)
        w = tuple(c // kw for c in pencil)
        (x,) = g.vertex_ids - ridge
        if any(_dot(w, hom[i - 1]) for i in ridge) or _dot(w, hom[x - 1]) <= 0:
            raise DegeneracyError(
                f"cone from {y_id} over ridge {sorted(ridge)} "
                "is not a facet of the stacked hull"
            )
        cone = FacetDescriptor(ridge | {y_id}, w)
        facets.append(((*sorted(ridge), y_id), cone, mb * ((ag * bf - af * b) // kw), 0))
    # The kept facets are in _facet_order already (geom.facet_keys), and the
    # sort merges the cones into them; vertex sets differ, so no keys tie.
    facets.sort()
    stacked = ASPGeometry(config, tuple(f for _, f, _, _ in facets), None, None)
    # The cached properties, as a fresh geometry would compute them.
    vars(stacked).update(
        centroid=hc,
        centroid_values=tuple(c for _, _, c, _ in facets),
        last_values=tuple(a for _, _, _, a in facets),
    )
    return stacked


def extend_config(config: PointConfig, coords: Sequence[Fraction]) -> PointConfig:
    """Append one point with the next vertex id."""
    return PointConfig(config.d, (*config.hom, tuple(homogeneous(coords))))


def constrained_line_shelling_evaluated(
    geom: ASPGeometry, y_id: int, v_id: int, seed: int
) -> ShellingCertificate:
    """constrained_line_shelling as it evaluated every facet at y.

    The library reads the values at y that stacking hands over when y is
    the last point; the certificate and every refusal must not change.
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
    order = _LinesFrom(geom).order(hom[y_id - 1], hom[v_id - 1], g)
    blocks = [0 if y_id in f else 1 if v_id in f else 2 for f in order]
    if blocks != sorted(blocks):
        raise ShellingSearchError(
            f"the line through y={y_id} perturbed toward v={v_id} does not shell "
            "st(y), then st(v), first; inconclusive at this placement of y"
        )
    return _verified(geom.boundary_complex(), order)


def cone_meets_points_exactly(hom: Sequence[Sequence[int]], cone: FacetDescriptor) -> bool:
    """stack_over_special's cone check as it evaluated the plane at all n+1 points.

    The plane must be >= 0 at every point and 0 exactly at the cone's
    vertices.  The library checks the d points of the cone's old facet G
    instead, which the pencil argument in its docstring shows is enough.
    """
    values = _dots(cone.plane, hom)
    zeros = frozenset(i for i, x in enumerate(values, 1) if x == 0)
    return min(values) >= 0 and zeros == cone.vertex_ids


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


def _resolve(index: int, facets: Iterable[frozenset[int]]) -> frozenset[int]:
    """The facet at this index of the sorted facet list."""
    ordered = sorted(facets, key=face_key)
    if not 0 <= index < len(ordered):
        raise InvalidMoveError(f"facet index {index} out of range 0..{len(ordered) - 1}")
    return ordered[index]


def _stack_facets(
    facets: frozenset[frozenset[int]], target: frozenset[int], w: int
) -> frozenset[frozenset[int]]:
    """Replace one facet by the cone from w over its boundary ridges."""
    return (facets - {target}) | {(target - {x}) | {w} for x in target}


def stacked_sphere_with_solids_by_sorting(
    d: int, n: int, moves: tuple[int, ...]
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Stacked (d-1)-sphere on vertex ids 1..n, each move the index of the
    facet stacked over, plus the solid simplices accumulated while stacking."""
    if d < 2:
        raise DomainError("stacked spheres need dimension at least 2")
    if n < d + 1:
        raise DomainError(f"need at least {d + 1} vertices, got {n}")
    if len(moves) != n - d - 1:
        raise ShapeError(f"script needs exactly {n - d - 1} moves for n={n}, got {len(moves)}")
    base = frozenset(range(1, d + 2))
    facets = frozenset(base - {x} for x in base)
    solids = {base}
    next_id = d + 2
    for index in moves:
        target = _resolve(index, facets)
        facets = _stack_facets(facets, target, next_id)
        solids.add(target | {next_id})
        next_id += 1
    return SimplicialComplex.from_facets(facets), SimplicialComplex.from_facets(solids)


def almost_stacked_by_sorting(
    p: ASPParams, f_moves: tuple[int, ...], p_moves: tuple[int, ...]
) -> ASPComplex:
    """almost_stacked as it sorted the facets and rebuilt the complex at every move."""
    d, n, s = p.d, p.n, p.s
    f_boundary, f_solids = stacked_sphere_with_solids_by_sorting(d - 1, d + s, f_moves)
    apex = d + s + 1
    ball = pyramid(f_boundary, apex)
    asp = ASPComplex(
        ASPParams(d, apex, s), ball, frozenset(range(1, d + s + 1)), f_solids
    )
    for index in p_moves:
        asp = stack_over_by_sorting(asp, index)
    if asp.params != p:
        raise ShapeError(
            f"script length mismatch: built {asp.params}, requested {p}"
        )
    asp.special_boundary  # validate_asp
    return asp


def _next_vertex_id(asp: ASPComplex) -> int:
    return max(asp.ball.vertex_ids) + 1


def stack_over_by_sorting(asp: ASPComplex, index: int) -> ASPComplex:
    """stack_over as it sorted the ball's facets and rebuilt the complex."""
    target = _resolve(index, asp.ball.facets)
    w = _next_vertex_id(asp)
    ball = SimplicialComplex.from_facets(_stack_facets(asp.ball.facets, target, w))
    q = asp.params
    return ASPComplex(
        ASPParams(q.d, q.n + 1, q.s), ball, asp.special_facet, asp.f_triangulation
    )


def h_stack_by_sorting(asp: ASPComplex, index: int) -> ASPComplex:
    """h_stack as it recounted the ball's ridges for the special facet's boundary."""
    g = _resolve(index, boundary_of_ball(asp.ball).facets)
    t = next(t for t in asp.ball.facets if g <= t)
    w = _next_vertex_id(asp)
    new_facets = (asp.ball.facets - {t}) | {
        (t - {x}) | {w} for x in t if (t - {x}) != g
    }
    q = asp.params
    tri = asp.f_triangulation
    new_tri = None
    if tri is not None:
        new_tri = SimplicialComplex.from_facets(tri.facets | {g | {w}})
    return ASPComplex(
        ASPParams(q.d, q.n + 1, q.s + 1),
        SimplicialComplex.from_facets(new_facets),
        asp.special_facet | {w},
        new_tri,
    )


def random_minimizer_by_sorting(p: ASPParams, seed: int, style: str = "stack") -> ASPComplex:
    """random_minimizer as it built and rebuilt an ASPComplex at every move."""
    if style == "stack":
        sf, sp = random_scripts(p, seed)
        return almost_stacked_by_sorting(p, sf, sp)
    if style != "hstack":
        raise DomainError(f"unknown style {style!r}")
    rng = random.Random(seed)
    d, n, s = p.d, p.n, p.s
    kinds = ["hstack"] * s + ["stack"] * (n - d - 1 - s)
    rng.shuffle(kinds)
    asp = trivial_asp(d)
    # The special facet's boundary starts with d facets; h_stack adds d-2.
    f_count = d
    for kind in kinds:
        if kind == "stack":
            asp = stack_over_by_sorting(asp, rng.randrange(len(asp.ball.facets)))
        else:
            asp = h_stack_by_sorting(asp, rng.randrange(f_count))
            f_count += d - 2
    asp.special_boundary  # validate_asp
    return asp


def refined_cells_by_complexes(asp: ASPComplex, bit: dict[int, int]) -> tuple[list, int]:
    """_refined_cells as it masked prime_decomposition's SimplicialComplex factors again."""
    cells = [
        (_mask(s.vertex_ids, bit), tuple(_mask(g, bit) for g in s.facets))
        for s in prime_decomposition(asp.special_boundary)
    ]
    n_f = len(cells)
    cells.extend(_simplex_cell(_mask(b, bit)) for b in asp.ball.facets)
    return cells, n_f


def trilateration_rank_mod_p(g: Graph, embedding: Mapping[int, Sequence[int]]) -> int:
    """_trilateration_rank as it ranked each d-column block modulo 2^61 - 1."""
    total = 0
    for v, earlier in _trilateration_order(g):
        if earlier:
            pv = embedding[v]
            total += rank_mod_p([[a - b for a, b in zip(pv, embedding[u])] for u in earlier])
    return total


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


def echelon_by_generator(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """exactnum._echelon as it checked raggedness and found pivots by generators.

    Bareiss fraction-free row echelon form, its pivot columns and swap sign.

    Column pivoting with the Sylvester-identity division: every division
    is exact, since each divisor is a minor of the rows taken in the
    order the elimination used them; skipped columns leave the update
    divisor untouched.  Row k of the result is zero left of its pivot,
    the last pivot is the determinant of the pivot block of the permuted
    rows, and the sign (+1 or -1) is that of the row permutation.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise ShapeError("ragged rows")
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        pk = ar[c]
        for i in range(r + 1, m):
            ai = a[i]
            aic = ai[c]
            for j in range(c + 1, n):
                ai[j] = (pk * ai[j] - aic * ar[j]) // prev
            ai[c] = 0
        prev = pk
        pivots.append(c)
    return a, pivots, sign


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the signed last pivot of exactnum's Bareiss."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant requires a square matrix")
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def pyramid(base: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over a complex with a fresh apex vertex."""
    if apex in base.vertex_ids:
        raise DomainError(f"apex {apex} already occurs in the base")
    return SimplicialComplex.from_facets(g | {apex} for g in base.facets)


def stack_over(asp: ASPComplex, index: int) -> ASPComplex:
    """Stack a fresh vertex over the ball facet at this sorted index; F is untouched.

    One move of the library's walk.  Only ball facets are selectable, so
    the special facet can never be stacked over through this operation.
    """
    walk = _Walk(asp.ball.facets)
    walk.stack(index)
    q = asp.params
    ball = SimplicialComplex.from_facets(walk.facets)
    return ASPComplex(ASPParams(q.d, q.n + 1, q.s), ball, asp.special_facet, asp.f_triangulation)


def h_stack(asp: ASPComplex, index: int) -> ASPComplex:
    """Grow the special facet by stacking inside its own hyperplane.

    One move of the library's walk.  The facet G of F's boundary at this
    sorted index is a boundary ridge of the ball, so it lies in exactly
    one ball facet T; the new vertex w replaces T by cones over T's other
    ridges, F gains w, and the carried triangulation is stacked over G.
    Net effect: n and s both grow by one and the ball gains d-2 facets.
    """
    walk = _Walk(asp.ball.facets, boundary_of_ball(asp.ball).facets)
    solid = walk.h_stack(index)
    q = asp.params
    tri = asp.f_triangulation
    if tri is not None:
        tri = SimplicialComplex.from_facets(tri.facets | {frozenset(solid)})
    ball = SimplicialComplex.from_facets(walk.facets)
    return ASPComplex(ASPParams(q.d, q.n + 1, q.s + 1), ball, asp.special_facet | {solid[-1]}, tri)


def prime_decomposition(sphere: SimplicialComplex) -> tuple[SimplicialComplex, ...]:
    """The prime factors of a simplicial sphere as complexes on its vertex ids.

    The library's decomposition, with each factor's facet masks read back
    as vertex ids.
    """
    ids = sphere.vertex_ids
    cells, parts = _prime_cells(sphere, ids, _vertex_bits(ids))
    return tuple(
        SimplicialComplex.from_facets(_face_ids(cells[i][0], ids) for i in part)
        for part in parts
    )


def stacked_sphere(d: int, n: int, moves: tuple[int, ...]) -> SimplicialComplex:
    """Stacked (d-1)-sphere on vertex ids 1..n, each move the index of the facet stacked over."""
    return SimplicialComplex.from_facets(_stacked_sphere_with_solids(d, n, moves)[0].facets)


def is_stacked_sphere(sphere: SimplicialComplex) -> bool:
    """True when every prime factor is a simplex boundary: dim+2 facets on dim+2 vertices."""
    return all(
        len(f.vertex_ids) == len(f.facets) == f.dim + 2
        for f in prime_decomposition(sphere)
    )
