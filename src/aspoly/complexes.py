"""Pure simplicial complexes: faces, shellings, decompositions.

Complexes are immutable: a frozenset of same-size facets plus the dimension.
Vertex ids are arbitrary integers.  Operations that would produce a
non-pure result (induced subcomplexes of scattered vertex sets) raise
rather than silently change representation.

Face counts work on each facet's sorted vertex tuple, and f_vector caches
them per complex; boundaries come from a count of ridges.

Prime decomposition has one implementation, on spheres of cells: a
simplicial sphere is the case where every cell is a simplex, and the
minimizer recognizer in stackgen passes polyhedral cells too.  Missing
simplices are found once, by looking each ridge's completions up in an
index of the (d-2)-faces, and carried down the splits.  One map from
ridges to their cells serves every split.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .enumerative import ASPParams, FVector, HVector
from .errors import (
    DegeneracyError,
    DomainError,
    NotAFaceError,
    PseudomanifoldError,
    RefinementError,
    ShapeError,
    ShellingError,
)


def face_key(face: frozenset) -> tuple[int, ...]:
    """Canonical sort key for faces."""
    return tuple(sorted(face))


@dataclass(frozen=True)
class SimplicialComplex:
    """Pure simplicial complex given by its facets."""

    dim: int
    facets: frozenset[frozenset[int]]

    def __post_init__(self):
        for f in self.facets:
            if len(f) != self.dim + 1:
                raise ShapeError(
                    f"facet {sorted(f)} has {len(f)} vertices, expected {self.dim + 1}"
                )

    @staticmethod
    def from_facets(facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        fs = frozenset(frozenset(f) for f in facets)
        if not fs:
            return SimplicialComplex(-1, frozenset())
        sizes = {len(f) for f in fs}
        if len(sizes) != 1:
            raise ShapeError(f"mixed facet sizes {sorted(sizes)}: complex is not pure")
        return SimplicialComplex(sizes.pop() - 1, fs)

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.facets))) if self.facets else ()

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def sorted_facets(self) -> list[frozenset[int]]:
        return sorted(self.facets, key=face_key)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "facets": [sorted(f) for f in self.sorted_facets()],
        }

    @staticmethod
    def from_json(data: dict) -> "SimplicialComplex":
        return SimplicialComplex.from_facets(data["facets"])


def all_faces(c: SimplicialComplex, k: int) -> frozenset[frozenset[int]]:
    """Faces of dimension k (k+1 vertices); k = -1 gives the empty face."""
    if not -1 <= k <= c.dim:
        raise DomainError(f"no faces of dimension {k} in a {c.dim}-complex")
    faces = {t for f in c.facets for t in combinations(sorted(f), k + 1)}
    return frozenset(map(frozenset, faces))


@lru_cache(maxsize=256)
def f_vector(c: SimplicialComplex) -> FVector:
    """Face counts (f_{-1}, ..., f_dim) with parameter d = dim + 1.

    Faces are counted size by size as the combinations of each facet's
    sorted vertex tuple, so equal faces are equal tuples.
    """
    if not c.facets:
        raise DomainError("empty complex has no f-vector")
    facets = [sorted(f) for f in c.facets]
    counts = [len({t for f in facets for t in combinations(f, k)}) for k in range(c.dim + 1)]
    return FVector(c.dim + 1, (*counts, len(facets)))


def link(c: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """Link of a face: {G - face : face <= G facet}; pure of dim c.dim - |face|."""
    fs = frozenset(face)
    cofacets = [g - fs for g in c.facets if fs <= g]
    if not cofacets:
        raise NotAFaceError(f"{sorted(fs)} is not a face of the complex")
    return SimplicialComplex.from_facets(cofacets)


def star(c: SimplicialComplex, face: Iterable[int]) -> SimplicialComplex:
    """Closed star: the complex generated by all facets containing the face."""
    fs = frozenset(face)
    cofacets = [g for g in c.facets if fs <= g]
    if not cofacets:
        raise NotAFaceError(f"{sorted(fs)} is not a face of the complex")
    return SimplicialComplex.from_facets(cofacets)


def induced(c: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """Subcomplex of faces with all vertices in the given set.

    Raises if the result is not pure, since the complex type cannot
    represent it; callers needing only the induced graph should intersect
    edge sets directly.
    """
    vs = frozenset(vertices)
    traces = {g & vs for g in c.facets}
    traces.discard(frozenset())
    maximal = [t for t in traces if not any(t < u for u in traces)]
    if not maximal:
        return SimplicialComplex(-1, frozenset())
    sizes = {len(t) for t in maximal}
    if len(sizes) != 1:
        raise DomainError(
            "induced subcomplex is not pure; maximal face sizes " + str(sorted(sizes))
        )
    return SimplicialComplex.from_facets(maximal)


def simplex_join(apex_set: Iterable[int], c: SimplicialComplex) -> SimplicialComplex:
    """Join of a full simplex on apex_set with c (facetwise union)."""
    a = frozenset(apex_set)
    if not a:
        raise DomainError("apex set must be nonempty")
    if c.facets:
        if a & frozenset(c.vertex_ids):
            raise DomainError("join requires disjoint vertex sets")
        return SimplicialComplex.from_facets(a | g for g in c.facets)
    return SimplicialComplex.from_facets([a])


def _ridge_counts(c: SimplicialComplex) -> Counter:
    """Number of facets containing each ridge (codimension-1 face)."""
    return Counter(g - {x} for g in c.facets for x in g)


def boundary_of_ball(c: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by ridges lying in exactly one facet.

    Raises if some ridge lies in three or more facets, which rules out the
    pseudomanifold-with-boundary structure this operation presumes.
    """
    if not c.facets:
        raise DomainError("empty complex has no boundary")
    counts = _ridge_counts(c)
    fat = [r for r, k in counts.items() if k > 2]
    if fat:
        r = min(fat, key=face_key)
        raise PseudomanifoldError(f"ridge {sorted(r)} lies in {counts[r]} facets")
    return SimplicialComplex.from_facets(r for r, k in counts.items() if k == 1)


def is_closed_pseudomanifold(c: SimplicialComplex) -> bool:
    return all(k == 2 for k in _ridge_counts(c).values())


@dataclass(frozen=True)
class ShellingCertificate:
    """A verified shelling order with its restriction faces.

    prefix_h[j] is the h-vector histogram after j+1 steps: entry k counts
    steps whose restriction face has k vertices.  The final histogram is
    the h-vector of the full complex.
    """

    complex: SimplicialComplex
    order: tuple[frozenset[int], ...]
    restriction: tuple[frozenset[int], ...]
    prefix_h: tuple[tuple[int, ...], ...]


def verify_shelling(
    c: SimplicialComplex, order: Sequence[Iterable[int]]
) -> ShellingCertificate:
    """Check the shelling condition step by step and certify the order.

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
    hist = [0] * (c.dim + 2)
    prefix: list[tuple[int, ...]] = []
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
        hist[len(rj)] += 1
        prefix.append(tuple(hist))
    return ShellingCertificate(c, tuple(seq), tuple(restriction), tuple(prefix))


def h_from_shelling(cert: ShellingCertificate) -> HVector:
    """h-vector read off the restriction-face histogram of a full shelling."""
    return HVector(cert.complex.dim + 1, cert.prefix_h[-1])


@dataclass(frozen=True)
class PrimeDecomposition:
    """Prime factors of a sphere and the tree of cuts joining them.

    Each tree edge records the indices of the two factors glued along the
    inserted missing facet.
    """

    factors: tuple[SimplicialComplex, ...]
    tree_edges: tuple[tuple[int, int, frozenset[int]], ...]


@dataclass(frozen=True)
class _Cell:
    """Polyhedral cell: vertex set and boundary ridges.

    original_f marks a prime factor of an ASP's special facet F.
    """

    vertices: frozenset[int]
    ridges: frozenset[frozenset[int]]
    original_f: bool

    def is_simplex(self, d: int) -> bool:
        return len(self.vertices) == d


def _simplex_cell(vertices: frozenset[int]) -> _Cell:
    return _Cell(vertices, frozenset(vertices - {x} for x in vertices), False)


def _cell_missing_simplices(cells: Sequence[_Cell], d: int) -> list[frozenset[int]]:
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


def _cell_decomposition(
    cells: Sequence[_Cell], d: int
) -> tuple[list[tuple[_Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """Split a sphere of cells along missing simplices until none is left.

    Returns the prime factors, each a tuple of cells, and the tree of
    cuts as (factor index, factor index, cut simplex).  The lexicographically
    first missing simplex a is cut first.  A ridge in three or more cells
    raises PseudomanifoldError.

    One map, built once, sends each ridge to the cells that own it.  A part
    is a list of indices into the cells; it is cut along a by two walks
    that cross only its own members' ridges other than a's, and each part
    keeps its cells in the given order, with a appended.  The cut simplex
    joins the cells, and its index joins the owners of its ridges.

    The missing set is searched once, at the root, and carried down: each
    part of the cut along a keeps the parent's other missing simplices
    whose ridges all have an owner in that part.  Such a simplex is still
    missing there, since the part's cells are parent cells plus a.  No new
    one appears either.  The part's ridges are parent ridges (a's ridges
    are, as a was missing), so a new missing simplex of the part would be
    a simplex cell of the other side whose ridges all lie in this part.  A
    ridge lies in two cells, and two cells on different sides meet only in
    a cut ridge, so all its ridges would be ridges of a: it would be a
    itself, but a was missing in the parent, so it is no cell of the other
    side.
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
        cells.append(_simplex_cell(a))
        for r in cut:
            owners[r].append(k)
        s1 = [i for i in part if i in side] + [k]
        s2 = rest + [k]
        idx1 = decompose(s1, missing[1:])
        idx2 = decompose(s2, missing[1:])
        i, j = (next(f for f in idx if k in factors[f]) for idx in (idx1, idx2))
        edges.append((i, j, a))
        return idx1 + idx2

    decompose(list(range(len(cells))), _cell_missing_simplices(cells, d))
    return [tuple(cells[i] for i in part) for part in factors], edges


def prime_decomposition(sphere: SimplicialComplex) -> PrimeDecomposition:
    """Split a simplicial sphere, its facets taken as simplex cells.

    The cut simplices are taken in lexicographic order; the result is
    order-independent for spheres of dimension at least 2 and the facet
    counts obey sum_i f_top(factor_i) = f_top(sphere) + 2 (number of cuts).
    """
    if sphere.dim < 2:
        raise DomainError("prime decomposition needs dimension at least 2")
    if not is_closed_pseudomanifold(sphere):
        raise PseudomanifoldError("input has boundary or fat ridges")
    cells = [_simplex_cell(g) for g in sphere.sorted_facets()]
    parts, edges = _cell_decomposition(cells, sphere.dim + 1)
    factors = [SimplicialComplex.from_facets(c.vertices for c in part) for part in parts]
    total = sum(f.n_facets for f in factors)
    if total != sphere.n_facets + 2 * len(edges) or len(edges) != len(factors) - 1:
        raise DegeneracyError("decomposition bookkeeping violated the cut identity")
    return PrimeDecomposition(tuple(factors), tuple(edges))


def is_simplex_boundary(c: SimplicialComplex) -> bool:
    """True when c is the boundary of a simplex on dim+2 vertices."""
    m = c.dim + 2
    return len(c.vertex_ids) == m and len(c.facets) == m


def is_stacked_sphere(sphere: SimplicialComplex) -> bool:
    """True when every prime factor is a simplex boundary."""
    dec = prime_decomposition(sphere)
    return all(is_simplex_boundary(f) for f in dec.factors)


@dataclass(frozen=True)
class ClassCReport:
    """Outcome of the internal-structure test for triangulated balls."""

    is_member: bool
    reason: str | None
    internal_vertices: frozenset[int]


def class_c_membership(ball: SimplicialComplex) -> ClassCReport:
    """Check the two structural conditions used for minimizer rigidity.

    (i) the subgraph induced on internal vertices (those missing from the
    boundary) is nonempty and connected; (ii) every boundary edge lies in a
    2-face whose third vertex is internal.  A ball without internal
    vertices fails condition (i) by convention.
    """
    bd = boundary_of_ball(ball)
    bd_vertices = frozenset(bd.vertex_ids)
    internal = frozenset(ball.vertex_ids) - bd_vertices
    if not internal:
        return ClassCReport(False, "no internal vertices", internal)
    edges = all_faces(ball, 1)
    adj: dict[int, set[int]] = {v: set() for v in internal}
    for e in edges:
        if e <= internal:
            u, w = tuple(e)
            adj[u].add(w)
            adj[w].add(u)
    start = min(internal)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != internal:
        return ClassCReport(False, "internal vertex graph disconnected", internal)
    if bd.dim >= 1:
        triangles = all_faces(ball, 2) if ball.dim >= 2 else frozenset()
        for e in all_faces(bd, 1):
            if not any(e <= t and (t - e) <= internal for t in triangles):
                return ClassCReport(
                    False,
                    f"boundary edge {sorted(e)} misses an internal 2-face",
                    internal,
                )
    return ClassCReport(True, None, internal)


@dataclass(frozen=True)
class ASPComplex:
    """Combinatorial almost simplicial polytope: a ball plus its special facet.

    ``ball`` is the boundary complex with the special facet removed;
    ``special_facet`` is that facet's vertex set (d+s vertices).  When the
    instance came from a stacking construction, ``f_triangulation`` carries
    the triangulation of the special facet for later refinement.  Every
    reader of the special facet's boundary takes ``special_boundary``, so
    each instance is validated once.
    """

    params: ASPParams
    ball: SimplicialComplex
    special_facet: frozenset[int]
    f_triangulation: SimplicialComplex | None = None

    @cached_property
    def special_boundary(self) -> SimplicialComplex:
        """The special facet's boundary complex: validate_asp's result, computed once.

        A failed check raises and caches nothing.
        """
        return validate_asp(self)

    def boundary_sphere_facets(self) -> frozenset[frozenset[int]]:
        return self.ball.facets | {self.special_facet}

    def f_polytope(self) -> FVector:
        ent = list(f_vector(self.ball).entries)
        ent[-1] += 1
        return FVector(self.params.d, tuple(ent))

    def to_json(self) -> dict:
        return {
            "d": self.params.d,
            "n": self.params.n,
            "s": self.params.s,
            "ball": self.ball.to_json(),
            "special_facet": sorted(self.special_facet),
            "f_triangulation": (
                self.f_triangulation.to_json() if self.f_triangulation else None
            ),
        }

    @staticmethod
    def from_json(data: dict) -> "ASPComplex":
        tri = data.get("f_triangulation")
        return ASPComplex(
            ASPParams(data["d"], data["n"], data["s"]),
            SimplicialComplex.from_json(data["ball"]),
            frozenset(data["special_facet"]),
            SimplicialComplex.from_json(tri) if tri else None,
        )


def validate_asp(asp: ASPComplex) -> SimplicialComplex:
    """Structural checks tying the ball, the special facet, and the parameters.

    The ball must be a pure (d-1)-complex on n vertices whose boundary is
    exactly the induced subcomplex on the special facet's vertices, and the
    carried triangulation, if any, must fill that boundary.  Returns that
    boundary, the special facet's boundary complex.
    """
    d, n, s = asp.params.d, asp.params.n, asp.params.s
    if asp.ball.dim != d - 1:
        raise ShapeError(f"ball dimension {asp.ball.dim} != d-1 = {d - 1}")
    if len(asp.ball.vertex_ids) != n:
        raise ShapeError(f"ball has {len(asp.ball.vertex_ids)} vertices, expected {n}")
    if len(asp.special_facet) != d + s:
        raise ShapeError(
            f"special facet has {len(asp.special_facet)} vertices, expected {d + s}"
        )
    if not asp.special_facet <= frozenset(asp.ball.vertex_ids):
        raise ShapeError("special facet vertices must appear in the ball")
    bd = boundary_of_ball(asp.ball)
    ind = induced(asp.ball, asp.special_facet)
    if bd.facets != ind.facets:
        raise ShapeError(
            "boundary of the ball is not the induced complex on the special facet"
        )
    if asp.f_triangulation is not None:
        _check_fills_boundary(asp.f_triangulation, asp.special_facet, bd)
    return bd


def _check_fills_boundary(
    tri: SimplicialComplex, fv: frozenset[int], bd: SimplicialComplex
) -> None:
    if not frozenset(tri.vertex_ids) <= fv:
        raise RefinementError("triangulation uses vertices outside the special facet")
    if boundary_of_ball(tri).facets != bd.facets:
        raise RefinementError("triangulation boundary does not match the facet boundary")


def refine_by_triangulation(
    asp: ASPComplex, tri_f: SimplicialComplex
) -> SimplicialComplex:
    """Replace the special facet by a triangulation, producing a simplicial sphere."""
    _check_fills_boundary(tri_f, asp.special_facet, asp.special_boundary)
    if tri_f.dim != asp.ball.dim:
        raise RefinementError(
            f"triangulation dimension {tri_f.dim} != ball dimension {asp.ball.dim}"
        )
    return SimplicialComplex.from_facets(asp.ball.facets | tri_f.facets)
