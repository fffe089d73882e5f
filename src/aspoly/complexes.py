"""Pure simplicial complexes: faces, shellings, decompositions.

Complexes are immutable: a frozenset of same-size facets plus the dimension.
Vertex ids are arbitrary integers.  Operations that would produce a
non-pure result (induced subcomplexes of scattered vertex sets) raise
rather than silently change representation.

Face counts work on each facet's sorted vertex tuple, and f_vector caches
them per complex; boundaries come from a count of ridges.

Prime decomposition has one implementation, on spheres of cells: a
simplicial sphere is the case where every cell is a simplex, and the
minimizer recognizer in stackgen passes polyhedral cells too.  Inside it
a face is an int bitmask over vertex positions: the vertex of rank k in
sorted id order is bit k, whatever its id, so masks order faces as
face_key does.  Missing simplices are found once, by looking each
ridge's completions up in an index of the (d-2)-faces, and carried down
the splits.  One map from ridges to their cells serves every split.
Faces leave the decomposition, results and error messages alike, as
vertex ids.
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
    """A verified shelling order with its restriction faces."""

    complex: SimplicialComplex
    order: tuple[frozenset[int], ...]
    restriction: tuple[frozenset[int], ...]


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


def h_from_shelling(cert: ShellingCertificate) -> HVector:
    """h-vector of a full shelling: h_k counts the steps whose restriction face has k vertices."""
    d = cert.complex.dim + 1
    hist = [0] * (d + 1)
    for r in cert.restriction:
        hist[len(r)] += 1
    return HVector(d, tuple(hist))


# A cell of the decomposition: its vertex mask and its ridges' masks.
_MaskCell = tuple[int, tuple[int, ...]]


def _bits(m: int) -> list[int]:
    """The one-bit masks of m, lowest first.

    As a sort key it gives face_key order, since bits follow sorted id
    order.
    """
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return out


def _vertex_bits(ids: Sequence[int]) -> dict[int, int]:
    """Bit 1 << k for the vertex at position k of the sorted ids, whatever its id."""
    return {v: 1 << k for k, v in enumerate(ids)}


def _mask(face: Iterable[int], bit: dict[int, int]) -> int:
    return sum(map(bit.__getitem__, face))


def _face_ids(m: int, ids: Sequence[int]) -> list[int]:
    """The sorted vertex ids of a mask."""
    return [ids[b.bit_length() - 1] for b in _bits(m)]


def _simplex_cell(m: int) -> _MaskCell:
    return m, tuple(m ^ b for b in _bits(m))


def _cell_missing_simplices(cells: Sequence[_MaskCell], d: int) -> list[int]:
    """Missing facets: d-vertex sets that are not faces but whose facets are.

    Every (d-1)-vertex face is a cell ridge and every d-vertex face is a
    simplex cell.  A candidate a = r + x, with r a ridge, needs (r - y) + x
    to be a ridge for every y in r.  So an index sends each (d-2)-face
    r ^ y to the OR of the bits that extend it to a ridge, and the AND of
    r's d - 1 index values holds every x.  Only bits above r's top bit are
    taken, which finds each a once, from r = a - max(a).  The result is in
    face_key order.
    """
    ridges = {r: _bits(r) for r in {r for _, rs in cells for r in rs}}
    simplices = {m for m, _ in cells if m.bit_count() == d}
    extensions: dict[int, int] = {}
    for r, ys in ridges.items():
        for y in ys:
            extensions[r ^ y] = extensions.get(r ^ y, 0) | y
    out = []
    for r, ys in ridges.items():
        cand = -1 << r.bit_length()
        for y in ys:
            cand &= extensions[r ^ y]
        for x in _bits(cand):
            a = r | x
            if a not in simplices:
                out.append(a)
    return sorted(out, key=_bits)


def _cell_decomposition(
    cells: Sequence[_MaskCell], d: int, ids: Sequence[int]
) -> tuple[list[_MaskCell], list[list[int]], list[tuple[int, int, int]]]:
    """Split a sphere of cells along missing simplices until none is left.

    Bit k of a mask stands for ids[k], and errors name faces by those ids.
    Returns the cells with the cut simplices appended, the prime factors as
    lists of indices into them, and the tree of cuts as (factor index,
    factor index, cut simplex).  The lexicographically first missing
    simplex a is cut first.  A ridge in three or more cells raises
    PseudomanifoldError, naming the first such ridge in face_key order.

    One map, built once, sends each ridge to the cells that own it.  A part
    is a list of cell indices; it is cut along a by two walks that cross
    only its own members' ridges other than a's, and each part keeps its
    cells in the given order, with a appended.  The cut simplex joins the
    cells, and its index joins the owners of its ridges.

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
    owners: dict[int, list[int]] = {}
    for i, (_, rs) in enumerate(cells):
        for r in rs:
            owners.setdefault(r, []).append(i)
    fat = [r for r, own in owners.items() if len(own) > 2]
    if fat:
        r = min(fat, key=_bits)
        raise PseudomanifoldError(f"ridge {_face_ids(r, ids)} lies in {len(owners[r])} cells")
    factors: list[list[int]] = []
    edges: list[tuple[int, int, int]] = []

    def reach(i: int, members: set[int], cut: set[int]) -> set[int]:
        comp, stack = {i}, [i]
        while stack:
            for r in cells[stack.pop()][1]:
                if r not in cut:
                    for nb in owners[r]:
                        if nb in members and nb not in comp:
                            comp.add(nb)
                            stack.append(nb)
        return comp

    def decompose(part: list[int], carried: list[_MaskCell]) -> list[int]:
        members = set(part)
        missing = [
            m for m in carried if all(not members.isdisjoint(owners[r]) for r in m[1])
        ]
        if not missing:
            factors.append(part)
            return [len(factors) - 1]
        cell = missing[0]
        a = cell[0]
        cut = set(cell[1])
        side = reach(part[0], members, cut)
        rest = [i for i in part if i not in side]
        if not rest or reach(rest[0], members, cut) != set(rest):
            raise DegeneracyError(
                f"cutting along {_face_ids(a, ids)} does not give two components"
            )
        k = len(cells)
        cells.append(cell)
        for r in cut:
            owners[r].append(k)
        s1 = [i for i in part if i in side] + [k]
        s2 = rest + [k]
        idx1 = decompose(s1, missing[1:])
        idx2 = decompose(s2, missing[1:])
        i, j = (next(f for f in idx if k in factors[f]) for idx in (idx1, idx2))
        edges.append((i, j, a))
        return idx1 + idx2

    missing = [_simplex_cell(a) for a in _cell_missing_simplices(cells, d)]
    decompose(list(range(len(cells))), missing)
    return cells, factors, edges


def prime_decomposition(sphere: SimplicialComplex) -> tuple[SimplicialComplex, ...]:
    """The prime factors of a simplicial sphere, its facets taken as simplex cells.

    The cut simplices are taken in lexicographic order; the result is
    order-independent for spheres of dimension at least 2 and the facet
    counts obey sum_i f_top(factor_i) = f_top(sphere) + 2 (number of cuts).
    The cut tree is _cell_decomposition's, run on masks over the sphere's
    sorted vertex ids.
    """
    if sphere.dim < 2:
        raise DomainError("prime decomposition needs dimension at least 2")
    if not is_closed_pseudomanifold(sphere):
        raise PseudomanifoldError("input has boundary or fat ridges")
    ids = sphere.vertex_ids
    bit = _vertex_bits(ids)
    cells = [_simplex_cell(_mask(g, bit)) for g in sphere.sorted_facets()]
    cells, parts, edges = _cell_decomposition(cells, sphere.dim + 1, ids)
    factors = [
        SimplicialComplex.from_facets(_face_ids(cells[i][0], ids) for i in part)
        for part in parts
    ]
    total = sum(f.n_facets for f in factors)
    if total != sphere.n_facets + 2 * len(edges) or len(edges) != len(factors) - 1:
        raise DegeneracyError("decomposition bookkeeping violated the cut identity")
    return tuple(factors)


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
    tri = asp.f_triangulation
    if tri is not None:
        if not frozenset(tri.vertex_ids) <= asp.special_facet:
            raise RefinementError("triangulation uses vertices outside the special facet")
        if boundary_of_ball(tri).facets != bd.facets:
            raise RefinementError("triangulation boundary does not match the facet boundary")
    return bd
