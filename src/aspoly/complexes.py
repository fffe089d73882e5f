"""Pure simplicial complexes: faces, shellings, decompositions.

Complexes are immutable: a frozenset of same-size facets plus the dimension.
Vertex ids are arbitrary integers.  Operations that would produce a
non-pure result (induced subcomplexes of scattered vertex sets) raise
rather than silently change representation.

Face counts work on each facet's sorted vertex tuple, and f_vector caches
them per complex; boundaries come from a count of those tuples' ridges.

The shelling condition is written once, in _shell, which takes blocks of
facets in turn and from each the first remaining facet that may come
next.  verify_shelling checks an order by passing one facet a block;
key_lemma_certificate searches Q, the ball plus a cone over the special
facet's boundary, with the blocks st(y), st(v) - st(y) and the rest, so
the key lemma needs no point placed and no line shot.

Prime decomposition has one implementation, on spheres of cells: a
simplicial sphere is the case where every cell is a simplex, and the
minimizer recognizer in stackgen passes polyhedral cells too.  Inside it
a face is an int bitmask over vertex positions: the vertex of rank k in
sorted id order is bit k, whatever its id, so masks order faces as
face_key does.  Missing simplices are found once and carried down the
cuts; a cut runs on vertex masks, its sides the components of the graph
of vertex pairs sharing a cell, less the cut simplex's vertices (proof
at _cell_decomposition).  Refused: fat ridges, and once a cut is made,
cells not strongly connected and cuts leaving other than two sides.
Faces leave the decomposition, results and errors alike, as vertex ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, combinations
from operator import or_
from typing import Iterable, Sequence

from .enumerative import ASPParams, FVector, HVector
from .errors import (
    DegeneracyError,
    DomainError,
    PseudomanifoldError,
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
        """The complex with these facets; a list or tuple facet passes through a set.

        A frozenset grown from a sequence of five or more vertices takes
        twice the slots of one made from a set, and every later pass over
        the facet walks them all.  A frozenset facet is kept as given.
        """
        fs = frozenset(f if isinstance(f, frozenset) else frozenset(set(f)) for f in facets)
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
    edge sets directly.  The maximal traces of the facets on the set are
    kept longest first, each trace compared only with those already kept:
    a trace inside another lies inside a maximal one, which is longer.
    """
    vs = frozenset(vertices)
    traces = {g & vs for g in c.facets}
    traces.discard(frozenset())
    maximal: list[frozenset[int]] = []
    for t in sorted(traces, key=len, reverse=True):
        if not any(t <= u for u in maximal):
            maximal.append(t)
    if not maximal:
        return SimplicialComplex(-1, frozenset())
    sizes = {len(t) for t in maximal}
    if len(sizes) != 1:
        raise DomainError(
            "induced subcomplex is not pure; maximal face sizes " + str(sorted(sizes))
        )
    return SimplicialComplex.from_facets(maximal)


def boundary_of_ball(c: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by ridges lying in exactly one facet.

    Ridges are counted as each facet's sorted dim-tuples.  A ridge in
    three or more facets rules out the pseudomanifold-with-boundary
    structure this operation presumes, and raises, naming the least such
    tuple, the face_key-least fat ridge.
    """
    if not c.facets:
        raise DomainError("empty complex has no boundary")
    counts = Counter(chain.from_iterable(combinations(sorted(g), c.dim) for g in c.facets))
    fat = [r for r, k in counts.items() if k > 2]
    if fat:
        r = min(fat)
        raise PseudomanifoldError(f"ridge {list(r)} lies in {counts[r]} facets")
    return SimplicialComplex.from_facets(r for r, k in counts.items() if k == 1)


@dataclass(frozen=True)
class ShellingCertificate:
    """A verified shelling order with its restriction faces."""

    complex: SimplicialComplex
    order: tuple[frozenset[int], ...]
    restriction: tuple[frozenset[int], ...]


def verify_shelling(
    c: SimplicialComplex, order: Sequence[Iterable[int]]
) -> ShellingCertificate:
    """Check the shelling condition step by step and certify the order (_shell)."""
    seq = [frozenset(f) for f in order]
    if len(seq) != len(c.facets) or set(seq) != c.facets:
        raise DomainError("order must list every facet exactly once")
    return _shell(c, [[f] for f in seq])


def _shell(c: SimplicialComplex, blocks: Iterable[list[frozenset[int]]]) -> ShellingCertificate:
    """The shelling of c that takes the blocks in turn, each in its own order.

    At each step the first remaining facet of the current block that may
    come next is taken, and removed from the block's list.  At step j >= 2
    every face of the new facet F_j already present must lie in an old
    ridge of F_j.  The restriction face R_j is the set of vertices x whose
    opposite ridge F_j - x is old; it is the unique minimal new face.
    F_j & F_i lies in F_j - x exactly when x is not in F_i, so the
    condition reads: R_j is nonempty and lies in no earlier facet.  A bitmask per vertex of the earlier facets holding it
    tests that in O(d) per candidate.  If no remaining facet of the block
    may come next, ShellingError names the first one and its intersection
    with the earliest earlier facet that holds its R_j.  With one facet a
    block this checks an order; blocks of several facets make a greedy
    search, which can get stuck where another choice would have gone on
    (Ziegler, "Shelling polyhedral 3-balls and 4-polytopes", 1998).
    Inside, a ridge is an int bitmask with bit k for the vertex of rank k
    in sorted id order, whatever its id; the certificate and error
    messages carry vertex ids.
    """
    ids = c.vertex_ids
    rank = {v: k for k, v in enumerate(ids)}
    old_ridges: set[int] = set()
    holders = [0] * len(ids)  # per vertex rank, the earlier facets holding it
    order: list[frozenset[int]] = []
    restriction: list[frozenset[int]] = []
    j = 0
    for todo in blocks:
        while todo:
            for fj in todo:
                ks = [rank[x] for x in fj]
                m = 0
                for k in ks:
                    m |= 1 << k
                rj = [k for k in ks if m ^ (1 << k) in old_ridges]
                inside = (1 << j) - 1  # earlier facets that hold all of R_j
                for k in rj:
                    inside &= holders[k]
                if not inside:
                    break
                if fj is todo[0]:
                    first = inside
            else:
                fj, i = todo[0], (first & -first).bit_length() - 1
                raise ShellingError(
                    j + 1,
                    f"facet {sorted(fj)} meets earlier facets in "
                    f"{sorted(fj & order[i])}, not inside any old ridge",
                )
            todo.remove(fj)
            bj = 1 << j
            j += 1
            for k in ks:
                old_ridges.add(m ^ (1 << k))
                holders[k] |= bj
            order.append(fj)
            restriction.append(frozenset([ids[k] for k in rj]))
    return ShellingCertificate(c, tuple(order), tuple(restriction))


def star_shelling(c: SimplicialComplex, y: int, v: int) -> ShellingCertificate:
    """_shell's search in the blocks st(y), st(v) - st(y) and the rest, each sorted.

    Raises ShellingError when the search is stuck.
    """
    blocks = ([], [], [])
    for f in c.sorted_facets():
        blocks[0 if y in f else 1 if v in f else 2].append(f)
    return _shell(c, blocks)


def key_lemma_certificate(asp: ASPComplex, v: int) -> ShellingCertificate | None:
    """A shelling of Q with st(y) first and the rest of st(v) next, or None.

    Q is the boundary of the polytope stacked beyond the special facet F:
    the ball plus R + y for every facet R of F's boundary, with y = n+1 a
    label only, so no point is placed.  The upper-bound argument needs
    only such an order (McMullen, "The maximum numbers of faces of a
    convex polytope", 1970; Ziegler, Lectures on Polytopes, Lecture 8;
    a line shelling is one way to get one), and key_shelling_defects
    reads only the order and its restriction faces.  The order is
    star_shelling's greedy search; None means it got stuck, which is
    inconclusive.  v must be a vertex of F.
    """
    if v not in asp.special_facet:
        raise DomainError(f"vertex {v} is not on the special facet")
    y = asp.params.n + 1
    cones = (r | {y} for r in asp.special_boundary.facets)
    q = SimplicialComplex.from_facets(chain(asp.ball.facets, cones))
    try:
        return star_shelling(q, y, v)
    except ShellingError:
        return None


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
    return m, tuple([m ^ b for b in _bits(m)])


def _incidence(cells: Sequence[_MaskCell]) -> tuple[dict[int, int], dict[int, int]]:
    """Each ridge's holders, bit i for every cell i that has it, and adj:
    per vertex bit, the OR of the cells at that vertex."""
    holders, adj = {}, {}
    for i, (m, rs) in enumerate(cells):
        for r in rs:
            holders[r] = holders.get(r, 0) | 1 << i
        for v in _bits(m):
            adj[v] = adj.get(v, 0) | m
    return holders, adj


def _walk(seed: int, allowed: int, nb: dict[int, int]) -> int:
    """The bits of allowed joined to seed's lowest bit, each bit b to the bits of nb[b]."""
    comp = todo = seed & -seed
    while todo:
        b = todo & -todo
        grow = nb[b] & allowed & ~comp
        comp |= grow
        todo = todo ^ b | grow
    return comp


def _cell_missing_simplices(
    cells: Sequence[_MaskCell], d: int, holders: dict[int, int], adj: dict[int, int]
) -> list[int]:
    """Missing facets: d-vertex sets that are not faces but whose facets are.

    Every (d-1)-vertex face is a ridge, a key of holders, and every
    d-vertex face a simplex cell.  A candidate a = r + x, with r a ridge,
    needs (r - y) + x to be a ridge for every y in r.  Any two of a's
    vertices lie in one of its ridges (d >= 3), so share a cell: x is in
    the AND of adj (from _incidence) over r, its top vertex's first.
    Only bits above r's top bit are taken, which finds each a once, from
    r = a - max(a).  The result is in face_key order.
    """
    simplices = {m for m, _ in cells if m.bit_count() == d}
    out = []
    for r in holders:
        cand = adj[1 << (r.bit_length() - 1)] & (-1 << r.bit_length())
        ys = _bits(r) if cand else ()
        for y in ys:
            cand &= adj[y]
        while cand:
            a = r | (cand & -cand)
            cand &= cand - 1
            if a not in simplices and all(a ^ y in holders for y in ys):
                out.append(a)
    return sorted(out, key=_bits)


def _cell_decomposition(
    cells: Sequence[_MaskCell], d: int, ids: Sequence[int], incidence: tuple
) -> tuple[list[_MaskCell], list[list[int]], list[tuple[int, int, int]]]:
    """Split a sphere of cells along missing simplices until none is left.

    Bit k of a mask stands for ids[k], and errors name faces by those ids;
    incidence is _incidence(cells).  Returns the cells with the cut
    simplices appended, the prime factors as lists of indices into them,
    and the tree of cuts as (factor index, factor index, cut simplex).
    The lexicographically first missing simplex a is cut first, and each
    part keeps its cells in order, with a appended.  The cells must be
    closed, every ridge in two: _prime_cells checks, validate_asp implies.

    Cuts run on vertex masks.  Let a part be a strongly connected closed
    pseudomanifold of cells of dimension d - 1 >= 2 (each cell's ridges a
    mod-2 cycle), and a be missing.  Every cell has a vertex off a (a cell
    inside a would be a), and so does every ridge but a's, so each piece
    the cut leaves (cells joined through ridges other than a's) has its
    vertices off a connected in the graph G of pairs that share a cell.
    The ridges a piece holds once are a's and form a mod-2 cycle: all d,
    as no other set of a simplex's facets does, or none, and then the
    piece shares no ridge with another, so it is the part.  a's ridges
    lie in two cells each, so at most two pieces are left, and G off a
    has two components only if two are, each one component.  So a part
    is a vertex mask, side + a, with the cells at the side's vertices,
    and is again strongly connected and closed: strong connection is
    walked once, on the input, if there is a cut.  One adj mask per
    vertex, the OR of the input cells at it, serves every cut: a cut
    simplex's ridges are input ridges, and an input cell that left with
    the other side has its vertices of this part in a cut simplex.

    The missing set is searched once and carried down: a missing m other
    than a goes to the part whose mask holds it (its vertices off a share
    cells, so lie on one side, and each of its ridges is a's or at a
    vertex of that side), where it is still missing.  A new one would be
    a simplex cell of the other side with all its ridges in a (cells on
    two sides share only a's ridges), so a itself, which was missing.

    Refused: a ridge in three or more cells (PseudomanifoldError, naming
    the first in face_key order); if a cut is made, cells that are not
    strongly connected, as where two spheres touch, and a cut that leaves
    other than two sides, as on the 7-vertex torus (DegeneracyError).
    """
    cells = list(cells)
    holders, adj = incidence
    fat = {r: h.bit_count() for r, h in holders.items() if h.bit_count() > 2}
    if fat:
        r = min(fat, key=_bits)
        raise PseudomanifoldError(f"ridge {_face_ids(r, ids)} lies in {fat[r]} cells")
    missing = _cell_missing_simplices(cells, d, holders, adj)
    if missing:
        nb = {1 << i: reduce(or_, map(holders.__getitem__, rs)) for i, (_, rs) in enumerate(cells)}
        every = (1 << len(cells)) - 1
        if _walk(every, every, nb) != every:
            raise DegeneracyError("the cells are not strongly connected")
    factors: list[list[int]] = []
    edges: list[tuple[int, int, int]] = []

    def decompose(part: list[int], verts: int, missing: list[int]) -> list[int]:
        if not missing:
            factors.append(part)
            return [len(factors) - 1]
        a = missing[0]
        free = verts & ~a
        side = _walk(cells[part[0]][0] & free, free, adj)
        rest = free ^ side
        if not rest or _walk(rest, free, adj) != rest:
            cut = _face_ids(a, ids)
            raise DegeneracyError(f"cutting along {cut} does not give two components")
        k = len(cells)
        cells.append(_simplex_cell(a))
        idx = []
        for sub in (side, rest):
            kept = [i for i in part if cells[i][0] & sub] + [k]
            sub |= a
            idx.append(decompose(kept, sub, [m for m in missing[1:] if not m & ~sub]))
        i, j = (next(f for f in ix if k in factors[f]) for ix in idx)
        edges.append((i, j, a))
        return idx[0] + idx[1]

    decompose(list(range(len(cells))), sum(adj), missing)
    return cells, factors, edges


def _prime_cells(
    sphere: SimplicialComplex, ids: Sequence[int], bit: dict[int, int]
) -> tuple[list[_MaskCell], list[list[int]]]:
    """The prime factors of a simplicial sphere, its facets taken as simplex cells.

    Returns _cell_decomposition's cells and parts: each part is one
    factor, whose facets are the masks of the cells it lists.  The cut
    simplices are taken in lexicographic order; the result is
    order-independent for spheres of dimension at least 2, and the facet
    counts obey sum_i f_top(factor_i) = f_top(sphere) + 2 (number of
    cuts), which is checked.  bit is _vertex_bits(ids) for sorted ids
    that hold the sphere's vertices and may hold more: the decomposition
    compares masks only by bit order, which every such map keeps.
    """
    if sphere.dim < 2:
        raise DomainError("prime decomposition needs dimension at least 2")
    cells = [_simplex_cell(_mask(g, bit)) for g in sphere.sorted_facets()]
    incidence = _incidence(cells)
    if any(h.bit_count() != 2 for h in incidence[0].values()):
        raise PseudomanifoldError("input has boundary or fat ridges")
    cells, parts, edges = _cell_decomposition(cells, sphere.dim + 1, ids, incidence)
    total = sum(len({cells[i][0] for i in part}) for part in parts)
    if total != sphere.n_facets + 2 * len(edges) or len(edges) != len(parts) - 1:
        raise DegeneracyError("decomposition bookkeeping violated the cut identity")
    return cells, parts


@dataclass(frozen=True)
class ASPComplex:
    """Combinatorial almost simplicial polytope: a ball plus its special facet.

    ``ball`` is the boundary complex with the special facet removed;
    ``special_facet`` is that facet's vertex set (d+s vertices).  Every
    reader of the special facet's boundary takes ``special_boundary``, so
    each instance is validated once.
    """

    params: ASPParams
    ball: SimplicialComplex
    special_facet: frozenset[int]

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
        }

    @staticmethod
    def from_json(data: dict) -> "ASPComplex":
        return ASPComplex(
            ASPParams(data["d"], data["n"], data["s"]),
            SimplicialComplex.from_json(data["ball"]),
            frozenset(data["special_facet"]),
        )


def validate_asp(asp: ASPComplex) -> SimplicialComplex:
    """Structural checks tying the ball, the special facet, and the parameters.

    The ball must be a pure (d-1)-complex on n vertices whose boundary is
    exactly the induced subcomplex on the special facet's vertices.
    Returns that boundary, the special facet's boundary complex.
    """
    d, n, s = asp.params.d, asp.params.n, asp.params.s
    if asp.ball.dim != d - 1:
        raise ShapeError(f"ball dimension {asp.ball.dim} != d-1 = {d - 1}")
    if len(ids := asp.ball.vertex_ids) != n:
        raise ShapeError(f"ball has {len(ids)} vertices, expected {n}")
    if len(asp.special_facet) != d + s:
        raise ShapeError(
            f"special facet has {len(asp.special_facet)} vertices, expected {d + s}"
        )
    if not asp.special_facet.issubset(ids):
        raise ShapeError("special facet vertices must appear in the ball")
    bd = boundary_of_ball(asp.ball)
    ind = induced(asp.ball, asp.special_facet)
    if bd.facets != ind.facets:
        raise ShapeError(
            "boundary of the ball is not the induced complex on the special facet"
        )
    return bd
