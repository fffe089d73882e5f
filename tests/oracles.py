"""Test oracles: for each fast path in the library, its one direct version.

Each oracle is the simplest code that computes what one fast path
computes, brute force where there is one, and a property test compares
the two.  Per fast path, its one oracle and the file the oracle lives in
(this one unless named):

- f_vector and all_faces: every face as a frozenset (face_set,
  f_vector_by_face_set);
- boundary_of_ball: ridges found by sorting the facets (ridge_incidence,
  boundary_by_incidence);
- _cell_missing_simplices: every ridge plus every vertex off it that
  spans a ridge with the ridge less its least vertex
  (cell_missing_by_ridge_scan);
- _cell_decomposition, and prime_decomposition through _prime_cells: one
  split at a time, each part rebuilding its incidence and scanned afresh
  for its missing simplices (cell_decomposition_per_split, with
  cell_split);
- induced: every trace compared with every other (induced_pairwise);
- verify_shelling: every facet intersected with every earlier one
  (verify_shelling_pairwise, by shelling_step);
- star_shelling, the greedy search of key_lemma_certificate and
  constrained_line_shelling: each candidate tested by shelling_step
  (star_shelling_pairwise);
- the beneath-beyond hull (_beneath_beyond, by the insertion step
  _Hull): the scan of every d-subset (facets_by_subset_scan,
  test_hull.py);
- stack_over_special, which cones y over the special facet's ridges by
  the insertion step's pencil plane: y placed by point_beyond and the
  hull enumerated again (stacked_by_enumeration, test_hull.py, with
  extend_config here), and each cone plane against a kernel solve
  (supporting_hyperplane);
- certified_geometry's packed plane test (_PackedPoints.supports): the
  plane evaluated at every point in turn (plane_supports_by_points);
- _LinesFrom: keys r * t0 * lcm(A) on every facet (LcmLines,
  test_hull.py);
- key_shelling_defects: the four prefix complexes rebuilt at every step
  (defects_by_rebuild, test_hull.py);
- the Gale-even facet generator (simplex_facets, interior_tuples): every
  d-subset tested by all-pairs evenness (simplex_facets_by_scan and
  interior_tuples_by_scan, by gale_even, test_gale.py);
- _echelon, int_rank and int_det: cofactor expansion and Gaussian
  elimination over Fraction (cofactor_det, gauss_rank), and kernels
  checked by substitution;
- rank_mod_p: row reduction that updates every entry right of the pivot
  (dense_rank_mod_p, test_exactnum.py);
- PointConfig.from_rationals: the integer homogeneous vector of a
  rational point (homogeneous, rational_points);
- the stacking walk: constructions that sort the facets and rebuild the
  complex at every move (the *_by_sorting builders), and the hstack
  style drawing each selector from the built boundary
  (hstack_minimizer_by_pool, test_stackgen.py);
- _refined_cells: the prime factors masked as complexes
  (refined_cells_by_complexes);
- _trilateration_rank: each block ranked modulo 2^61 - 1
  (trilateration_rank_mod_p);
- sample_generic: the Bareiss rank at every trial embedding
  (sample_generic_by_bareiss, test_rigidity.py);
- the library's curve: the paper's own, whose last coordinate carries
  the power factor (n-1)^((t-1)(d-1)) (paper_curve_points).

The mask converters (cell_missing_by_masks, cell_decomposition_by_masks,
refined_frozenset_cells) run the library's bitmask search and
decomposition on frozenset cells and hand back frozensets, so the
oracles and the library are compared on one input.

Below them sit the small exact tools several test modules share: Bareiss
determinants, seeded ASPs outside the two families (drawn_asp_points),
pyramids, single stacking moves on the library's walk,
prime factors as complexes, the sphere refined by them, stacked spheres
from facet indices, and the stacked-sphere test by prime decomposition.
"""

import math
import random
from dataclasses import dataclass
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
    _incidence,
    _mask,
    _prime_cells,
    _simplex_cell,
    _vertex_bits,
    boundary_of_ball,
    face_key,
)
from aspoly.curves import PointConfig, curve_parameters
from aspoly.enumerative import ASPParams, FVector
from aspoly.errors import (
    AspolyError,
    DegeneracyError,
    DomainError,
    InvalidMoveError,
    NotAFaceError,
    PseudomanifoldError,
    ShapeError,
    ShellingError,
)
from aspoly.exactnum import _echelon, int_nullspace, rank_mod_p
from aspoly.hull import (
    ASPGeometry,
    FacetDescriptor,
    _dot,
    _dots,
    _mean,
    _primitive,
    asp_geometry,
)
from aspoly.rigidity import Graph, _trilateration_order
from aspoly.stackgen import (
    _refined_cells,
    _stacked_sphere,
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
    missing = _cell_missing_simplices(masks, d, *_incidence(masks))
    return [frozenset(_face_ids(a, ids)) for a in missing]


def cell_decomposition_by_masks(
    cells: Sequence[Cell], d: int
) -> tuple[list[tuple[Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """The library's bitmask decomposition, on frozenset cells.

    A factor lists the given cells it keeps, and a cut simplex as a
    simplex cell.
    """
    masks, ids = mask_cells(cells)
    out, parts, edges = _cell_decomposition(masks, d, ids, _incidence(masks))
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


def cell_missing_by_ridge_scan(cells: Sequence[Cell], d: int) -> list[frozenset[int]]:
    """Missing simplices, testing every ridge r plus every vertex x off it
    for which r less its least vertex, plus x, is a ridge too."""
    ridges = {r for c in cells for r in c.ridges}
    simplices = {c.vertices for c in cells if c.is_simplex(d)}
    link: dict[frozenset[int], set[int]] = {}
    for r in ridges:
        for y in r:
            link.setdefault(r - {y}, set()).add(y)
    out = set()
    for r in ridges:
        for x in link[r - {min(r)}] - r:
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


def cell_decomposition_per_split(
    cells: Sequence[Cell], d: int
) -> tuple[list[tuple[Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """Factors and cut tree, each split building its own part's incidence.

    Every part is scanned afresh for its missing simplices, and the first
    one is cut.
    """
    factors: list[tuple[Cell, ...]] = []
    edges: list[tuple[int, int, frozenset[int]]] = []

    def decompose(part: Sequence[Cell]) -> list[int]:
        missing = cell_missing_by_ridge_scan(part, d)
        if not missing:
            factors.append(tuple(part))
            return [len(factors) - 1]
        a = missing[0]
        idx1, idx2 = map(decompose, cell_split(part, a))
        i, j = (
            next(k for k in idx if any(c.vertices == a for c in factors[k]))
            for idx in (idx1, idx2)
        )
        edges.append((i, j, a))
        return idx1 + idx2

    decompose(cells)
    return factors, edges


def induced_pairwise(c: SimplicialComplex, vertices: Iterable[int]) -> SimplicialComplex:
    """induced with each trace kept unless it lies strictly inside another trace."""
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


def verify_shelling_pairwise(
    c: SimplicialComplex, order: Sequence[Iterable[int]]
) -> ShellingCertificate:
    """verify_shelling as it intersected each facet with every earlier one (shelling_step)."""
    seq = [frozenset(f) for f in order]
    if len(seq) != len(c.facets) or set(seq) != set(c.facets) or len(set(seq)) != len(seq):
        raise DomainError("order must list every facet exactly once")
    restriction = [shelling_step(seq[:j], fj) for j, fj in enumerate(seq)]
    return ShellingCertificate(c, tuple(seq), tuple(restriction))


def shelling_step(earlier: Sequence[frozenset[int]], fj: frozenset[int]) -> frozenset[int]:
    """The restriction face of fj after the earlier facets, or ShellingError.

    Every face of fj already present must lie in an old ridge of fj;
    equivalently all maximal intersections with earlier facets have
    codimension 1.  A refusal names the intersection with the earliest
    earlier facet that is not inside an old ridge.  The restriction face
    is the set of vertices whose opposite ridge is old; it is the unique
    minimal new face.
    """
    if not earlier:
        return frozenset()
    inters = [fj & g for g in earlier]
    big = {x for x in inters if len(x) == len(fj) - 1}
    for x in inters:
        if not any(x <= b for b in big):
            raise ShellingError(
                len(earlier) + 1,
                f"facet {sorted(fj)} meets earlier facets in "
                f"{sorted(x)}, not inside any old ridge",
            )
    return frozenset(x for x in fj if (fj - {x}) in big)


def star_shelling_pairwise(c: SimplicialComplex, y: int, v: int) -> ShellingCertificate:
    """star_shelling's greedy search, each candidate tested by shelling_step.

    The blocks are st(y), st(v) - st(y) and the rest, each in sorted
    order; each step takes the first remaining facet of the block that
    passes.  When none does, the first one's ShellingError is raised.
    """
    facets = c.sorted_facets()
    blocks = (
        [f for f in facets if y in f],
        [f for f in facets if v in f and y not in f],
        [f for f in facets if v not in f and y not in f],
    )
    order, restriction = [], []
    for block in blocks:
        while block:
            errors = []
            for f in block:
                try:
                    restriction.append(shelling_step(order, f))
                except ShellingError as exc:
                    errors.append(exc)
                    continue
                block.remove(f)
                order.append(f)
                break
            else:
                raise errors[0]
    return ShellingCertificate(c, tuple(order), tuple(restriction))


def plane_supports_by_points(
    w: Sequence[int], hom: Sequence[Sequence[int]], vertex_ids: frozenset[int]
) -> bool:
    """Whether w is >= 0 at every point and 0 exactly at vertex_ids (1-based), point by point."""
    values = _dots(w, hom)
    if min(values) < 0:
        return False
    return frozenset(i for i, x in enumerate(values, 1) if x == 0) == vertex_ids


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


def drawn_asp_points(params: ASPParams, seed: int, lifted: bool) -> PointConfig:
    """Seeded points of an ASP outside the two families, its special facet F = points 1..d+s.

    F's d+s points lie in x_d = 0, in convex position there: on the
    moment curve of R^(d-1), or, lifted, on the paraboloid
    x_(d-1) = |x|^2 over distinct integer x in R^(d-2), so that F need not
    be neighborly.  The other n-d-s points are random integer points with
    x_d > 0.  Draws repeat, seeded, until asp_geometry takes the points as
    an ASP whose special facet is F; a draw with a point inside the hull,
    or with a second non-simplex facet, is skipped.
    """
    d, n, s = params.d, params.n, params.s
    rng = random.Random(f"{seed}:{d}:{n}:{s}:{lifted}")
    for _ in range(200):
        if lifted:
            xs: set[tuple[int, ...]] = set()
            while len(xs) < d + s:
                xs.add(tuple(rng.randint(-3, 3) for _ in range(d - 2)))
            base = [(*x, sum(c * c for c in x)) for x in sorted(xs)]
        else:
            base = [tuple(t**k for k in range(1, d)) for t in rng.sample(range(-5, 6), d + s)]
        rows = {(1, *b, 0) for b in base}
        while len(rows) < n:
            rows.add((1, *(rng.randint(-6, 6) for _ in range(d - 1)), rng.randint(1, 6)))
        config = PointConfig(d, tuple(sorted(rows, key=lambda h: (h[-1] > 0, h))))
        try:
            geom = asp_geometry(config, range(1, d + 1))
        except AspolyError:
            continue
        if geom.special.vertex_ids == frozenset(range(1, d + s + 1)):
            return config
    raise AssertionError(f"no ASP drawn for {params} at seed {seed}")


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


def extend_config(config: PointConfig, coords: Sequence[Fraction]) -> PointConfig:
    """Append one point with the next vertex id."""
    return PointConfig(config.d, (*config.hom, tuple(homogeneous(coords))))


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


def stacked_sphere_by_sorting(d: int, n: int, moves: tuple[int, ...]) -> SimplicialComplex:
    """Stacked (d-1)-sphere on vertex ids 1..n, each move the index of the
    facet stacked over."""
    if d < 2:
        raise DomainError("stacked spheres need dimension at least 2")
    if n < d + 1:
        raise DomainError(f"need at least {d + 1} vertices, got {n}")
    if len(moves) != n - d - 1:
        raise ShapeError(f"script needs exactly {n - d - 1} moves for n={n}, got {len(moves)}")
    base = frozenset(range(1, d + 2))
    facets = frozenset(base - {x} for x in base)
    for next_id, index in enumerate(moves, d + 2):
        facets = _stack_facets(facets, _resolve(index, facets), next_id)
    return SimplicialComplex.from_facets(facets)


def almost_stacked_by_sorting(
    p: ASPParams, f_moves: tuple[int, ...], p_moves: tuple[int, ...]
) -> ASPComplex:
    """almost_stacked as it sorted the facets and rebuilt the complex at every move."""
    d, n, s = p.d, p.n, p.s
    apex = d + s + 1
    ball = pyramid(stacked_sphere_by_sorting(d - 1, d + s, f_moves), apex)
    asp = ASPComplex(ASPParams(d, apex, s), ball, frozenset(range(1, d + s + 1)))
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
    return ASPComplex(ASPParams(q.d, q.n + 1, q.s), ball, asp.special_facet)


def h_stack_by_sorting(asp: ASPComplex, index: int) -> ASPComplex:
    """h_stack as it recounted the ball's ridges for the special facet's boundary."""
    g = _resolve(index, boundary_of_ball(asp.ball).facets)
    t = next(t for t in asp.ball.facets if g <= t)
    w = _next_vertex_id(asp)
    new_facets = (asp.ball.facets - {t}) | {
        (t - {x}) | {w} for x in t if (t - {x}) != g
    }
    q = asp.params
    return ASPComplex(
        ASPParams(q.d, q.n + 1, q.s + 1),
        SimplicialComplex.from_facets(new_facets),
        asp.special_facet | {w},
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
    return ASPComplex(ASPParams(q.d, q.n + 1, q.s), ball, asp.special_facet)


def h_stack(asp: ASPComplex, index: int) -> ASPComplex:
    """Grow the special facet by stacking inside its own hyperplane.

    One move of the library's walk.  The facet G of F's boundary at this
    sorted index is a boundary ridge of the ball, so it lies in exactly
    one ball facet T; the new vertex w replaces T by cones over T's other
    ridges, and F gains w.  Net effect: n and s both grow by one and the
    ball gains d-2 facets.
    """
    walk = _Walk(asp.ball.facets, boundary_of_ball(asp.ball).facets)
    w = walk.h_stack(index)
    q = asp.params
    ball = SimplicialComplex.from_facets(walk.facets)
    return ASPComplex(ASPParams(q.d, q.n + 1, q.s + 1), ball, asp.special_facet | {w})


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


def refined_sphere(asp: ASPComplex) -> SimplicialComplex:
    """The boundary sphere with the special facet replaced by the vertex
    sets of its boundary's prime factors, the simplices that triangulate
    F when each factor is a simplex boundary."""
    solids = {frozenset(f.vertex_ids) for f in prime_decomposition(asp.special_boundary)}
    return SimplicialComplex.from_facets(asp.ball.facets | solids)


def stacked_sphere(d: int, n: int, moves: tuple[int, ...]) -> SimplicialComplex:
    """Stacked (d-1)-sphere on vertex ids 1..n, each move the index of the facet stacked over."""
    return SimplicialComplex.from_facets(_stacked_sphere(d, n, moves).facets)


def is_stacked_sphere(sphere: SimplicialComplex) -> bool:
    """True when every prime factor is a simplex boundary: dim+2 facets on dim+2 vertices."""
    return all(
        len(f.vertex_ids) == len(f.facets) == f.dim + 2
        for f in prime_decomposition(sphere)
    )
