"""Geometric enumeration and shelling tests.

Cross-oracle checks against the combinatorial facet list are the core
here; small solids (tetrahedron, cube, octahedron, bipyramid) pin down
the predicates with hand-checkable answers.
"""

import hashlib
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from aspoly import cli, curves, exactnum, hull
from aspoly.complexes import (
    ASPComplex,
    SimplicialComplex,
    all_faces,
    boundary_of_ball,
    f_vector,
    h_from_shelling,
    key_lemma_certificate,
    verify_shelling,
)
from aspoly.curves import PointConfig, almost_cyclic_points
from aspoly.enumerative import ASPParams, f_almost_cyclic, h_from_f
from aspoly.exactnum import int_nullspace, int_rank
from aspoly.errors import (
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
from aspoly.gale import almost_cyclic_facets
from aspoly.hull import (
    FacetDescriptor,
    _LinesFrom,
    certified_geometry,
    constrained_line_shelling,
    designate_special,
    detect_asp,
    enumerate_facets,
    key_shelling_defects,
    line_shelling,
    stack_over_special,
)
from oracles import (
    drawn_asp_points,
    extend_config,
    homogeneous,
    int_det,
    paper_curve_points,
    plane_supports_by_points,
    point_beyond,
    rational_points,
    star_shelling_pairwise,
    supporting_hyperplane,
)


def config_from_coords(coords) -> PointConfig:
    rows = [tuple(Fraction(x) for x in c) for c in coords]
    return PointConfig.from_rationals(len(coords[0]), rows)


def facets_by_subset_scan(config: PointConfig) -> tuple[FacetDescriptor, ...]:
    """Oracle: test every d-subset, as facet enumeration once did.

    A d-subset spans a hyperplane when the kernel of its homogeneous
    coordinate rows is one line, and supports a facet exactly when one
    strict side of that plane is empty.  Facets are deduplicated by the full
    set of points on the hyperplane and sorted by their sorted vertex ids.
    """
    n, d = config.n, config.d
    hom = []
    for _, coords in rational_points(config):
        scale = math.lcm(*(c.denominator for c in coords))
        hom.append([scale] + [int(c * scale) for c in coords])
    assert int_rank(hom) == d + 1
    found = {}
    for subset in combinations(range(n), d):
        if any(frozenset(i + 1 for i in subset) <= on for on in found):
            continue
        kernel = int_nullspace([hom[i] for i in subset])
        if len(kernel) != 1:
            continue
        w = kernel[0]
        dots = [sum(a * x for a, x in zip(w, h)) for h in hom]
        if min(dots) < 0 < max(dots):
            continue
        g = -math.gcd(*w) if min(dots) < 0 else math.gcd(*w)
        on = frozenset(i + 1 for i, x in enumerate(dots) if x == 0)
        found[on] = [x // g for x in w]
    facets = (FacetDescriptor(on, tuple(w)) for on, w in found.items())
    return tuple(sorted(facets, key=lambda f: sorted(f.vertex_ids)))


def stacked_by_enumeration(geom, toward, closeness, cap):
    """stack_over_special the brute-force way: place y, then re-enumerate the hull."""
    y = point_beyond(geom, geom.special, toward=toward, closeness=closeness)
    return detect_asp(extend_config(geom.config, y), cap)


def shelling_prefix_ok(order, y_id, v_id) -> bool:
    """Oracle: the two-block prefix, all of st(y), then the rest of st(v)."""
    block1 = {f for f in order if y_id in f}
    block2 = {f for f in order if v_id in f} - block1
    k1, k2 = len(block1), len(block2)
    return set(order[:k1]) == block1 and set(order[k1 : k1 + k2]) == block2


def prefix_h(facet_sets, parameter):
    """h-vector of the complex generated by the given facets; zeros if empty."""
    if not facet_sets:
        return [0] * (parameter + 1)
    cx = SimplicialComplex.from_facets(facet_sets)
    return list(h_from_f(f_vector(cx)).entries)


def defects_by_rebuild(cert, y_id, v_id):
    """Oracle: key-lemma defects with the four prefix complexes rebuilt at every step."""
    d = cert.complex.dim + 1
    out = []
    for j in range(1, len(cert.order) + 1):
        pre = list(cert.order[:j])
        hq = prefix_h(pre, d)
        hqv = prefix_h([f - {v_id} for f in pre if v_id in f], d - 1)
        hf = prefix_h([f - {y_id} for f in pre if y_id in f], d - 1)
        hfv = prefix_h([f - {y_id, v_id} for f in pre if y_id in f and v_id in f], d - 2)

        def at(vec, k):
            return vec[k] if k < len(vec) else 0

        out.append(
            tuple(at(hq, k) - at(hqv, k) - at(hf, k) + at(hfv, k) for k in range(d + 1))
        )
    return tuple(out)


def eval_at(f: FacetDescriptor, coords) -> Fraction:
    """A facet's affine function at a rational point: positive inside, zero on it."""
    return f.plane[0] + sum(a * x for a, x in zip(f.plane[1:], coords))


def centroid(geom):
    """The centroid of the configuration, interior by convex position."""
    pts = [c for _, c in rational_points(geom.config)]
    return tuple(sum(col) / len(pts) for col in zip(*pts))


def neighborliness(geom) -> int:
    """Largest k with every k-subset of vertices a face, measured exactly.

    Faces inside the special facet are faces of its boundary complex (or
    the facet itself); everything else must lie in a simplex facet.
    """
    ids = [pid for pid, _ in rational_points(geom.config)]
    simplex_sets = [f.vertex_ids for f in geom.facets if f.is_simplex()]
    special_faces: frozenset[frozenset[int]] = frozenset()
    special_set = None
    if geom.special is not None and geom.ball is not None:
        special_set = geom.special.vertex_ids
        bd = geom.ball.special_boundary
        special_faces = frozenset().union(
            *(all_faces(bd, k) for k in range(-1, bd.dim + 1))
        )

    def is_face(sub: frozenset[int]) -> bool:
        if any(sub <= s for s in simplex_sets):
            return True
        if special_set is not None and sub <= special_set:
            return sub == special_set or sub in special_faces
        return False

    best = 0
    for k in range(1, len(ids) + 1):
        if all(is_face(frozenset(s)) for s in combinations(ids, k)):
            best = k
        else:
            break
    return best


def simpliciality(geom) -> int:
    """Largest k with all k-faces simplices, measured at the ridge level.

    Ridges are facet-pair intersections of affine rank d-1; a ridge is a
    simplex exactly when it has d-1 vertices.  Faces below the ridges
    live in simplex facets or in the simplicial boundary of the special
    facet, so the ridge level decides the answer.
    """
    d = geom.d
    if geom.is_simplicial:
        return d - 1
    hom = geom.config.hom
    for f1, f2 in combinations(geom.facets, 2):
        common = f1.vertex_ids & f2.vertex_ids
        if len(common) < d - 1:
            continue
        rows = [hom[i - 1] for i in sorted(common)]
        if int_rank(rows) == d - 1 and len(common) != d - 1:
            raise DegeneracyError(
                "non-simplex ridge; simpliciality below d-2 is out of scope"
            )
    return d - 2


def geometry_f_vector(geom):
    """Face numbers of the enumerated polytope."""
    if geom.ball is not None:
        return geom.ball.f_polytope()
    return f_vector(geom.boundary_complex())


class LcmLines:
    """Oracle: _LinesFrom as it keyed facets by r * t0 * lcm(A) over all facets.

    The keys compare the ratios C/A exactly, with no floor.
    """

    def __init__(self, geom, base_hom):
        self.facets = geom.facets
        self.rows = [f.plane for f in geom.facets]
        values = hull._dots(base_hom, self.rows)
        if min(values) <= 0:
            raise DegeneracyError("base point is not interior")
        self.lcm = math.lcm(*values)
        self.scales = [base_hom[0] * self.lcm // a for a in values]

    def _keys(self, target_hom):
        return [k * s for k, s in zip(hull._dots(target_hom, self.rows), self.scales)]

    def order(self, target_hom):
        keys = self._keys(target_hom)
        if self.lcm * target_hom[0] in keys:
            raise DegeneracyError("line parallel to a facet hyperplane")
        if len(set(keys)) != len(keys):
            raise DegeneracyError("line meets two facet hyperplanes at one parameter")
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        return [self.facets[i].vertex_ids for i in ranked]


def same_order(lines, oracle, target):
    """Both give the same order, or both raise DegeneracyError with the same message."""
    outcomes = []
    for impl in (lines, oracle):
        try:
            outcomes.append(impl.order(target))
        except DegeneracyError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def asp_geometry(d, n, s, curve=almost_cyclic_points):
    """The ASP geometry of cell (d, n, s) on `curve`, the library's curve unless given."""
    return hull.asp_geometry(curve(ASPParams(d, n, s)), range(1, d + 1))


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@st.composite
def stacking_cases(draw, drawn=False):
    # The cell is (d, n, s, curve), on the library's curve or on the
    # paper's, whose point entries reach 99 bits at n = 12, or, if drawn,
    # also an ASP outside the two families with 1..3 points above F.
    d = draw(st.integers(3, 5))
    s = draw(st.integers(0, 3))
    choices = [almost_cyclic_points, paper_curve_points]
    if drawn:
        seed, lifted = draw(st.integers(0, 2**16)), draw(st.booleans())
        choices.append(partial(drawn_asp_points, seed=seed, lifted=lifted))
    curve = draw(st.sampled_from(choices))
    top = d + s + 3 if isinstance(curve, partial) else 12
    n = draw(st.integers(d + s + 1, top))
    toward = draw(st.sampled_from([None, *range(1, d + s + 1)]))
    closeness = draw(st.sampled_from([2, 12, 20, 28, 40]))
    return (d, n, s, curve), toward, closeness


@st.composite
def shelled_stacked_cases(draw):
    d = draw(st.integers(3, 5))
    s = draw(st.integers(0, 3))
    n = draw(st.integers(d + s + 1, min(d + s + 3, 10)))
    return (d, n, s), draw(st.integers(0, 10**6)), draw(st.booleans())


TIED_PLANES = st.lists(
    st.tuples(st.integers(1, 6), st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=7
)
TIED_TARGET = st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3))


def based_at(facets, base):
    """A geometry as _LinesFrom reads it: facets, with base as centroid and its values there."""
    values = tuple(hull._dot(f.plane, base) for f in facets)
    return SimpleNamespace(facets=facets, centroid=base, centroid_values=values)


def planes_geometry(planes):
    """Facets off + a1*x1 + a2*x2 >= 0, one per (off, a1, a2), seen from the origin."""
    facets = tuple(FacetDescriptor(frozenset({i}), plane) for i, plane in enumerate(planes))
    return based_at(facets, (1, 0, 0))


def lines_with_normals(normals):
    """_LinesFrom over facets 1 + a.x >= 0, one per normal a, shot from the origin.

    The target e_i (homogeneous (1, e_i)) gets the ratios C/A = 1 + a_i,
    so a test can place keys, ties and parallel hyperplanes exactly.
    """
    facets = tuple(FacetDescriptor(frozenset({i}), (1, *a)) for i, a in enumerate(normals))
    return _LinesFrom(based_at(facets, (1, 0, 0)))


def tetrahedron_config() -> PointConfig:
    return config_from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def octahedron_config() -> PointConfig:
    return config_from_coords(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def bipyramid_config() -> PointConfig:
    return config_from_coords(
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def orientation(pts):
    """Sign of the determinant of the points with a prepended coordinate of ones."""
    value = int_det([homogeneous(p) for p in pts])
    return (value > 0) - (value < 0)


class TestOrientation:
    def test_unit_simplex_positive(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert orientation([[Fraction(x) for x in p] for p in pts]) == 1

    def test_repeated_point_degenerate(self):
        p = [Fraction(1), Fraction(2)]
        assert orientation([p, p, [Fraction(0), Fraction(0)]]) == 0

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            orientation([[Fraction(0)], [Fraction(1)], [Fraction(2)]])

    def test_curve_point_above_flat_block(self):
        p = ASPParams(3, 6, 1)
        cfg = almost_cyclic_points(p)
        block = range(1, p.d + p.s + 1)
        points = rational_points(cfg)
        for sub in combinations(block, p.d):
            for outside in range(p.d + p.s + 1, p.n + 1):
                pts = [points[i - 1][1] for i in (*sub, outside)]
                assert orientation(pts) == 1


class TestEnumerateFacets:
    def test_tetrahedron(self):
        facets = enumerate_facets(tetrahedron_config())
        assert len(facets) == 4
        assert all(len(f.vertex_ids) == 3 for f in facets)

    def test_unit_square(self):
        cfg = config_from_coords([(0, 0), (1, 0), (0, 1), (1, 1)])
        facets = enumerate_facets(cfg)
        assert len(facets) == 4
        assert all(len(f.vertex_ids) == 2 for f in facets)

    def test_inward_orientation(self):
        facets = enumerate_facets(octahedron_config())
        centroid = [Fraction(0)] * 3
        for f in facets:
            assert eval_at(f, centroid) > 0

    def test_flat_configuration_rejected(self):
        cfg = config_from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        with pytest.raises(RankDeficientError):
            enumerate_facets(cfg)
        with pytest.raises(RankDeficientError, match="too few points"):
            enumerate_facets(PointConfig(2, ()))

    def test_matches_gale_on_4_7_1(self):
        p = ASPParams(4, 7, 1)
        facets = enumerate_facets(almost_cyclic_points(p))
        assert {f.vertex_ids for f in facets} == set(almost_cyclic_facets(p))

    def test_ridges_in_two_facets(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        q = stack_over_special(geom)
        assert boundary_of_ball(q.boundary_complex()).facets == frozenset()


# The acceptance grid: d in 3..6, s in 0..3, n from d+s+1 to d+s+5, at most 14.
GRID = [
    (d, n, s)
    for d in (3, 4, 5, 6)
    for s in (0, 1, 2, 3)
    for n in range(d + s + 1, min(d + s + 5, 14) + 1)
]


def distinct_config(coords):
    """A configuration from the distinct points of coords, in first-seen order."""
    seen = list(dict.fromkeys(tuple(Fraction(x) for x in c) for c in coords))
    return config_from_coords(seen)


@st.composite
def general_position_configs(draw):
    d = draw(st.integers(2, 7))
    n = draw(st.integers(d + 1, 11))
    # Coordinates in [-1000, 1000] over one denominator 1..7 per point:
    # integer draws, far cheaper than st.fractions.
    points = []
    for _ in range(n):
        den = draw(st.integers(1, 7))
        nums = draw(st.tuples(*[st.integers(-1000 * den, 1000 * den)] * d))
        points.append([Fraction(x, den) for x in nums])
    return distinct_config(points)


@st.composite
def configs_with_interior_points(draw):
    """Random hull points plus points at positive weighted means of all of them."""
    d = draw(st.integers(2, 7))
    outer = draw(
        st.lists(st.tuples(*[st.integers(-30, 30)] * d), min_size=d + 1, max_size=8)
    )
    inner = []
    for _ in range(draw(st.integers(1, 4))):
        wts = draw(st.lists(st.integers(1, 9), min_size=len(outer), max_size=len(outer)))
        inner.append(
            tuple(
                Fraction(sum(w * p[j] for w, p in zip(wts, outer)), sum(wts))
                for j in range(d)
            )
        )
    order = draw(st.permutations(outer + inner))
    return distinct_config(order)


@st.composite
def special_position_configs(draw):
    """Many points per hyperplane: subsets of the grid {0,1,2}^d, or a
    lattice-point base on x_d = 0 with apexes on either side."""
    d = draw(st.integers(2, 7))
    if draw(st.booleans()):
        grid = list(product(range(3), repeat=d))
        pts = draw(st.lists(st.sampled_from(grid), min_size=d + 1, max_size=12, unique=True))
    else:
        base = st.tuples(*[st.integers(0, 3)] * (d - 1), st.just(0))
        apex = st.tuples(*[st.integers(-2, 5)] * (d - 1), st.sampled_from([-3, -1, 2, 4]))
        pts = draw(st.lists(base, min_size=d, max_size=10, unique=True))
        pts += draw(st.lists(apex, min_size=1, max_size=3, unique=True))
    return distinct_config(draw(st.permutations(pts)))


# Fixed solids, and the cases where the start simplex skips points.
SOLIDS = {
    "cube3": [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "cube4": [(x, y, z, w) for x in (0, 1) for y in (0, 1) for z in (0, 1) for w in (0, 1)],
    # prism over a pentagon
    "prism": [(x, y, z) for x, y in ((2, 0), (1, 2), (-1, 2), (-2, 0), (0, -2)) for z in (0, 3)],
    # cross-polytopes
    "cross3": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "cross4": [tuple(s if j == i else 0 for j in range(4)) for i in range(4) for s in (1, -1)],
    # pyramid over a 3-cube: square pyramids are facets with square ridges
    "pyramid4": [(x, y, z, 0) for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [(0, 0, 0, 1)],
    # octahedron with the equator's edge midpoints added
    "octa_mid": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                 (Fraction(1, 2), Fraction(1, 2), 0), (Fraction(-1, 2), Fraction(1, 2), 0)],
    "grid4": [(x, y, z, w) for x in range(3) for y in range(2) for z in range(2) for w in range(2)],
    # The first d+1 points in insertion order are dependent: the start
    # simplex skips (1, 0) and (3, 0), which are inserted onto its bottom
    # edge and stay there ...
    "skip_edge": [(0, 0), (1, 0), (3, 0), (4, 0), (2, 3)],
    # ... or end inside the hull once (2, 3) is inserted beyond it.
    "skip_interior": [(0, 0), (1, 0), (3, 0), (4, 0), (2, -3), (2, 3)],
    # (3, 3, 0) is skipped, then inserted beyond one facet of the start
    # simplex and on the hyperplane of another.
    "skip_beyond": [(0, 0, 0), (4, 0, 0), (1, 3, 0), (3, 3, 0), (2, 1, 2)],
}


def spans_space(config: PointConfig) -> bool:
    return int_rank(config.hom) == config.d + 1


def check_against_oracle(config: PointConfig) -> None:
    if spans_space(config):
        assert enumerate_facets(config) == facets_by_subset_scan(config)
    else:
        with pytest.raises(RankDeficientError):
            enumerate_facets(config)


def check_wrap_per_ridge(hom) -> None:
    """A wrap across every ridge closes on the beneath-beyond hull.

    Each facet's ridges (hull._ridges) are held by exactly two facets and
    are the points those two share, and crossing ridges from one facet
    reaches every facet.
    """
    ridges_of = {f: hull._ridges(hom, f, w) for f, w in hull._beneath_beyond(hom).items()}
    held = {}
    for f, rs in ridges_of.items():
        for r in rs:
            held.setdefault(r, []).append(f)
    assert all(len(fs) == 2 and fs[0] & fs[1] == r for r, fs in held.items())
    reached = [min(ridges_of)]
    for f in reached:
        reached += [g for r in ridges_of[f] for g in held[r] if g not in reached]
    assert sorted(reached) == sorted(ridges_of)


class TestGiftWrapOracle:
    """The beneath-beyond hull against the subset scan, and its ridge bookkeeping."""

    def test_frozen_hulls(self):
        # Every facet's vertex ids, normal and offset on the paper curve's
        # cells d 3..6, s 0..3, n <= 16, plus three cells past the caps,
        # where its entries reach 566 bits.
        cells = [(d, n, s) for d in range(3, 7) for s in range(4) for n in range(d + s + 1, 17)]
        cells += [(4, 40, 1), (6, 22, 3), (7, 16, 2)]
        payload = [
            [cell, [[sorted(f.vertex_ids), f.plane[1:], f.plane[0]] for f in facets]]
            for cell in cells
            for facets in [enumerate_facets(paper_curve_points(ASPParams(*cell)))]
        ]
        assert len(payload) == 163 and digest(payload) == "c05a55dd16ef67a5"

    def test_insertion_counts(self, monkeypatch):
        # Every facet the insertion adds registers its ridges once, so the
        # top-level registrations count the facets added, and those past
        # the final hull were dropped on the way.  The 32 hull_scan cells
        # give 5,736 facets.  At (5, 57, 2) the alternating order drops
        # fewer facets than the hull has; a one-sided order drops 24,801.
        registered = []
        ridges = hull._ridges
        monkeypatch.setattr(
            hull, "_ridges", lambda hom, *args: registered.append(hom) or ridges(hom, *args)
        )

        def counts(cells):
            facets = added = 0
            for cell in cells:
                config = almost_cyclic_points(ASPParams(*cell))
                facets += len(enumerate_facets(config))
                added += sum(hom is config.hom for hom in registered)
                registered.clear()
            return facets, added

        assert counts(product((5, 6), range(13, 17), range(4))) == (5736, 9408)
        facets, added = counts([(5, 57, 2)])
        assert (facets, added) == (2857, 5511)
        assert added - facets < facets

    @pytest.mark.parametrize("cell", [(4, 9, 0), (3, 7, 1), (4, 9, 2)])
    def test_open_boundary_raises(self, monkeypatch, cell):
        # One facet (or a facet of a non-simplex facet's sub-hull) registers
        # one ridge too few.  If that facet is in the final hull, the walk
        # refuses.  A facet dropped later, or replaced when it takes in a
        # point on its hyperplane, may take the loss with it; then the walk
        # refuses or gives the true hull, never a wrong one.
        config = almost_cyclic_points(ASPParams(*cell))
        ridges = hull._ridges
        registrations = []
        monkeypatch.setattr(
            hull, "_ridges", lambda hom, m, w: registrations.append((hom, m)) or ridges(hom, m, w)
        )
        true = enumerate_facets(config)
        final = {sum(1 << (i - 1) for i in f.vertex_ids) for f in true}
        refused = 0
        for k, end in product(range(len(registrations)), (0, -1)):
            seen = []

            def drop_one(*args):
                out = ridges(*args)
                if len(seen) == k:
                    out.pop(end)
                seen.append(None)
                return out

            monkeypatch.setattr(hull, "_ridges", drop_one)
            hom, m = registrations[k]
            try:
                assert enumerate_facets(config) == true
                assert hom is not config.hom or m not in final
            except PseudomanifoldError as err:
                assert str(err).startswith("ridge [")
                refused += 1
        assert refused > len(registrations)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_acceptance_grid(self, d):
        for cell in GRID:
            if cell[0] == d:
                config = almost_cyclic_points(ASPParams(*cell))
                assert enumerate_facets(config) == facets_by_subset_scan(config)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_paper_curve_is_gale_even(self, d):
        # The paper's own construction, power factor included, spans the
        # Gale-even family on the acceptance grid, as the library's curve
        # does (criterion 01).
        for cell in GRID:
            if cell[0] == d:
                p = ASPParams(*cell)
                facets = enumerate_facets(paper_curve_points(p))
                gale = almost_cyclic_facets(p)
                assert len(facets) == len(gale) and {f.vertex_ids for f in facets} == set(gale)

    @pytest.mark.parametrize("name", SOLIDS)
    def test_solids(self, name):
        check_against_oracle(config_from_coords(SOLIDS[name]))

    @pytest.mark.parametrize("name", SOLIDS)
    def test_fixed_cases_match_per_ridge_wrap(self, name):
        check_wrap_per_ridge(config_from_coords(SOLIDS[name]).hom)

    @pytest.mark.parametrize(
        "configs", [general_position_configs, configs_with_interior_points, special_position_configs]
    )
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matches_per_ridge_wrap(self, configs, data):
        config = data.draw(configs())
        assume(spans_space(config))
        check_wrap_per_ridge(config.hom)

    @settings(deadline=None, max_examples=60)
    @given(general_position_configs())
    def test_general_position(self, config):
        check_against_oracle(config)

    @settings(deadline=None, max_examples=60)
    @given(configs_with_interior_points())
    def test_interior_points(self, config):
        check_against_oracle(config)

    @settings(deadline=None, max_examples=80)
    @given(special_position_configs())
    def test_points_on_common_hyperplanes(self, config):
        check_against_oracle(config)

    @settings(deadline=None, max_examples=30)
    @given(special_position_configs())
    def test_flat_inputs_rejected(self, config):
        # Append a coordinate that is an affine function of the others.
        flat = config_from_coords(
            [(*c, 2 * c[0] - c[-1] + 1) for _, c in rational_points(config)]
        )
        with pytest.raises(RankDeficientError):
            enumerate_facets(flat)


class TestDetectASP:
    def test_4_8_2(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 8, 2)))
        assert geom.special is not None
        assert geom.special.vertex_ids == frozenset(range(1, 7))
        assert geom.ball.params == ASPParams(4, 8, 2)

    def test_s0_is_unclassified(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 0)))
        assert geom.special is None and geom.ball is None
        assert geom.is_simplicial

    def test_designate_special(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 0)))
        chosen = sorted(geom.facets[0].vertex_ids)
        geom2 = designate_special(geom, chosen)
        assert geom2.ball.params.s == 0
        assert geom2.special.vertex_ids == frozenset(chosen)

    def test_cap(self):
        cfg = config_from_coords([(i, i * i) for i in range(17)])
        with pytest.raises(CapExceededError):
            detect_asp(cfg, cap=16)
        assert len(detect_asp(cfg, cap=17).facets) == 17

    def test_cube_rejected(self):
        cube = config_from_coords(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        )
        with pytest.raises(NotASPError):
            detect_asp(cube)

    def test_point_inside_is_named(self):
        # A square pyramid, and a tetrahedron, each with point 6 or 5 inside:
        # detect_asp, asp_geometry and designate_special name the point.
        square = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
        pyramid = config_from_coords(square + [(1, 1, 2), (1, 1, 1)])
        for build in (detect_asp, lambda c: hull.asp_geometry(c, [1, 2, 3, 4])):
            with pytest.raises(ShapeError, match="^point 6 is not a vertex of the hull$"):
                build(pyramid)
        tetrahedron = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
        geom = detect_asp(config_from_coords(tetrahedron + [(1, 1, 1)]))
        assert geom.special is None
        with pytest.raises(ShapeError, match="^point 5 is not a vertex of the hull$"):
            designate_special(geom, [1, 2, 3])

    @settings(deadline=None, max_examples=20)
    @given(stacking_cases(drawn=True), st.data())
    def test_points_inside_a_drawn_asp_are_named(self, case, data):
        # One or two points strictly inside, at weighted means of all the
        # points, inserted at drawn positions, are named by their ids.
        cell, _, _ = case
        d, n, s, curve = cell
        points = curve(ASPParams(d, n, s)).hom
        hom = list(points)
        for weight in range(1, data.draw(st.integers(1, 2)) + 1):
            inside = hull._primitive(hull._mean(points, [weight] + [1] * (n - 1)))
            hom.insert(data.draw(st.integers(0, len(hom))), tuple(inside))
        config = PointConfig(d, tuple(hom))
        ids = [i for i, h in enumerate(hom, 1) if h not in points]
        on_facets = set().union(*(f.vertex_ids for f in enumerate_facets(config)))
        assert ids == sorted(set(range(1, len(hom) + 1)) - on_facets)
        text = ", ".join(map(str, ids))
        message = (
            f"point {text} is not a vertex" if len(ids) == 1 else f"points {text} are not vertices"
        )
        with pytest.raises(ShapeError, match=f"^{message} of the hull$"):
            hull.asp_geometry(config, [hom.index(h) + 1 for h in points[:d]])

    def test_f_vector_matches_formula(self):
        for dns in [(3, 6, 1), (4, 8, 2), (5, 9, 2)]:
            p = ASPParams(*dns)
            geom = detect_asp(almost_cyclic_points(p))
            assert geometry_f_vector(geom).entries == f_almost_cyclic(p).entries


def scaled(f, k):
    return replace(f, plane=tuple(k * a for a in f.plane))


def tilted(f, g):
    """f with its plane minus g's, made primitive: 0 where both are 0."""
    return replace(f, plane=tuple(hull._primitive([a - b for a, b in zip(f.plane, g.plane)])))


# Each tampering of (the ASP, the stored facets) of cyclic (4, 8, 2), with
# the error it must raise and a fragment of its message.  fs[0] is the
# special facet [1, ..., 6] and fs[1] the simplex facet [1, 2, 3, 8].
REFUSALS = {
    "scaled": (
        lambda asp, fs: (asp, [fs[0], scaled(fs[1], 2), *fs[2:]]),
        NotAFaceError, "facet [1, 2, 3, 8]: hyperplane is not 5 coprime integers",
    ),
    "long-normal": (
        lambda asp, fs: (asp, [fs[0], replace(fs[1], plane=(*fs[1].plane, 0)), *fs[2:]]),
        NotAFaceError, "facet [1, 2, 3, 8]: hyperplane is not 5 coprime integers",
    ),
    "flipped": (
        lambda asp, fs: (asp, [fs[0], scaled(fs[1], -1), *fs[2:]]),
        NotAFaceError, "facet [1, 2, 3, 8]: hyperplane is negative at point 7",
    ),
    "relabelled": (
        lambda asp, fs: (asp, [fs[0], replace(fs[1], vertex_ids=frozenset({1, 2, 3, 7})), *fs[2:]]),
        NotAFaceError, "facet [1, 2, 3, 7]: hyperplane is zero at points [1, 2, 3, 8]",
    ),
    # [1, 2, 3, 8]'s plane minus the special facet's: 0 at 1, 2, 3, > 0 at
    # 4..7 (the special plane is 0 at 4..6, and 720 < 2160 at 7), but -5040
    # at the last point.
    "negative-at-last": (
        lambda asp, fs: (asp, [fs[0], tilted(fs[1], fs[0]), *fs[2:]]),
        NotAFaceError, "facet [1, 2, 3, 8]: hyperplane is negative at point 8",
    ),
    "extra-zero": (
        lambda asp, fs: (asp, [replace(fs[0], vertex_ids=frozenset(range(1, 6))), *fs[1:]]),
        NotAFaceError, "facet [1, 2, 3, 4, 5]: hyperplane is zero at points [1, 2, 3, 4, 5, 6]",
    ),
    "twice": (
        lambda asp, fs: (asp, [*fs, fs[1]]),
        NotAFaceError, "facet [1, 2, 3, 8] is stored twice",
    ),
    "dropped": (
        lambda asp, fs: (asp, [fs[0], *fs[2:]]),
        NotAFaceError, "facet [1, 2, 3, 8] is not stored",
    ),
    "not-in-complex": (
        lambda asp, fs: (
            replace(asp, ball=SimplicialComplex.from_facets(asp.ball.facets - {fs[1].vertex_ids})),
            fs,
        ),
        NotAFaceError, "facet [1, 2, 3, 8] is not in the complex",
    ),
    "other-n": (
        lambda asp, fs: (replace(asp, params=ASPParams(4, 9, 2)), fs),
        ShapeError, "complex has d=4, n=9; points d=4, n=8",
    ),
    "invalid-asp": (
        lambda asp, fs: (replace(asp, params=ASPParams(4, 8, 3)), fs),
        ShapeError, "special facet has 6 vertices, expected 7",
    ),
}


class TestCertifiedGeometry:
    @pytest.mark.parametrize("dns", [(3, 7, 1), (4, 7, 0), (4, 8, 2), (5, 10, 3), (6, 12, 1)])
    def test_equals_the_enumerated_hull_in_any_stored_order(self, dns):
        geom = asp_geometry(*dns)
        stored = list(geom.facets)
        random.Random(sum(dns)).shuffle(stored)
        asp = replace(geom.ball)  # a fresh instance, not validated yet
        assert certified_geometry(geom.config, asp, stored) == geom
        assert vars(asp)["special_boundary"] == boundary_of_ball(geom.ball.ball)

    def test_triangulated_second_nonsimplex_facet_is_refused(self):
        # A triangular prism with its quad y = 0 as the special facet: the
        # complex triangulates the other two quads, and each triangle is
        # stored with its quad's hyperplane, which is zero at a fourth point.
        # Every other test passes.
        config = config_from_coords(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
        )
        ball = [{1, 2, 3}, {4, 5, 6}, {1, 3, 6}, {1, 4, 6}, {2, 3, 6}, {2, 5, 6}]
        special = frozenset({1, 2, 4, 5})
        asp = ASPComplex(ASPParams(3, 6, 1), SimplicialComplex.from_facets(ball), special)
        planes = enumerate_facets(config)
        stored = [
            replace(next(f for f in planes if f.vertex_ids >= g), vertex_ids=frozenset(g))
            for g in [*ball, special]
        ]
        with pytest.raises(NotAFaceError, match=r"facet \[1, 3, 6\]: hyperplane is zero at "
                           r"points \[1, 3, 4, 6\]"):
            certified_geometry(config, asp, stored)

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal_names_the_facet_and_the_test(self, name):
        tamper, error, fragment = REFUSALS[name]
        geom = asp_geometry(4, 8, 2)
        asp, stored = tamper(geom.ball, list(geom.facets))
        with pytest.raises(error) as exc:
            certified_geometry(geom.config, asp, stored)
        assert fragment in str(exc.value)


@st.composite
def packed_cases(draw):
    """Homogeneous points (w >= 1, coordinates of either sign) and planes to test on them.

    The planes are random ones and the facet planes of the points' hull,
    each also negated; every candidate vertex set list starts with the
    plane's true zero set.
    """
    d = draw(st.integers(1, 4))
    coord = st.integers(-40, 40)
    rows = draw(st.lists(st.tuples(st.integers(1, 5), *[coord] * d), min_size=d + 1, max_size=9))
    hom = list(dict.fromkeys(tuple(hull._primitive(h)) for h in rows))  # as PointConfig holds them
    n = len(hom)
    entry = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    planes = draw(st.lists(st.lists(entry, min_size=d + 1, max_size=d + 1), max_size=3))
    if n > d:
        try:
            planes += [list(w) for w in hull._beneath_beyond(hom).values()]
        except RankDeficientError:
            pass
    planes += [[-a for a in w] for w in planes]
    ids = st.frozensets(st.integers(0, n + 1), max_size=n)
    cases = []
    for w in planes:
        zeros = frozenset(i for i, x in enumerate(hull._dots(w, hom), 1) if x == 0)
        j = draw(st.integers(1, n))
        cases.append((w, [zeros, zeros ^ {j}, zeros | {n + 1}, draw(ids)]))
    return hom, cases


class TestPackedPlaneCheck:
    """_PackedPoints.supports against the point-by-point loop it replaces."""

    @staticmethod
    def assert_agree(hom, cases):
        bound = max((abs(a) for w, _ in cases for a in w), default=0)
        packed = hull._PackedPoints(hom, bound)
        for w, vertex_sets in cases:
            for ids in vertex_sets:
                assert packed.supports(w, ids) == plane_supports_by_points(w, hom, ids), (w, ids)

    @given(packed_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_point_loop(self, case):
        self.assert_agree(*case)

    # Points 0, 1, 2, 3 on a line: planes a + b*x with the value -1, 0 or +1
    # in the first field (point 1) or the last (point 4).
    LINE = [(1, 0), (1, 1), (1, 2), (1, 3)]
    EDGE_PLANES = [(-1, 1), (0, 1), (1, 1), (2, -1), (3, -1), (4, -1)]

    @pytest.mark.parametrize("w", EDGE_PLANES)
    def test_edge_values_in_first_and_last_field(self, w):
        sets = [frozenset(s) for s in ([], [1], [4], [1, 4], [2], [3])]
        self.assert_agree(self.LINE, [(w, sets)])
        truth = [plane_supports_by_points(w, self.LINE, s) for s in sets]
        assert truth == [w in ((1, 1), (4, -1)), w == (0, 1), w == (3, -1), False, False, False]

    def test_wide_entry_widens_every_field(self):
        # One plane entry of 2^200 sets the width for all planes, the small
        # ones included; the wide plane is 0 at point 3 and negative at 4.
        wide = (2**200, -(2**199))
        sets = [frozenset(s) for s in ([], [3], [4], [3, 4])]
        cases = [(wide, sets), *((w, sets) for w in self.EDGE_PLANES)]
        self.assert_agree(self.LINE, cases)
        # Each of the four fields grows by bitlen(2^200) - bitlen(4) = 198 bits.
        narrow, wide = (hull._PackedPoints(self.LINE, b).bias.bit_length() for b in (4, 2**200))
        assert wide - narrow == 4 * 198

    # Per d, points where w = (-A, A, ..., A) is >= 0, 0 at the first d,
    # and the extreme point (B, -B, ..., -B, 1 - B), where w is -(dAB + A(B-1)):
    # close to the (d+1)*A*B the width allows for, so a field two bits
    # narrower (one short of exact), or one that leaves out the factor d+1,
    # would wrap.
    EXTREME_ROWS = {1: [(1, 1), (1, 2)], 2: [(1, 1, 0), (1, 0, 1), (1, 1, 1)]}

    @pytest.mark.parametrize("d", sorted(EXTREME_ROWS))
    @pytest.mark.parametrize("last", [False, True])
    def test_extreme_value_fits_its_field(self, d, last):
        a = b = 2**20 - 1
        extreme = (b, *[-b] * (d - 1), 1 - b)
        rows = self.EXTREME_ROWS[d]
        hom = [*rows, extreme] if last else [extreme, *rows]
        w = (-a, *[a] * d)
        values = hull._dots(w, hom)
        zeros = frozenset(i for i, x in enumerate(values, 1) if x == 0)
        self.assert_agree(hom, [(w, [zeros, frozenset()]), ([-x for x in w], [zeros])])
        assert min(values) == -(d * a * b + a * (b - 1)) and len(zeros) == d

    def test_simplex_n_is_d_plus_one(self):
        config = config_from_coords([(0, 0, 0), (5, 0, 0), (0, -3, 0), (1, 1, -7)])
        facets = enumerate_facets(config)
        sets = [*(f.vertex_ids for f in facets), frozenset({1, 2, 3, 4})]
        cases = [(f.plane, sets) for f in facets]
        cases += [([-a for a in f.plane], [f.vertex_ids]) for f in facets]
        self.assert_agree(config.hom, cases)
        assert all(plane_supports_by_points(f.plane, config.hom, f.vertex_ids) for f in facets)


class TestPointBeyond:
    """Where stack_over_special places y: its last point."""

    def test_tetrahedron_each_facet(self):
        # Each facet in turn is the special one; y is beyond it alone.
        geom = detect_asp(tetrahedron_config())
        for f in geom.facets:
            q = stack_over_special(designate_special(geom, f.vertex_ids), closeness=0)
            y = rational_points(q.config)[-1][1]
            assert eval_at(f, y) < 0
            for g in geom.facets:
                if g is not f:
                    assert eval_at(g, y) > 0

    def test_frozen_points(self):
        # The longest step 2^-k that satisfies the beyond conditions.
        def y(geom, special=None):
            if special is not None:
                geom = designate_special(geom, special)
            return rational_points(stack_over_special(geom, closeness=0).config)[-1]

        geom = detect_asp(tetrahedron_config())
        F = Fraction
        assert y(geom, [1, 2, 3]) == (5, (F(5, 12), F(5, 12), F(-1, 4)))
        assert y(geom, [2, 3, 4]) == (5, (F(5, 12),) * 3)
        geom = detect_asp(paper_curve_points(ASPParams(4, 7, 1)))
        assert y(geom) == (
            8, (F(-4097, 2048), F(12289, 2048), F(-40967, 2048), F(-19455, 1792))
        )

    def test_stacking_makes_simplicial(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        q = stack_over_special(geom)
        assert q.is_simplicial
        assert q.config.n == 8
        assert q.special is None

    def test_builds_no_fraction(self, monkeypatch):
        # The curve's points, the hull, its certification from stored
        # facets, y and the stacked hull's shellings are made on integers
        # alone; hull.py does not import Fraction at all.
        geom = asp_geometry(4, 9, 2)
        assert not hasattr(hull, "Fraction")
        monkeypatch.setattr(curves, "Fraction", None)
        monkeypatch.setattr(exactnum, "Fraction", None)
        config = almost_cyclic_points(ASPParams(4, 9, 2))
        assert config == geom.config
        assert enumerate_facets(config) == geom.facets
        assert certified_geometry(config, replace(geom.ball), geom.facets) == geom
        q = stack_over_special(geom, toward=1, closeness=12)
        assert q.config.hom[-1][0] > 0 and math.gcd(*q.config.hom[-1]) == 1
        line_shelling(q, seed=0)

    def test_toward_off_the_special_facet(self):
        geom = asp_geometry(4, 8, 2)
        assert 7 not in geom.special.vertex_ids
        with pytest.raises(DomainError, match="vertex 7 is not on the chosen facet"):
            stack_over_special(geom, toward=7)

    @settings(deadline=None, max_examples=30)
    @given(stacking_cases())
    def test_beyond_conditions_in_rationals(self, case):
        # y is beyond F alone, and it is the placement oracle's point.
        cell, toward, closeness = case
        geom = asp_geometry(*cell)
        pid, y = rational_points(stack_over_special(geom, toward, closeness).config)[-1]
        assert eval_at(geom.special, y) < 0
        assert all(eval_at(f, y) > 0 for f in geom.facets if f is not geom.special)
        assert (pid, y) == (geom.config.n + 1, point_beyond(geom, geom.special, toward, closeness))

    def test_twin_hyperplane_is_degenerate(self):
        # A second, equal copy of the special facet can never be strictly
        # beneath a point beyond the first: no step length works.
        geom = detect_asp(tetrahedron_config())
        geom = designate_special(geom, geom.facets[0].vertex_ids)
        twin = replace(geom, facets=geom.facets + (replace(geom.special),))
        with pytest.raises(DegeneracyError, match="halvings"):
            stack_over_special(twin)


class TestStackOverSpecial:
    @settings(deadline=None, max_examples=100)
    @given(stacking_cases(drawn=True), st.data())
    def test_matches_the_per_rung_oracle(self, case, data):
        # Two rungs on one geometry, so the second reads the special_ridges
        # the first formed.  Each rung equals the brute-force one: y placed by
        # point_beyond with the hull enumerated again, and the centroid and
        # centroid values that fresh geometry computes; or the same refusal
        # type and text.
        # The rungs pull toward nothing or any id (ids off F are refused),
        # at closeness 0..40, with a cap at, above or without n + 1.  The
        # geometry is the cell as enumerated, or F with a twin (no step
        # places y), or a kept facet's plane bent off its ridge with F, or
        # no special facet; the last two are refused with texts pinned here.
        cell, _, _ = case
        geom = asp_geometry(*cell)
        n, F = cell[1], geom.special
        variant = data.draw(st.sampled_from(["as enumerated"] * 3 + ["bent", "twin", "no special"]))
        subject = geom
        if variant == "bent":
            g = data.draw(
                st.sampled_from([f for f in geom.facets if len(f.vertex_ids & F.vertex_ids) == geom.d - 1])
            )
            ridge = g.vertex_ids & F.vertex_ids
            r = data.draw(st.sampled_from(sorted(ridge)))
            h = next(
                f for f in geom.facets if f is not F and f is not g and ridge - {r} <= f.vertex_ids
            )
            bent = replace(g, plane=tuple(a + b for a, b in zip(g.plane, h.plane)))
            subject = replace(geom, facets=tuple(bent if f is g else f for f in geom.facets))
        elif variant == "twin":
            geom = subject = replace(geom, facets=geom.facets + (replace(F),))
        elif variant == "no special":
            subject = hull.ASPGeometry(geom.config, geom.facets, None, None)

        def outcome(stack, geometry, *args):
            try:
                q = stack(geometry, *args)
            except (DomainError, DegeneracyError, CapExceededError) as exc:
                return type(exc), str(exc)
            # A stacked geometry promises no facet order.
            valued = sorted(zip(q.facets, q.centroid_values), key=lambda p: sorted(p[0].vertex_ids))
            return valued, q.config.hom, q.centroid, q.is_simplicial, q.special, q.ball

        on_f = st.sampled_from([None, *sorted(F.vertex_ids)])
        for _ in range(2):
            args = (
                data.draw(st.one_of(on_f, st.integers(1, n))),
                data.draw(st.integers(0, 40)),
                data.draw(st.sampled_from([None, None, n, n + 1])),
            )
            expected = outcome(stacked_by_enumeration, geom, *args)
            if variant == "no special":
                expected = DomainError, "geometry has no designated special facet to stack over"
            elif variant == "bent" and expected[0] not in (DomainError, CapExceededError):
                message = f"cone from {n + 1} over ridge {sorted(ridge)} is not a facet of the stacked hull"
                expected = DegeneracyError, message
            assert outcome(stack_over_special, subject, *args) == expected

    @settings(deadline=None, max_examples=40)
    @given(stacking_cases(drawn=True))
    def test_cone_planes_are_kernel_planes(self, case):
        # Each pencil plane is the primitive kernel plane through its cone's
        # vertices, >= 0 at all n+1 points and 0 exactly there: the O(d)
        # check accepts only cones that a check at every point accepts.
        cell, toward, closeness = case
        geom = asp_geometry(*cell)
        q = stack_over_special(geom, toward, closeness)
        cones = [f for f in q.facets if q.config.n in f.vertex_ids]
        assert len(cones) == boundary_of_ball(geom.ball.ball).n_facets
        for f in cones:
            plane = supporting_hyperplane(q.config.hom, sorted(i - 1 for i in f.vertex_ids))
            assert plane == (f.plane, f.vertex_ids)

    @settings(deadline=None, max_examples=40)
    @given(stacking_cases(), st.integers(0, 10**6))
    def test_search_matches_a_fresh_geometry(self, case, seed):
        # The search reads the boundary complex alone, so with y the stacked
        # point or with y and v swapped it gives what it gives on a fresh
        # geometry, which computes every cached property again.
        cell, toward, closeness = case
        q = stack_over_special(asp_geometry(*cell), toward, closeness)
        fresh = hull.ASPGeometry(q.config, q.facets, None, None)
        y, v = q.config.n, toward or 1

        def outcome(search, geom, a, b):
            try:
                return search(geom, a, b, seed)
            except (ShellingSearchError, DegeneracyError) as exc:
                return type(exc).__name__, str(exc)

        for a, b in ((y, v), (v, y)):
            assert outcome(constrained_line_shelling, q, a, b) == outcome(
                constrained_line_shelling, fresh, a, b
            )

    @pytest.mark.parametrize("cell", [(4, 7, 0), (4, 8, 1), (5, 9, 2)])
    def test_plane_off_its_ridge_refuses_the_cone(self, cell):
        # A kept facet G whose stored plane is G + H, for a facet H through
        # its ridge R with F less one vertex r: the plane is still >= 0 at
        # every point and beyond-checks as before, but is positive at r.
        # The cone over R is then positive at r and is refused.
        geom = asp_geometry(*cell)
        F = geom.special
        y = geom.config.n + 1
        for g in geom.facets:
            ridge = g.vertex_ids & F.vertex_ids
            if len(ridge) != geom.d - 1:
                continue
            for r in ridge:
                h = next(
                    f for f in geom.facets
                    if f is not F and f is not g and ridge - {r} <= f.vertex_ids
                )
                assert r not in h.vertex_ids
                bent = replace(g, plane=tuple(a + b for a, b in zip(g.plane, h.plane)))
                facets = tuple(bent if f is g else f for f in geom.facets)
                message = f"cone from {y} over ridge {sorted(ridge)} is not a facet"
                with pytest.raises(DegeneracyError, match=re.escape(message)):
                    stack_over_special(replace(geom, facets=facets))

    @pytest.mark.parametrize("cell", [(3, 6, 0), (4, 7, 0), (4, 8, 1), (5, 9, 2)])
    def test_special_plane_off_its_pencil_refuses_the_first_cone(self, cell):
        # The special facet's stored plane replaced by -w_F - c*w_G for the
        # first kept facet G on a ridge R of F, with c large enough that
        # it stays negative at y.  It still vanishes on R, so the pencil
        # plane is 0 there, but it is the negated cone plane: negative at
        # G's vertex off R.  That check refuses G's cone first; the other
        # cones would fail on their ridges.
        geom = asp_geometry(*cell)
        F = geom.special
        y = stack_over_special(geom).config.hom[-1]
        g = next(f for f in geom.facets if len(f.vertex_ids & F.vertex_ids) == geom.d - 1)
        c = -hull._dot(F.plane, y) // hull._dot(g.plane, y) + 1
        bent = replace(F, plane=tuple(-a - c * b for a, b in zip(F.plane, g.plane)))
        facets = tuple(bent if f is F else f for f in geom.facets)
        tampered = replace(geom, special=bent, facets=facets)
        ridge = sorted(g.vertex_ids & F.vertex_ids)
        message = f"cone from {cell[1] + 1} over ridge {ridge} is not a facet"
        with pytest.raises(DegeneracyError, match=re.escape(message)):
            stack_over_special(tampered)

    @settings(deadline=None, max_examples=40)
    @given(stacking_cases(drawn=True), st.randoms(use_true_random=False))
    def test_facets_are_kept_in_sorted_vertex_id_order(self, case, rng):
        # enumerate_facets gives the facets in sorted vertex-id order, for
        # the points relabelled at random too, and certified_geometry
        # restores it from any stored order: construct's bytes and the
        # order in which a load refuses a facet rely on it.  A stacked
        # geometry promises no order.
        cell, _, _ = case
        geom = asp_geometry(*cell)
        stored = list(geom.facets)
        rng.shuffle(stored)
        certified = certified_geometry(geom.config, replace(geom.ball), stored)
        label = rng.sample(range(1, cell[1] + 1), cell[1])  # old id i is label[i - 1]
        hom = [h for _, h in sorted(zip(label, geom.config.hom))]
        moved = enumerate_facets(PointConfig(geom.d, tuple(hom)))
        assert {frozenset(label[v - 1] for v in f.vertex_ids) for f in geom.facets} == {
            f.vertex_ids for f in moved
        }
        for facets in (enumerate_facets(geom.config), certified.facets, moved):
            keys = [sorted(f.vertex_ids) for f in facets]
            assert keys == sorted(keys)

    def test_special_ridges_are_formed_once(self, monkeypatch):
        # F's ridges, each with the facet G across it, are formed at the
        # first stacking and no later one forms anything on the geometry,
        # whatever it pulls toward.  A stacking evaluates every kept facet
        # once, at the exit point, and F once, at y, and no cone: each is
        # certified from F's and its G's values at G's points, formed with
        # the ridges.
        formed = []
        form = hull.ASPGeometry.special_ridges.func
        counted = cached_property(lambda geom: formed.append(geom) or form(geom))
        counted.__set_name__(hull.ASPGeometry, "special_ridges")
        monkeypatch.setattr(hull.ASPGeometry, "special_ridges", counted)
        geom = asp_geometry(4, 8, 2)
        stack_over_special(geom)
        state = geom.special_ridges
        cached = dict(vars(geom))
        dots = []
        dot = hull._dot
        monkeypatch.setattr(hull, "_dot", lambda u, v: dots.append(u) or dot(u, v))
        for toward, closeness in ((1, 12), (4, 40), (None, 0), (1, 0)):
            dots.clear()
            stack_over_special(geom, toward=toward, closeness=closeness)
            assert len(dots) == (len(geom.facets) - 1) + 1
        assert formed == [geom] and geom.special_ridges is state and vars(geom) == cached
        _, _, ridges = state
        assert len(ridges) == boundary_of_ball(geom.ball.ball).n_facets == 8

    def test_explicit_cap(self):
        geom = asp_geometry(4, 8, 2)
        with pytest.raises(CapExceededError):
            stack_over_special(geom, cap=8)
        assert stack_over_special(geom, cap=9).config.n == 9

    def test_needs_special_facet(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 0)))
        with pytest.raises(DomainError):
            stack_over_special(geom)

    def test_frozen_criterion_09_stacks(self):
        # y and every facet (ids, normal, offset) of the stacked hull for
        # each criterion-09 pair at closeness 12 and 40, on the paper curve.
        rows = []
        for d in (4, 5):
            for s in range(4):
                for n in range(d + s + 1, d + s + 5):
                    geom = asp_geometry(d, n, s, curve=paper_curve_points)
                    for v in range(1, d + s + 1):
                        for closeness in (12, 40):
                            q = stack_over_special(geom, toward=v, closeness=closeness)
                            y = [str(x) for x in rational_points(q.config)[-1][1]]
                            facets = sorted(
                                [sorted(f.vertex_ids), list(f.plane[1:]), f.plane[0]]
                                for f in q.facets
                            )
                            rows.append([d, n, s, v, closeness, y, facets])
        assert len(rows) == 384 and digest(rows) == "cea2cb3e51b4ad0d"


class TestLineShelling:
    def test_tetrahedron(self):
        geom = detect_asp(tetrahedron_config())
        cert = line_shelling(geom, seed=1)
        assert h_from_shelling(cert).entries == (1, 1, 1, 1)

    def test_octahedron(self):
        geom = detect_asp(octahedron_config())
        cert = line_shelling(geom, seed=2)
        assert h_from_shelling(cert).entries == (1, 3, 3, 1)

    def test_deterministic(self):
        geom = detect_asp(octahedron_config())
        assert line_shelling(geom, seed=9).order == line_shelling(geom, seed=9).order

    def test_reversal_verifies(self):
        geom = detect_asp(octahedron_config())
        cert = line_shelling(geom, seed=4)
        rev = verify_shelling(cert.complex, list(reversed(cert.order)))
        assert h_from_shelling(rev).entries == (1, 3, 3, 1)

    def test_stacked_q_identity(self):
        # The oracle of cli.stacking_identity: Q's facets are the ball's plus
        # y over each facet of F's boundary, so h from Q's own f-vector is
        # h(ball) plus the shifted h(boundary), and so is the shelling's h.
        from test_acceptance import GRID

        cells = [cell for cell in GRID if cell[0] <= 5] + [(8, 20, 2)]
        for d, n, s in cells:
            geom = asp_geometry(d, n, s)
            asp = geom.ball
            cert = line_shelling(stack_over_special(geom), seed=3)
            (y,) = set(cert.complex.vertex_ids) - set(asp.ball.vertex_ids)
            cone = {r | {y} for r in asp.special_boundary.facets}
            assert cert.complex.facets == asp.ball.facets | cone
            hball = h_from_f(f_vector(asp.ball))
            hbd = h_from_f(f_vector(asp.special_boundary))
            stacked = tuple(hball.h(k) + hbd.h(k - 1) for k in range(d + 1))
            assert h_from_f(f_vector(cert.complex)).entries == stacked
            hq = h_from_shelling(cert)
            assert hq.entries == stacked and cli.stacking_identity(cert, asp) == (hq, True)
            if (d, n, s) == (4, 8, 2):
                assert stacked == (1, 5, 10, 5, 1)
        assert stacked == (1, 13, 81, 370, 1370, 370, 81, 13, 1)

    def test_requires_simplicial(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 8, 2)))
        with pytest.raises(DomainError):
            line_shelling(geom, seed=1)

    @pytest.mark.parametrize(
        "cell, seed, size, order_digest",
        [
            ((4, 8, 2), 3, 22, "9b148166297faa89"),
            ((5, 10, 2), 11, 50, "fb807e3fa8ffa498"),
        ],
    )
    def test_frozen_orders(self, cell, seed, size, order_digest):
        # Values from the Fraction-arithmetic crossing kernel, on the paper
        # curve; the integer kernel must order the facets identically.
        q = stack_over_special(asp_geometry(*cell, curve=paper_curve_points))
        order = [sorted(f) for f in line_shelling(q, seed).order]
        assert len(order) == size and digest(order) == order_digest

    @settings(deadline=None, max_examples=12)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_h_independent_of_seed(self, seed):
        geom = detect_asp(bipyramid_config())
        cert = line_shelling(geom, seed=seed)
        assert h_from_shelling(cert).entries == (1, 2, 2, 1)


class TestConstrainedShelling:
    def test_bipyramid_apex_then_equator(self):
        geom = detect_asp(bipyramid_config())
        cert = constrained_line_shelling(geom, 4, 1, seed=7)
        assert shelling_prefix_ok(cert.order, 4, 1)
        assert all(4 in f for f in cert.order[:3])
        assert all(1 in f for f in cert.order[3:5])

    def test_stacked_asp_case(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        q = stack_over_special(geom, toward=2, closeness=12)
        cert = constrained_line_shelling(q, 8, 2, seed=5)
        assert shelling_prefix_ok(cert.order, 8, 2)
        defects = key_shelling_defects(cert, 8, 2)
        assert all(x >= 0 for row in defects for x in row)

    @pytest.mark.parametrize("cell", [(4, 7, 0), (4, 9, 1), (5, 10, 2), (4, 10, 3), (5, 12, 3)])
    def test_matches_the_greedy_oracle(self, cell):
        # On the paper curve, whose entries are large: every rung certifies,
        # with the pairwise oracle's order and restriction faces.
        d, n, s = cell
        geom = asp_geometry(*cell, curve=paper_curve_points)
        for v in range(1, d + s + 1):
            for closeness in (12, 40):
                q = stack_over_special(geom, toward=v, closeness=closeness)
                cert = constrained_line_shelling(q, n + 1, v, seed=closeness)
                assert shelling_prefix_ok(cert.order, n + 1, v)
                assert cert == star_shelling_pairwise(q.boundary_complex(), n + 1, v)

    @pytest.mark.parametrize("cell", [(4, 7, 0), (4, 9, 1), (5, 10, 2), (4, 10, 3), (5, 12, 3)])
    def test_every_rung_certifies_on_the_curve(self, cell):
        # The same rungs on the library's curve: every one certifies, with
        # the certificate key_lemma_certificate finds on the complex alone.
        d, n, s = cell
        geom = asp_geometry(*cell)
        for v in range(1, d + s + 1):
            for closeness in (12, 40):
                q = stack_over_special(geom, toward=v, closeness=closeness)
                cert = constrained_line_shelling(q, n + 1, v, seed=closeness)
                assert shelling_prefix_ok(cert.order, n + 1, v)
                assert cert == key_lemma_certificate(geom.ball, v)

    @settings(deadline=None, max_examples=40)
    @given(stacking_cases(), st.data())
    def test_matches_pairwise_oracle_on_stacked_hulls(self, case, data):
        # Any edge (a, b) of a stacked hull, y's or another: the same
        # certificate as the pairwise oracle, or the oracle's ShellingError
        # under ShellingSearchError when the greedy search is stuck.
        cell, toward, closeness = case
        q = stack_over_special(asp_geometry(*cell), toward, closeness)
        edges = sorted({(a, b) for f in q.facets for a in f.vertex_ids for b in f.vertex_ids if a != b})
        y = q.config.n
        a, b = data.draw(st.sampled_from([(y, toward or 1), *edges]))
        try:
            expected = star_shelling_pairwise(q.boundary_complex(), a, b)
        except ShellingError as exc:
            with pytest.raises(ShellingSearchError, match=re.escape(str(exc))):
                constrained_line_shelling(q, a, b, seed=0)
        else:
            assert constrained_line_shelling(q, a, b, seed=0) == expected

    def test_stuck_search_raises(self):
        # Two disjoint tetrahedron boundaries: after st(1) and st(2), no
        # facet of the second one meets an earlier facet in a ridge.  The
        # planes are placeholders: the search reads the complex alone.
        a, b = ([x, x + 1, x + 2, x + 3] for x in (1, 5))
        sets = [frozenset(f) - {x} for f in (a, b) for x in f]
        geom = hull.ASPGeometry(
            config_from_coords([(i, i * i, i**3) for i in range(1, 9)]),
            tuple(FacetDescriptor(f, (1, 0, 0, 0)) for f in sets),
            None,
            None,
        )
        message = "shelling condition fails at step 5: facet [5, 6, 7] meets earlier facets in []"
        with pytest.raises(ShellingSearchError, match=re.escape(message)):
            constrained_line_shelling(geom, 1, 2, seed=0)

    def test_identical_vertices_rejected(self):
        geom = detect_asp(bipyramid_config())
        with pytest.raises(DomainError):
            constrained_line_shelling(geom, 4, 4, seed=1)

    def test_non_neighbor_rejected(self):
        geom = detect_asp(bipyramid_config())
        with pytest.raises(DomainError):
            constrained_line_shelling(geom, 4, 5, seed=1)


class TestLexicographicOrder:
    def test_full_tie_and_parallel_are_degenerate(self):
        # Keys 3, 4, 3 at e_1: two hyperplanes met at one parameter.
        with pytest.raises(DegeneracyError, match="one parameter"):
            lines_with_normals([(2, 5), (3, 0), (2, 5)]).order([1, 1, 0])
        # (0, 2) is parallel to the line toward e_1, not to the one toward e_2.
        lines_with_normals([(0, 2), (3, 1)]).order([1, 0, 1])
        with pytest.raises(DegeneracyError, match="parallel"):
            lines_with_normals([(0, 2), (3, 1)]).order([1, 1, 0])

    @settings(deadline=None, max_examples=300)
    @given(TIED_PLANES, TIED_TARGET, st.data())
    def test_matches_lcm_keys_on_planes(self, planes, target, data):
        # Facets off + a.x >= 0 seen from the origin: A = off varies, and
        # small integers make ties and parallel hyperplanes common.  The
        # target is drawn as it is, or as (t0, k*a2, -k*a1), whose line
        # from the origin runs parallel to the facet of a drawn plane.  The
        # floored keys evaluate each facet once, at the target, and give
        # the order, or the refusal, of LcmLines' exact ratios.
        geom = planes_geometry(planes)
        if data.draw(st.booleans()):
            _, a1, a2 = data.draw(st.sampled_from(planes))
            t0, k, _ = target
            target = (t0, k * a2, -k * a1)
        evaluated = Counter()
        dot = hull._dot

        def spy(u, v):
            evaluated[tuple(u), tuple(v)] += 1
            return dot(u, v)

        lines = _LinesFrom(geom)
        with mock.patch.object(hull, "_dot", spy):
            try:
                lines.order(target)
            except DegeneracyError:
                pass
        assert evaluated == Counter((tuple(target), p) for p in planes)
        same_order(lines, LcmLines(geom, [1, 0, 0]), target)

    @settings(deadline=None, max_examples=80)
    @given(stacking_cases(), st.data())
    def test_matches_lcm_keys_on_stacked_hulls(self, case, data):
        # The target is a point of the configuration, any rational point,
        # or centroid + (0, delta) with delta in a facet's hyperplane
        # direction, so that the line runs parallel to that facet (with
        # big-integer keys on the paper's curve).
        cell, toward, closeness = case
        q = stack_over_special(asp_geometry(*cell), toward=toward, closeness=closeness)
        if data.draw(st.booleans()):
            normal = data.draw(st.sampled_from(q.facets)).plane[1:]
            hb = q.centroid
            i, j = data.draw(st.lists(st.integers(0, q.d - 1), min_size=2, max_size=2, unique=True))
            k = data.draw(st.integers(1, 5))
            delta = [0] * q.d
            delta[i], delta[j] = k * normal[j], -k * normal[i]
            target = [hb[0], *(b + x for b, x in zip(hb[1:], delta))]
        else:
            coord = st.fractions(min_value=-20, max_value=20, max_denominator=5)
            points = st.sampled_from([c for _, c in rational_points(q.config)])
            target = homogeneous(data.draw(st.one_of(points, st.tuples(*[coord] * q.d))))
        same_order(_LinesFrom(q), LcmLines(q, homogeneous(centroid(q))), target)


class TestKeyShellingDefects:
    @settings(deadline=None, max_examples=25)
    @given(shelled_stacked_cases())
    def test_matches_rebuild(self, case):
        (d, n, s), seed, reverse = case
        cert = line_shelling(stack_over_special(asp_geometry(d, n, s)), seed)
        if reverse:
            cert = verify_shelling(cert.complex, list(reversed(cert.order)))
        y = n + 1
        for v in range(1, d + s + 1):
            assert key_shelling_defects(cert, y, v) == defects_by_rebuild(cert, y, v)

    @settings(deadline=None, max_examples=25)
    @given(shelled_stacked_cases(), st.booleans())
    def test_matches_face_counts(self, case, constrained):
        # Line shellings under different seeds, constrained shellings, and
        # their reversals, with y and v in either role and with a second
        # vertex of F: every valid order gives the face-count table of the
        # rebuilt complexes.
        (d, n, s), seed, reverse = case
        geom = asp_geometry(d, n, s)
        stacked = stack_over_special(geom)
        y = n + 1
        certs = []
        for v in range(1, d + s + 1):
            if constrained:
                q = stack_over_special(geom, toward=v, closeness=40)
                try:
                    certs.append((v, constrained_line_shelling(q, y, v, seed)))
                except (ShellingSearchError, DegeneracyError):
                    continue
            else:
                certs.append((v, line_shelling(stacked, seed + v)))
        for v, cert in certs:
            if reverse:
                cert = verify_shelling(cert.complex, list(reversed(cert.order)))
            for a, b in [(y, v), (v, y), (y, 1 + v % (d + s))]:
                if a != b:
                    assert key_shelling_defects(cert, a, b) == defects_by_rebuild(cert, a, b)

    def test_empty_links_at_start(self):
        # Reversed, a constrained shelling ends with st(y) and st(v): the
        # links of y and v stay empty for the first steps.
        q = stack_over_special(asp_geometry(4, 8, 1), toward=3, closeness=28)
        cert = constrained_line_shelling(q, 9, 3, seed=28)
        rev = verify_shelling(cert.complex, list(reversed(cert.order)))
        assert not rev.order[0] & {3, 9} and not rev.order[1] & {3, 9}
        for y, v in [(9, 3), (9, 1), (3, 9), (9, 8), (2, 7)]:
            defects = key_shelling_defects(rev, y, v)
            assert defects == defects_by_rebuild(rev, y, v)
        assert key_shelling_defects(rev, 9, 3)[0] == (1, 0, 0, 0, 0)

    def test_needs_distinct_vertices(self):
        q = stack_over_special(asp_geometry(4, 7, 1), toward=2, closeness=12)
        cert = constrained_line_shelling(q, 8, 2, seed=5)
        with pytest.raises(DomainError):
            key_shelling_defects(cert, 2, 2)


class TestMeasurements:
    def test_neighborliness_values(self):
        assert neighborliness(detect_asp(almost_cyclic_points(ASPParams(4, 8, 2)))) == 1
        assert neighborliness(detect_asp(almost_cyclic_points(ASPParams(5, 9, 2)))) == 2
        assert neighborliness(detect_asp(tetrahedron_config())) == 3

    def test_simpliciality_values(self):
        assert simpliciality(detect_asp(almost_cyclic_points(ASPParams(4, 8, 2)))) == 2
        assert simpliciality(detect_asp(octahedron_config())) == 2

    def test_interior_point_is_interior(self):
        # The integer base point of the line shellings is the centroid.
        octahedron = detect_asp(octahedron_config())
        stacked = stack_over_special(asp_geometry(4, 8, 2), toward=1, closeness=12)
        for geom in (octahedron, stacked):
            hb = hull._mean(geom.config.hom, [1] * geom.config.n)
            b = centroid(geom)
            assert hb[0] > 0 and tuple(Fraction(x, hb[0]) for x in hb[1:]) == b
            assert all(eval_at(f, b) > 0 for f in geom.facets)
