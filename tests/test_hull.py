"""Geometric enumeration and shelling tests.

Cross-oracle checks against the combinatorial facet list are the core
here; small solids (tetrahedron, cube, octahedron, bipyramid) pin down
the predicates with hand-checkable answers.
"""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from aspoly.complexes import (
    boundary_of_ball,
    f_vector,
    h_from_shelling,
    verify_shelling,
)
from aspoly.curves import PointConfig, almost_cyclic_points
from aspoly.enumerative import ASPParams, f_almost_cyclic, h_from_f
from aspoly.exactnum import RatMatrix, int_det, int_rank, rank
from aspoly.errors import (
    CapExceededError,
    DegeneracyError,
    DomainError,
    NotAFaceError,
    NotASPError,
    RankDeficientError,
    ShapeError,
    ShellingSearchError,
)
from aspoly.gale import almost_cyclic_facets
from aspoly.hull import (
    FacetDescriptor,
    constrained_line_shelling,
    designate_special,
    detect_asp,
    enumerate_facets,
    extend_config,
    geometry_f_vector,
    interior_point,
    key_shelling_defects,
    line_shelling,
    neighborliness,
    orientation,
    point_beyond,
    shelling_prefix_ok,
    simpliciality,
    stack_over_special,
)


def config_from_coords(coords) -> PointConfig:
    pts = tuple(
        (i, tuple(Fraction(x) for x in c)) for i, c in enumerate(coords, start=1)
    )
    return PointConfig(len(coords[0]), pts)


def facets_by_subset_scan(config: PointConfig) -> tuple[FacetDescriptor, ...]:
    """Oracle: test every d-subset, as facet enumeration once did.

    A d-subset's hyperplane normal comes from the d+1 cofactors of its
    homogeneous coordinate matrix; the subset supports a facet exactly
    when one strict side is empty.  Facets are deduplicated by the full
    set of points on the hyperplane and sorted by their sorted vertex ids.
    """
    n, d = config.n, config.d
    hom = []
    for _, coords in config.points:
        scale = math.lcm(*(c.denominator for c in coords))
        hom.append([scale] + [int(c * scale) for c in coords])
    assert int_rank(hom) == d + 1
    found = {}
    for subset in combinations(range(n), d):
        if any(frozenset(i + 1 for i in subset) <= on for on in found):
            continue
        rows = [hom[i] for i in subset]
        w = [(-1) ** (d + c) * int_det([r[:c] + r[c + 1 :] for r in rows]) for c in range(d + 1)]
        if not any(w):
            continue
        dots = [sum(a * x for a, x in zip(w, h)) for h in hom]
        if min(dots) < 0 < max(dots):
            continue
        g = -math.gcd(*w) if min(dots) < 0 else math.gcd(*w)
        on = frozenset(i + 1 for i, x in enumerate(dots) if x == 0)
        found[on] = [x // g for x in w]
    facets = (FacetDescriptor(on, tuple(w[1:]), w[0]) for on, w in found.items())
    return tuple(sorted(facets, key=lambda f: sorted(f.vertex_ids)))


def stacked_by_enumeration(geom, toward, closeness):
    """stack_over_special the brute-force way: place y, then re-enumerate the hull."""
    weight = Fraction(0) if toward is None else 1 - Fraction(1, 2**closeness)
    y = point_beyond(
        geom,
        geom.special,
        toward=toward,
        toward_weight=weight,
        extra_halvings=closeness,
    )
    return detect_asp(extend_config(geom.config, y), cap=None)


def asp_geometry(d, n, s):
    geom = detect_asp(almost_cyclic_points(ASPParams(d, n, s)), cap=None)
    if geom.ball is None:
        geom = designate_special(geom, range(1, d + 1))
    return geom


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@st.composite
def stacking_cases(draw):
    d = draw(st.integers(3, 5))
    s = draw(st.integers(0, 3))
    n = draw(st.integers(d + s + 1, 12))
    toward = draw(st.sampled_from([None, *range(1, d + s + 1)]))
    closeness = draw(st.sampled_from([2, 12, 20, 28, 40]))
    return (d, n, s), toward, closeness


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
        for sub in combinations(block, p.d):
            for outside in range(p.d + p.s + 1, p.n + 1):
                pts = [cfg.coords(i) for i in sub] + [cfg.coords(outside)]
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
            assert f.eval_at(centroid) > 0

    def test_flat_configuration_rejected(self):
        cfg = config_from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        with pytest.raises(RankDeficientError):
            enumerate_facets(cfg)

    def test_cap(self):
        cfg = config_from_coords([(i, i * i) for i in range(17)])
        with pytest.raises(CapExceededError):
            enumerate_facets(cfg)
        assert len(enumerate_facets(cfg, cap=None)) == 17

    def test_matches_gale_on_4_7_1(self):
        p = ASPParams(4, 7, 1)
        facets = enumerate_facets(almost_cyclic_points(p))
        assert {f.vertex_ids for f in facets} == set(almost_cyclic_facets(p))

    def test_ridges_in_two_facets(self):
        from aspoly.complexes import is_closed_pseudomanifold

        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        q = stack_over_special(geom)
        assert is_closed_pseudomanifold(q.boundary_complex())


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
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d + 1, 11))
    coord = st.fractions(min_value=-1000, max_value=1000, max_denominator=7)
    return distinct_config(
        draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    )


@st.composite
def configs_with_interior_points(draw):
    """Random hull points plus points at positive weighted means of all of them."""
    d = draw(st.integers(2, 4))
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
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        grid = list(product(range(3), repeat=d))
        pts = draw(st.lists(st.sampled_from(grid), min_size=d + 1, max_size=12, unique=True))
    else:
        base = st.tuples(*[st.integers(0, 3)] * (d - 1), st.just(0))
        apex = st.tuples(*[st.integers(-2, 5)] * (d - 1), st.sampled_from([-3, -1, 2, 4]))
        pts = draw(st.lists(base, min_size=d, max_size=10, unique=True))
        pts += draw(st.lists(apex, min_size=1, max_size=3, unique=True))
    return distinct_config(draw(st.permutations(pts)))


def spans_space(config: PointConfig) -> bool:
    return rank(RatMatrix.from_rows([[1, *c] for _, c in config.points])) == config.d + 1


def check_against_oracle(config: PointConfig) -> None:
    if spans_space(config):
        assert enumerate_facets(config, cap=None) == facets_by_subset_scan(config)
    else:
        with pytest.raises(RankDeficientError):
            enumerate_facets(config, cap=None)


class TestGiftWrapOracle:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_acceptance_grid(self, d):
        for cell in GRID:
            if cell[0] == d:
                config = almost_cyclic_points(ASPParams(*cell))
                assert enumerate_facets(config) == facets_by_subset_scan(config)

    @pytest.mark.parametrize(
        "coords",
        [
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
            [(x, y, z, w) for x in (0, 1) for y in (0, 1) for z in (0, 1) for w in (0, 1)],
            # prism over a pentagon
            [(x, y, z) for x, y in ((2, 0), (1, 2), (-1, 2), (-2, 0), (0, -2)) for z in (0, 3)],
            # cross-polytopes
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
            [tuple(s if j == i else 0 for j in range(4)) for i in range(4) for s in (1, -1)],
            # pyramid over a 3-cube: square pyramids are facets with square ridges
            [(x, y, z, 0) for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [(0, 0, 0, 1)],
            # octahedron with the equator's edge midpoints added
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
             (Fraction(1, 2), Fraction(1, 2), 0), (Fraction(-1, 2), Fraction(1, 2), 0)],
        ],
        ids=["cube3", "cube4", "prism", "cross3", "cross4", "pyramid4", "octa_mid"],
    )
    def test_solids(self, coords):
        check_against_oracle(config_from_coords(coords))

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
            [(*c, 2 * c[0] - c[-1] + 1) for _, c in config.points]
        )
        with pytest.raises(RankDeficientError):
            enumerate_facets(flat, cap=None)


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

    def test_cube_rejected(self):
        cube = config_from_coords(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        )
        with pytest.raises(NotASPError):
            detect_asp(cube)

    def test_f_vector_matches_formula(self):
        for dns in [(3, 6, 1), (4, 8, 2), (5, 9, 2)]:
            p = ASPParams(*dns)
            geom = detect_asp(almost_cyclic_points(p))
            assert geometry_f_vector(geom).entries == f_almost_cyclic(p).entries


class TestPointBeyond:
    def test_tetrahedron_each_facet(self):
        geom = detect_asp(tetrahedron_config())
        geom = designate_special(geom, sorted(geom.facets[0].vertex_ids))
        for f in geom.facets:
            y = point_beyond(geom, f)
            assert f.eval_at(y) < 0
            for g in geom.facets:
                if g is not f:
                    assert g.eval_at(y) > 0

    def test_frozen_points(self):
        # The longest step 2^-k that satisfies the beyond conditions.
        geom = detect_asp(tetrahedron_config())
        F = Fraction
        assert point_beyond(geom, geom.facet_by_vertices([1, 2, 3])) == (
            F(5, 12), F(5, 12), F(-1, 4)
        )
        assert point_beyond(geom, geom.facet_by_vertices([2, 3, 4])) == (F(5, 12),) * 3
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        assert point_beyond(geom, geom.special) == (
            F(-4097, 2048), F(12289, 2048), F(-40967, 2048), F(-19455, 1792)
        )

    def test_stacking_makes_simplicial(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        q = stack_over_special(geom)
        assert q.is_simplicial
        assert q.config.n == 8
        assert q.special is None

    def test_toward_weight_validated(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 1)))
        with pytest.raises(DomainError):
            point_beyond(geom, geom.special, toward=1, toward_weight=Fraction(1))

    def test_bad_facet_rejected(self):
        geom = detect_asp(tetrahedron_config())
        other = detect_asp(octahedron_config())
        with pytest.raises(NotAFaceError):
            point_beyond(geom, other.facets[0])

    def test_twin_hyperplane_is_degenerate(self):
        # A second, equal copy of the chosen facet can never be strictly
        # beneath a point beyond the first: no step length works.
        geom = detect_asp(tetrahedron_config())
        twin = replace(geom, facets=geom.facets + (replace(geom.facets[0]),))
        with pytest.raises(DegeneracyError, match="halvings"):
            point_beyond(twin, twin.facets[0])


class TestStackOverSpecial:
    @settings(deadline=None, max_examples=40)
    @given(stacking_cases())
    def test_matches_hull_enumeration(self, case):
        cell, toward, closeness = case
        geom = asp_geometry(*cell)
        fast = stack_over_special(geom, toward, closeness, cap=None)
        assert fast == stacked_by_enumeration(geom, toward, closeness)

    def test_explicit_cap(self):
        geom = asp_geometry(4, 8, 2)
        with pytest.raises(CapExceededError):
            stack_over_special(geom, cap=8)
        assert stack_over_special(geom, cap=9).config.n == 9

    def test_needs_special_facet(self):
        geom = detect_asp(almost_cyclic_points(ASPParams(4, 7, 0)))
        with pytest.raises(DomainError):
            stack_over_special(geom)


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
        p = ASPParams(4, 8, 2)
        geom = detect_asp(almost_cyclic_points(p))
        q = stack_over_special(geom)
        cert = line_shelling(q, seed=3)
        hq = h_from_shelling(cert)
        assert hq.entries == (1, 5, 10, 5, 1)
        hball = h_from_f(f_vector(geom.ball.ball))
        hbd = h_from_f(f_vector(boundary_of_ball(geom.ball.ball)))
        assert all(hq.h(k) == hball.h(k) + hbd.h(k - 1) for k in range(p.d + 1))

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
        # Values from the Fraction-arithmetic crossing kernel; the integer
        # kernel must order the facets identically.
        q = stack_over_special(asp_geometry(*cell))
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

    @pytest.mark.parametrize(
        "cell, v, seed, closeness, size, cert_digest, last_row",
        [
            ((4, 7, 1), 2, 5, 12, 17, "3617d9aadca2d4e4", (0, 0, 3, 2, 1)),
            ((4, 8, 1), 3, 0, 28, 23, "3652aca689633564", (0, 0, 5, 3, 1)),
            ((5, 9, 1), 2, 0, 40, 36, "c0cda50ca5fdd14f", (0, 0, 5, 6, 3, 1)),
            ((4, 7, 0), 1, 0, 20, 17, "f75b6ce6c3308f59", (0, 0, 3, 2, 1)),
        ],
    )
    def test_frozen_ladder(self, cell, v, seed, closeness, size, cert_digest, last_row):
        # The criterion-09 closeness ladder with search seed seed+closeness.
        # Values from the Fraction-arithmetic search that re-enumerated the
        # stacked hull and verified every line: the first closeness that
        # certifies, and a digest of the order and the defect table.
        geom = asp_geometry(*cell)
        y = cell[1] + 1
        ladder = (12, 20, 28, 40)
        for step in ladder[: ladder.index(closeness)]:
            q = stack_over_special(geom, toward=v, closeness=step)
            with pytest.raises(ShellingSearchError):
                constrained_line_shelling(q, y, v, seed=seed + step)
        q = stack_over_special(geom, toward=v, closeness=closeness)
        cert = constrained_line_shelling(q, y, v, seed=seed + closeness)
        defects = key_shelling_defects(cert, y, v)
        order = [sorted(f) for f in cert.order]
        payload = {"order": order, "defects": [list(r) for r in defects]}
        assert len(order) == size and digest(payload) == cert_digest
        assert defects[-1] == last_row

    def test_identical_vertices_rejected(self):
        geom = detect_asp(bipyramid_config())
        with pytest.raises(DomainError):
            constrained_line_shelling(geom, 4, 4, seed=1)

    def test_non_neighbor_rejected(self):
        geom = detect_asp(bipyramid_config())
        with pytest.raises(DomainError):
            constrained_line_shelling(geom, 4, 5, seed=1)


class TestMeasurements:
    def test_neighborliness_values(self):
        assert neighborliness(detect_asp(almost_cyclic_points(ASPParams(4, 8, 2)))) == 1
        assert neighborliness(detect_asp(almost_cyclic_points(ASPParams(5, 9, 2)))) == 2
        assert neighborliness(detect_asp(tetrahedron_config())) == 3

    def test_simpliciality_values(self):
        assert simpliciality(detect_asp(almost_cyclic_points(ASPParams(4, 8, 2)))) == 2
        assert simpliciality(detect_asp(octahedron_config())) == 2

    def test_interior_point_is_interior(self):
        geom = detect_asp(octahedron_config())
        b = interior_point(geom)
        assert all(f.eval_at(b) > 0 for f in geom.facets)

    def test_extend_config_ids(self):
        cfg = tetrahedron_config()
        bigger = extend_config(cfg, [Fraction(5), Fraction(5), Fraction(5)])
        assert bigger.n == 5
        assert bigger.points[-1][0] == 5
