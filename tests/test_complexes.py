"""Face enumeration, shelling verification, and decomposition tests.

Expected values for the small named complexes (simplex boundaries,
octahedron, bipyramids, stacked chains) were computed by hand from the
definitions and are frozen here.
"""

import hashlib
import json
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from aspoly import cli
from aspoly.complexes import (
    ASPComplex,
    SimplicialComplex,
    all_faces,
    boundary_of_ball,
    f_vector,
    h_from_shelling,
    induced,
    key_lemma_certificate,
    validate_asp,
    verify_shelling,
)
from aspoly.curves import almost_cyclic_points
from aspoly.enumerative import ASPParams, h_from_f
from aspoly.gale import almost_cyclic_facets
from aspoly.hull import asp_geometry, detect_asp, key_shelling_defects, line_shelling
from aspoly.stackgen import random_minimizer, recognize_minimizer
from aspoly.errors import (
    DomainError,
    PseudomanifoldError,
    ShapeError,
    ShellingError,
)
from oracles import (
    boundary_by_incidence,
    cell_decomposition_by_masks,
    cell_decomposition_per_split,
    cell_missing_by_masks,
    cell_missing_by_ridge_scan,
    f_vector_by_face_set,
    face_set,
    induced_pairwise,
    is_stacked_sphere,
    prime_decomposition,
    refined_frozenset_cells,
    refined_sphere,
    simplex_cell,
    stack_over,
    stacked_sphere,
    star_shelling_pairwise,
    verify_shelling_pairwise,
)


def simplex_boundary(m: int) -> SimplicialComplex:
    """Boundary of the simplex on vertices 1..m+1."""
    verts = range(1, m + 2)
    return SimplicialComplex.from_facets(combinations(verts, m))


def octahedron() -> SimplicialComplex:
    """Octahedron boundary with opposite pairs (1,2), (3,4), (5,6)."""
    return SimplicialComplex.from_facets(
        [a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)
    )


def triangle_bipyramid() -> SimplicialComplex:
    return SimplicialComplex.from_facets(
        [[1, 2, 7], [2, 3, 7], [3, 1, 7], [1, 2, 8], [2, 3, 8], [3, 1, 8]]
    )


def square_pyramid_ball() -> SimplicialComplex:
    """Boundary of an egyptian pyramid minus the square base (apex 5)."""
    return SimplicialComplex.from_facets([[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5]])


class TestBasicQueries:
    def test_all_faces_single_triangle(self):
        c = SimplicialComplex.from_facets([[1, 2, 3]])
        assert all_faces(c, 1) == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }
        assert all_faces(c, -1) == {frozenset()}

    def test_all_faces_out_of_range(self):
        c = simplex_boundary(3)
        with pytest.raises(DomainError):
            all_faces(c, 3)
        assert len(all_faces(c, 0)) == 4

    def test_mixed_facet_sizes_rejected(self):
        with pytest.raises(ShapeError):
            SimplicialComplex.from_facets([[1, 2], [3, 4, 5]])

    def test_sequence_facets_are_sized_as_sets(self):
        # A frozenset grown from a list or tuple of five or more vertices
        # takes twice the hash slots of one made from a set (sys.getsizeof
        # on CPython); the builders and the artifact loader hand over lists
        # and tuples, and a frozenset comes through as the same object.
        # The facets detect_asp enumerates, and its ball, are sized as sets too.
        asp = random_minimizer(ASPParams(5, 9, 2), 0)
        data = json.loads(json.dumps({"complex": asp.to_json()}))
        loaded = cli._load_artifact(data, unsafe_large=False).asp
        rows = [sorted(f) for f in asp.ball.facets]
        geom = detect_asp(almost_cyclic_points(ASPParams(6, 12, 2)))
        for facets in (
            SimplicialComplex.from_facets(rows).facets,
            SimplicialComplex.from_facets(map(tuple, rows)).facets,
            asp.ball.facets,
            loaded.ball.facets,
            [f.vertex_ids for f in geom.facets],
            geom.ball.ball.facets,
        ):
            assert all(sys.getsizeof(f) <= sys.getsizeof(frozenset(set(f))) for f in facets)
        assert loaded.ball == asp.ball
        facet = frozenset(range(1, 7))
        assert next(iter(SimplicialComplex.from_facets([facet]).facets)) is facet

    def test_f_vector_simplex_boundary(self):
        assert f_vector(simplex_boundary(3)).entries == (1, 4, 6, 4)

    def test_f_vector_octahedron(self):
        assert f_vector(octahedron()).entries == (1, 6, 12, 8)

    def test_induced_equator_is_square(self):
        sq = induced(octahedron(), [3, 4, 5, 6])
        assert sq.dim == 1
        assert sq.facets == frozenset(
            frozenset(e) for e in [(3, 5), (3, 6), (4, 5), (4, 6)]
        )

    def test_induced_nonpure_rejected(self):
        c = SimplicialComplex.from_facets([[1, 2, 3], [3, 4, 5]])
        with pytest.raises(DomainError):
            induced(c, [1, 2, 3, 4])


class TestBoundary:
    def test_solid_simplex_boundary(self):
        solid = SimplicialComplex.from_facets([[1, 2, 3, 4]])
        assert boundary_of_ball(solid).facets == simplex_boundary(3).facets
        assert boundary_of_ball(solid).n_facets == 4

    def test_two_glued_tetrahedra(self):
        c = SimplicialComplex.from_facets([[1, 2, 3, 4], [2, 3, 4, 5]])
        bd = boundary_of_ball(c)
        assert bd.n_facets == 6
        assert frozenset({2, 3, 4}) not in bd.facets

    def test_fat_ridge_rejected(self):
        c = SimplicialComplex.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
        with pytest.raises(PseudomanifoldError):
            boundary_of_ball(c)

    def test_least_fat_ridge_named(self):
        # [2, 3] lies in four facets and [1, 9] in three; the message names
        # the face_key-least fat ridge and its own count.
        c = SimplicialComplex.from_facets(
            [[2, 3, 4], [2, 3, 5], [2, 3, 6], [2, 3, 7], [1, 9, 4], [1, 9, 5], [1, 9, 6]]
        )
        with pytest.raises(PseudomanifoldError, match=r"^ridge \[1, 9\] lies in 3 facets$"):
            boundary_of_ball(c)

    @pytest.mark.parametrize("cell", [(6, 12, 2), (7, 14, 3)])
    def test_boundary_facets_are_set_sized(self, cell):
        # A frozenset grown from 5 or more vertices one by one can take
        # twice the hash slots of one made from a set; at d >= 6 the
        # boundary's facets have d - 1 >= 5 vertices.
        p = ASPParams(*cell)
        for ball in (detect_asp(almost_cyclic_points(p)).ball.ball, random_minimizer(p, 0).ball):
            bd = boundary_of_ball(ball)
            assert bd.facets and bd.dim == p.d - 2
            for f in bd.facets:
                assert sys.getsizeof(f) == sys.getsizeof(frozenset(set(f)))

    def test_closed_sphere_has_empty_boundary(self):
        assert boundary_of_ball(octahedron()).facets == frozenset()


class TestShelling:
    def test_simplex_boundary_reference_order(self):
        c = simplex_boundary(3)
        order = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
        cert = verify_shelling(c, order)
        assert cert.restriction == (
            frozenset(),
            frozenset({4}),
            frozenset({3, 4}),
            frozenset({2, 3, 4}),
        )
        assert h_from_shelling(cert).entries == (1, 1, 1, 1)

    def test_single_facet(self):
        c = SimplicialComplex.from_facets([[1, 2, 3, 4]])
        cert = verify_shelling(c, [[1, 2, 3, 4]])
        assert h_from_shelling(cert).entries == (1, 0, 0, 0, 0)

    def test_path_disconnected_prefix_fails_with_step(self):
        c = SimplicialComplex.from_facets([[1, 2], [2, 3], [3, 4]])
        with pytest.raises(ShellingError) as ei:
            verify_shelling(c, [[1, 2], [3, 4], [2, 3]])
        assert ei.value.step == 2

    def test_path_connected_order_passes(self):
        c = SimplicialComplex.from_facets([[1, 2], [2, 3], [3, 4]])
        cert = verify_shelling(c, [[2, 3], [1, 2], [3, 4]])
        assert h_from_shelling(cert).entries == (1, 2, 0)

    def test_octahedron_shelling_matches_h_from_f(self):
        c = octahedron()
        order = sorted(c.facets, key=lambda f: tuple(sorted(f)))
        cert = verify_shelling(c, order)
        assert h_from_shelling(cert).entries == h_from_f(f_vector(c)).entries == (
            1,
            3,
            3,
            1,
        )

    def test_failure_names_the_first_bad_intersection(self):
        # {2, 4, 5} shares no ridge with the two facets before it; the
        # message names its intersection with the first of them.
        c = octahedron()
        first = [{1, 3, 5}, {1, 3, 6}, {2, 4, 5}]
        order = first + [f for f in c.sorted_facets() if f not in first]
        with pytest.raises(ShellingError, match=r"meets earlier facets in \[5\]") as ei:
            verify_shelling(c, order)
        assert ei.value.step == 3

    def test_order_must_be_permutation(self):
        c = simplex_boundary(3)
        with pytest.raises(DomainError):
            verify_shelling(c, [[1, 2, 3], [1, 2, 4]])

    def test_prefix_h_accumulates(self):
        c = simplex_boundary(3)
        order = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
        cert = verify_shelling(c, order)
        assert [len(r) for r in cert.restriction] == [0, 1, 2, 3]
        assert h_from_shelling(cert).entries == (1, 1, 1, 1)


def decompose(sphere: SimplicialComplex):
    """prime_decomposition's factors, with the cut tree of the same split.

    The tree comes from _cell_decomposition on the sphere's facets as
    simplex cells, the split prime_decomposition runs.
    """
    cells = [simplex_cell(g) for g in sphere.sorted_facets()]
    _, tree_edges = cell_decomposition_by_masks(cells, sphere.dim + 1)
    return prime_decomposition(sphere), tree_edges


class TestMissingFacesAndDecomposition:
    def test_octahedron_diagonals(self):
        # Its missing faces are the diagonals, edges: no missing triangle
        # cuts it, and it is prime.
        c = octahedron()
        pairs = set(map(frozenset, combinations(c.vertex_ids, 2)))
        assert pairs - all_faces(c, 1) == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})}
        assert decompose(c) == ((c,), [])

    def test_simplex_boundary_has_no_missing_simplex(self):
        assert cell_missing_by_masks(*sphere_cells(simplex_boundary(4))) == []

    def test_bipyramid_missing_triangle(self):
        assert cell_missing_by_masks(*sphere_cells(triangle_bipyramid())) == [frozenset({1, 2, 3})]

    def test_bipyramid_decomposition(self):
        factors, tree_edges = decompose(triangle_bipyramid())
        assert len(factors) == 2
        assert len(tree_edges) == 1
        i, j, a = tree_edges[0]
        assert a == frozenset({1, 2, 3})
        for f in factors:
            assert f.n_facets == 4 and len(f.vertex_ids) == 4
            assert a in f.facets

    def test_simplex_boundary_is_prime(self):
        c = simplex_boundary(3)
        factors, tree_edges = decompose(c)
        assert factors == (c,)
        assert tree_edges == []

    def test_stacked_chain_three_factors(self):
        # stack twice: on 234 with vertex 5, then on 345 with vertex 6
        facets = [
            [1, 2, 3],
            [1, 2, 4],
            [1, 3, 4],
            [2, 3, 5],
            [2, 4, 5],
            [3, 4, 6],
            [3, 5, 6],
            [4, 5, 6],
        ]
        c = SimplicialComplex.from_facets(facets)
        factors, tree_edges = decompose(c)
        assert len(factors) == 3
        assert {a for _, _, a in tree_edges} == {
            frozenset({2, 3, 4}),
            frozenset({3, 4, 5}),
        }
        total = sum(f.n_facets for f in factors)
        assert total == c.n_facets + 2 * len(tree_edges)
        assert is_stacked_sphere(c)

    def test_stacked_recognition(self):
        assert is_stacked_sphere(simplex_boundary(3))
        assert is_stacked_sphere(simplex_boundary(4))
        assert not is_stacked_sphere(octahedron())

    def test_decomposition_rejects_boundary(self):
        ball = SimplicialComplex.from_facets([[1, 2, 3], [2, 3, 4]])
        with pytest.raises(PseudomanifoldError):
            prime_decomposition(ball)


@st.composite
def stacked_spheres(draw):
    d = draw(st.integers(3, 7))
    picks = draw(st.lists(st.integers(0, 10**6), max_size=5))
    # stacking adds d - 1 facets to the d + 1 of the simplex boundary
    moves = tuple(k % (d + 1 + i * (d - 1)) for i, k in enumerate(picks))
    return stacked_sphere(d, d + 1 + len(picks), moves)


@st.composite
def special_facet_boundaries(draw):
    d, s = draw(st.integers(4, 7)), draw(st.integers(0, 3))
    n = d + s + 1 + draw(st.integers(0, 2))
    style = draw(st.sampled_from(["stack", "hstack"]))
    asp = random_minimizer(ASPParams(d, n, s), draw(st.integers(0, 10**6)), style=style)
    return boundary_of_ball(asp.ball)


@st.composite
def cyclic_spheres(draw):
    d = draw(st.integers(3, 6))
    n = draw(st.integers(d + 1, d + 5))
    return SimplicialComplex.from_facets(almost_cyclic_facets(ASPParams(d, n, 0)))


class TestASPComplex:
    def test_validate_octahedron_minus_facet(self):
        ball = SimplicialComplex.from_facets(
            f for f in octahedron().facets if f != frozenset({1, 3, 5})
        )
        asp = ASPComplex(ASPParams(3, 6, 0), ball, frozenset({1, 3, 5}))
        validate_asp(asp)
        assert asp.f_polytope().entries == (1, 6, 12, 8)

    def test_validate_square_pyramid(self):
        asp = ASPComplex(ASPParams(3, 5, 1), square_pyramid_ball(), frozenset({1, 2, 3, 4}))
        validate_asp(asp)
        assert asp.f_polytope().entries == (1, 5, 8, 5)

    def test_wrong_special_facet_rejected(self):
        # {1,2,3,5} contains whole ball facets, so its induced complex is
        # 2-dimensional and cannot equal the 1-dimensional boundary
        asp = ASPComplex(ASPParams(3, 5, 1), square_pyramid_ball(), frozenset({1, 2, 3, 5}))
        with pytest.raises(ShapeError):
            validate_asp(asp)

    def test_json_roundtrip(self):
        asp = ASPComplex(ASPParams(3, 5, 1), square_pyramid_ball(), frozenset({1, 2, 3, 4}))
        again = ASPComplex.from_json(asp.to_json())
        assert again == asp


TRIPLES = [frozenset(t) for t in combinations(range(1, 8), 3)]


@st.composite
def small_pure_complexes(draw):
    facets = draw(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=6, unique=True))
    return SimplicialComplex.from_facets(facets)


@st.composite
def pure_complexes(draw):
    """Pure complexes of dimension 0..3 on vertices 1..8."""
    k = draw(st.integers(1, 4))
    faces = [frozenset(t) for t in combinations(range(1, 9), k)]
    return SimplicialComplex.from_facets(
        draw(st.lists(st.sampled_from(faces), min_size=1, max_size=10, unique=True))
    )


class TestProperties:
    @given(small_pure_complexes())
    def test_induced_on_all_vertices_is_identity(self, c):
        assert induced(c, c.vertex_ids) == c

    @given(pure_complexes(), st.frozensets(st.integers(1, 9)))
    @example(SimplicialComplex.from_facets([[1, 2, 3], [3, 4, 5]]), frozenset({1, 2, 3, 4}))
    @settings(max_examples=300, deadline=None)
    def test_induced_matches_pairwise(self, c, vertices):
        # Same complex, or the same non-pure refusal text.
        def outcome(build):
            try:
                return build(c, vertices)
            except DomainError as exc:
                return str(exc)

        assert outcome(induced) == outcome(induced_pairwise)

    @given(st.permutations(list(simplex_boundary(3).facets)))
    def test_any_simplex_boundary_order_shells(self, order):
        cert = verify_shelling(simplex_boundary(3), order)
        assert h_from_shelling(cert).entries == (1, 1, 1, 1)

    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_path_orders_valid_iff_prefixes_connected(self, m, data):
        edges = [[i, i + 1] for i in range(1, m + 1)]
        order = data.draw(st.permutations(edges))
        idx = [e[0] for e in order]
        expected = all(
            max(idx[: j + 1]) - min(idx[: j + 1]) == j for j in range(len(order))
        )
        c = SimplicialComplex.from_facets(edges)
        if expected:
            cert = verify_shelling(c, order)
            assert sum(h_from_shelling(cert).entries) == len(edges)
        else:
            with pytest.raises(ShellingError):
                verify_shelling(c, order)

    @given(small_pure_complexes())
    def test_face_counts_sum(self, c):
        fv = f_vector(c)
        total = sum(fv.entries)
        assert total == sum(len(all_faces(c, k)) for k in range(-1, c.dim + 1))


@st.composite
def facet_orders(draw):
    """A complex and an order of its facets: shuffled, or grown across shared ridges."""
    c = draw(st.one_of(stacked_spheres(), cyclic_spheres(), small_pure_complexes()))
    rng = random.Random(draw(st.integers(0, 10**6)))
    facets = c.sorted_facets()
    rng.shuffle(facets)
    if draw(st.booleans()):
        # Each next facet shares a ridge with an earlier one where it can,
        # which gives a shelling far more often than a shuffle does.
        order = [facets.pop()]
        while facets:
            near = [f for f in facets if any(len(f & g) == c.dim for g in order)]
            pick = rng.choice(near or facets)
            facets.remove(pick)
            order.append(pick)
        facets = order
    return c, facets


@st.composite
def relabelled_orders(draw):
    """A complex and a facet order, on its own ids or on far-apart, possibly negative ones.

    The order is a line shelling of a cyclic polytope's boundary, its
    reversal, or one of facet_orders' shuffled and grown orders; the ids
    are kept or sent to distinct integers anywhere in [-10^12, 10^12].
    The order may drop or repeat a facet, which must be refused.
    """
    kind = draw(st.sampled_from(["line", "reversed", "shuffled or grown"]))
    if kind == "shuffled or grown":
        c, order = draw(facet_orders())
    else:
        d = draw(st.integers(3, 5))
        geom = detect_asp(almost_cyclic_points(ASPParams(d, draw(st.integers(d + 1, d + 5)), 0)))
        cert = line_shelling(geom, draw(st.integers(0, 10**6)))
        c, order = cert.complex, list(cert.order)
        if kind == "reversed":
            order.reverse()
    if draw(st.booleans()):
        ids = c.vertex_ids
        size = len(ids)
        labels = st.integers(-(10**12), 10**12)
        relabel = dict(zip(ids, draw(st.lists(labels, min_size=size, max_size=size, unique=True))))
        c = SimplicialComplex.from_facets([relabel[x] for x in f] for f in c.facets)
        order = [[relabel[x] for x in f] for f in order]
    broken = draw(st.sampled_from([None, None, "drop", "repeat"]))
    if broken == "drop":
        order.pop()
    elif broken == "repeat":
        order[-1] = order[0]
    return c, order


def shelling_outcome(check, c, order):
    """The certificate, or the refusal's type, step and message."""
    try:
        return check(c, order)
    except ShellingError as exc:
        return "ShellingError", exc.step, str(exc)
    except DomainError as exc:
        return "DomainError", str(exc)


class TestShellingMatchesFrozensets:
    """verify_shelling's ridge masks over vertex ranks against the pairwise
    oracle's frozensets of ids, on the complexes' own ids and on ids far
    apart and negative."""

    @settings(deadline=None, max_examples=400)
    @given(relabelled_orders())
    def test_same_certificate_or_refusal(self, case):
        # Ridges as masks over vertex ranks: the same restriction faces as
        # frozensets of ids, and the same type, step and text when refused
        # (dropped and repeated facets too).
        c, order = case
        got = shelling_outcome(verify_shelling, c, order)
        assert got == shelling_outcome(verify_shelling_pairwise, c, order)

    def test_negative_ids_refused_with_the_same_text(self):
        # The octahedron with ids 1..6 sent to -6, -4, ..., 4: the order of
        # test_failure_names_the_first_bad_intersection fails at step 3.
        relabel = {x: 2 * x - 8 for x in range(1, 7)}
        c = SimplicialComplex.from_facets([relabel[x] for x in f] for f in octahedron().facets)
        first = [{-6, -2, 2}, {-6, -2, 4}, {-4, 0, 2}]
        order = first + [f for f in c.sorted_facets() if f not in first]
        got = shelling_outcome(verify_shelling, c, order)
        assert got == (
            "ShellingError",
            3,
            "shelling condition fails at step 3: facet [-4, 0, 2] meets earlier "
            "facets in [2], not inside any old ridge",
        )
        assert got == shelling_outcome(verify_shelling_pairwise, c, order)


@st.composite
def minimizer_balls(draw):
    d, s = draw(st.integers(4, 7)), draw(st.integers(0, 3))
    n = d + s + 1 + draw(st.integers(0, 3))
    style = draw(st.sampled_from(["stack", "hstack"]))
    return random_minimizer(ASPParams(d, n, s), draw(st.integers(0, 10**6)), style=style)


def sphere_cells(sphere):
    return [simplex_cell(g) for g in sphere.sorted_facets()], sphere.dim + 1


@st.composite
def cyclic_asps(draw):
    """A cyclic ASP.  For d >= 5 every two vertices share a cell, so the
    adjacency masks prune no candidate, and with s >= 1 the special facet
    stays one polyhedral cell."""
    d, s = draw(st.integers(4, 6)), draw(st.integers(0, 3))
    p = ASPParams(d, d + s + 1 + draw(st.integers(0, 3)), s)
    ball = SimplicialComplex.from_facets(almost_cyclic_facets(p)[1:])
    return ASPComplex(p, ball, frozenset(range(1, d + s + 1)))


@st.composite
def stacked_cyclic_asps(draw):
    """A cyclic ASP stacked over up to three ball facets, F untouched: a new
    vertex shares a cell with only d others, and the stacked simplices
    split off as prime factors of the refined sphere."""
    asp = draw(cyclic_asps())
    for k in draw(st.lists(st.integers(0, 10**6), max_size=3)):
        asp = stack_over(asp, k % asp.ball.n_facets)
    return asp


def refined_cells(asp):
    return refined_frozenset_cells(asp), asp.params.d


SPHERES = st.one_of(stacked_spheres(), special_facet_boundaries(), cyclic_spheres())
CELL_LISTS = st.one_of(
    SPHERES.map(sphere_cells),
    st.one_of(minimizer_balls(), stacked_cyclic_asps()).map(refined_cells),
)


class TestIndexedMatchesOracles:
    """The indexed searches, decomposition and face counts against tests/oracles.py.

    The bitmask search and decomposition are compared with the ridge scan
    and the per-split decomposition, which scans every part afresh.
    """

    @settings(max_examples=60, deadline=None)
    @given(CELL_LISTS)
    def test_missing_simplices(self, cells_d):
        cells, d = cells_d
        assert cell_missing_by_masks(cells, d) == cell_missing_by_ridge_scan(cells, d)

    @settings(max_examples=60, deadline=None)
    @given(CELL_LISTS)
    def test_decomposition(self, cells_d):
        cells, d = cells_d
        assert cell_decomposition_by_masks(cells, d) == cell_decomposition_per_split(cells, d)

    @pytest.mark.parametrize("style", ["stack", "hstack"])
    @pytest.mark.parametrize("cell", [(4, 70, 2), (6, 66, 3), (5, 80, 1)])
    def test_decomposition_past_64_vertices(self, cell, style):
        # 200 to 302 cells on 66 to 80 vertices: every mask is wider than
        # 64 bits.
        cells, d = refined_cells(random_minimizer(ASPParams(*cell), 0, style=style))
        assert cell_decomposition_by_masks(cells, d) == cell_decomposition_per_split(cells, d)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(SPHERES, minimizer_balls().map(lambda asp: asp.ball), small_pure_complexes()))
    def test_face_counts(self, c):
        assert f_vector(c) == f_vector_by_face_set(c)
        faces = face_set(c)
        for k in range(-1, c.dim + 1):
            assert all_faces(c, k) == {f for f in faces if len(f) == k + 1}

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(SPHERES, minimizer_balls().map(lambda asp: asp.ball), small_pure_complexes()))
    def test_boundary(self, c):
        try:
            expected = boundary_by_incidence(c)
        except PseudomanifoldError:
            with pytest.raises(PseudomanifoldError):
                boundary_of_ball(c)
        else:
            assert boundary_of_ball(c) == expected

    def test_fat_ridge_rejected(self):
        fat = SimplicialComplex.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5], [3, 4, 5]])
        with pytest.raises(PseudomanifoldError):
            prime_decomposition(fat)
        with pytest.raises(PseudomanifoldError):
            cell_decomposition_by_masks(*sphere_cells(fat))


class TestPrimeDecompositionMatchesScan:
    """prime_decomposition, through _prime_cells, against the per-split
    decomposition, which scans every part afresh for its missing simplices."""

    @settings(max_examples=40, deadline=None)
    @given(SPHERES)
    def test_same_factors_and_cuts(self, sphere):
        factors, cuts = cell_decomposition_per_split(*sphere_cells(sphere))
        got, tree_edges = decompose(sphere)
        assert got == tuple(SimplicialComplex.from_facets(c.vertices for c in f) for f in factors)
        assert tree_edges == cuts

    def test_stacked_spheres_split_into_simplices(self):
        for d in range(3, 8):
            sphere = stacked_sphere(d, d + 4, (0, 2, 5))
            factors, tree_edges = decompose(sphere)
            assert len(factors) == 4 and len(tree_edges) == 3
            assert is_stacked_sphere(sphere)


def certified_without_negative_defect(asp, v) -> bool:
    cert = key_lemma_certificate(asp, v)
    if cert is None:
        return False
    defects = key_shelling_defects(cert, asp.params.n + 1, v)
    return min(x for row in defects for x in row) >= 0


class TestKeyLemmaCertificate:
    """key_lemma_certificate: st(y), then st(v), first on Q, read off the complex alone."""

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(cyclic_asps(), minimizer_balls()), st.data())
    def test_matches_the_pairwise_oracle(self, asp, data):
        # Q is the ball plus y = n+1 over F's boundary: the same order and
        # restriction faces as the pairwise greedy search, or None where
        # that search is stuck.
        v = data.draw(st.sampled_from(sorted(asp.special_facet)))
        y = asp.params.n + 1
        cones = [r | {y} for r in boundary_of_ball(asp.ball).facets]
        q = SimplicialComplex.from_facets([*asp.ball.facets, *cones])
        try:
            expected = star_shelling_pairwise(q, y, v)
        except ShellingError:
            expected = None
        assert key_lemma_certificate(asp, v) == expected

    def test_v_off_the_special_facet_refused(self):
        # An h-stacked minimizer's special facet is not {1..d+s}; a v off it
        # is refused by name, as stack_over_special(toward=v) refuses it.
        asp = random_minimizer(ASPParams(5, 10, 2), seed=0, style="hstack")
        v = min(set(range(1, 8)) - asp.special_facet)
        with pytest.raises(DomainError, match=f"vertex {v} is not on the special facet"):
            key_lemma_certificate(asp, v)

    def test_stuck_search_gives_none(self):
        # The ball is a tetrahedron boundary less F = {1, 2, 3}, plus a
        # second, disjoint tetrahedron boundary: after st(y) and st(v) and
        # {2, 3, 4}, no facet of the second meets an earlier one in a ridge.
        ball = [f for f in simplex_boundary(3).facets if f != {1, 2, 3}]
        ball += [frozenset(x + 4 for x in f) for f in simplex_boundary(3).facets]
        asp = ASPComplex(ASPParams(3, 8, 0), SimplicialComplex.from_facets(ball), frozenset({1, 2, 3}))
        validate_asp(asp)
        assert key_lemma_certificate(asp, 1) is None

    def test_every_v_past_the_caps(self):
        # Every vertex of F in four cyclic cells past the criterion grid.
        pairs = [
            (asp, v)
            for cell in ((4, 22, 1), (6, 16, 2), (4, 40, 1), (4, 60, 1))
            for asp in [asp_geometry(almost_cyclic_points(ASPParams(*cell)), range(1, 5)).ball]
            for v in sorted(asp.special_facet)
        ]
        assert len(pairs) == 23
        assert all(certified_without_negative_defect(asp, v) for asp, v in pairs)

    def test_every_minimizer_pair_on_the_acceptance_grid(self):
        # Criterion 09's fact on the second family: every (minimizer, v)
        # pair of the acceptance grid with d 4..6, both styles, seeded as
        # the gate seeds its minimizers.
        from test_acceptance import GRID

        pairs = [
            (asp, v)
            for d, n, s in GRID
            if d >= 4
            for style in ("stack", "hstack")
            for asp in [random_minimizer(ASPParams(d, n, s), seed=d * 1000 + n * 10 + s, style=style)]
            for v in sorted(asp.special_facet)
        ]
        assert len(pairs) == 780
        assert all(certified_without_negative_defect(asp, v) for asp, v in pairs)


def frozen_minimizer_records():
    """Decompositions, verdicts and f-vectors of seeded minimizers.

    One record per (d, n, s, style, seed) for d 4..6, n 12..16, s 0..3,
    both styles and seeds 0..2: the prime factors (sorted facets, in
    factor order) and tree edges of the special facet's boundary and of
    the refined sphere (ball plus the vertex sets of the boundary's prime
    factors), the recognizer's verdict JSON, and the ball and boundary
    f-vectors.
    """

    def decomposition(sphere):
        factors, tree_edges = decompose(sphere)
        return [
            [[sorted(g) for g in f.sorted_facets()] for f in factors],
            [[i, j, sorted(a)] for i, j, a in tree_edges],
        ]

    out = []
    for d in range(4, 7):
        for n in range(12, 17):
            for s in range(4):
                for style in ("stack", "hstack"):
                    for seed in range(3):
                        asp = random_minimizer(ASPParams(d, n, s), seed, style=style)
                        bd = boundary_of_ball(asp.ball)
                        out.append([
                            d, n, s, style, seed,
                            decomposition(bd),
                            decomposition(refined_sphere(asp)),
                            recognize_minimizer(asp).to_json(),
                            list(f_vector(asp.ball).entries),
                            list(f_vector(bd).entries),
                        ])
    return out


def test_frozen_minimizer_digest():
    # SHA-256 of the records' sorted-key JSON, captured before the
    # missing-simplex search, the decomposition and the face counts were
    # indexed; the spot values make a diff readable.
    records = frozen_minimizer_records()
    assert len(records) == 360
    assert records[0][:5] == [4, 12, 0, "stack", 0]
    assert records[0][8:] == [[1, 12, 38, 52, 25], [1, 4, 6, 4]]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "f5e1763d9676af3fbe4fb6de06c5854b5904f2b296a6aab9f4047f07d532aae4"
