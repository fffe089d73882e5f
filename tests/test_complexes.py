"""Face enumeration, shelling verification, and decomposition tests.

Expected values for the small named complexes (simplex boundaries,
octahedron, bipyramids, stacked chains) were computed by hand from the
definitions and are frozen here.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from aspoly.complexes import (
    ASPComplex,
    SimplicialComplex,
    all_faces,
    boundary_of_ball,
    f_vector,
    h_from_shelling,
    induced,
    is_closed_pseudomanifold,
    prime_decomposition,
    validate_asp,
    verify_shelling,
)
from aspoly.enumerative import ASPParams, h_from_f
from aspoly.gale import almost_cyclic_facets
from aspoly.stackgen import random_minimizer, recognize_minimizer
from aspoly.errors import (
    DegeneracyError,
    DomainError,
    PseudomanifoldError,
    RefinementError,
    ShapeError,
    ShellingError,
)
from oracles import (
    boundary_by_incidence,
    cell_decomposition_by_frozensets,
    cell_decomposition_by_masks,
    cell_decomposition_per_split,
    cell_missing_by_extension_index,
    cell_missing_by_masks,
    cell_missing_by_ridge_scan,
    f_vector_by_face_set,
    face_set,
    is_stacked_sphere,
    refined_frozenset_cells,
    ridge_incidence,
    simplex_cell,
    stacked_sphere,
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

    def test_closed_sphere_has_empty_boundary(self):
        assert boundary_of_ball(octahedron()).facets == frozenset()
        assert is_closed_pseudomanifold(octahedron())


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


def missing_faces(c: SimplicialComplex, k: int) -> frozenset[frozenset[int]]:
    """Oracle: minimal non-faces of dimension k, scanning all C(n, k+1) sets."""
    faces = {frozenset()} | {
        frozenset(s) for g in c.facets for j in range(1, len(g) + 1) for s in combinations(g, j)
    }
    out = []
    for cand in combinations(c.vertex_ids, k + 1):
        a = frozenset(cand)
        if a not in faces and all(a - {x} in faces for x in a):
            out.append(a)
    return frozenset(out)


def split_along(c: SimplicialComplex, a: frozenset[int]):
    """Oracle: cut a sphere along a missing facet-size face into two spheres."""
    cut_ridges = {a - {x} for x in a}
    adj = {g: [] for g in c.facets}
    for ridge, fs in ridge_incidence(c).items():
        if len(fs) == 2 and ridge not in cut_ridges:
            adj[fs[0]].append(fs[1])
            adj[fs[1]].append(fs[0])
    seen = set()
    components = []
    for g in c.sorted_facets():
        if g in seen:
            continue
        comp = {g}
        stack = [g]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        components.append(comp)
    assert len(components) == 2, f"cutting along {sorted(a)} gave {len(components)} parts"
    return tuple(SimplicialComplex.from_facets(side | {a}) for side in components)


def prime_decomposition_by_scan(sphere: SimplicialComplex):
    """Oracle: (factor facet sets, cut faces), rescanning every part for missing faces."""
    factors, cuts = [], []

    def decompose(cx):
        missing = sorted(missing_faces(cx, cx.dim), key=sorted)
        if not missing:
            factors.append(cx.facets)
            return
        cuts.append(missing[0])
        for part in split_along(cx, missing[0]):
            decompose(part)

    decompose(sphere)
    return factors, cuts


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
        diag = missing_faces(octahedron(), 1)
        assert diag == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})}

    def test_simplex_boundary_has_no_small_missing_faces(self):
        c = simplex_boundary(4)
        for k in range(0, 4):
            assert missing_faces(c, k) == frozenset()
        assert missing_faces(c, 4) == {frozenset(range(1, 6))}

    def test_bipyramid_missing_triangle(self):
        assert missing_faces(triangle_bipyramid(), 2) == {frozenset({1, 2, 3})}

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


class TestPrimeDecompositionMatchesScan:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(stacked_spheres(), special_facet_boundaries(), cyclic_spheres()))
    def test_same_factors_and_cuts(self, sphere):
        factors, cuts = prime_decomposition_by_scan(sphere)
        got, tree_edges = decompose(sphere)
        assert {f.facets for f in got} == set(factors)
        assert len(got) == len(factors)
        assert {a for _, _, a in tree_edges} == set(cuts)
        assert len(tree_edges) == len(cuts)
        for i, j, a in tree_edges:
            assert a in got[i].facets and a in got[j].facets

    def test_stacked_spheres_split_into_simplices(self):
        for d in range(3, 8):
            sphere = stacked_sphere(d, d + 4, (0, 2, 5))
            factors, cuts = prime_decomposition_by_scan(sphere)
            assert len(factors) == 4 and len(cuts) == 3
            assert is_stacked_sphere(sphere)


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

    def test_refine_square_pyramid(self):
        # A triangulation filling the base boundary is accepted, and the
        # ball with the base replaced by it is a stacked sphere.
        tri = SimplicialComplex.from_facets([[1, 2, 4], [2, 3, 4]])
        asp = ASPComplex(ASPParams(3, 5, 1), square_pyramid_ball(), frozenset({1, 2, 3, 4}), tri)
        assert validate_asp(asp) == boundary_of_ball(tri)
        sphere = SimplicialComplex.from_facets(asp.ball.facets | tri.facets)
        assert sphere.n_facets == 6
        assert is_closed_pseudomanifold(sphere)
        assert is_stacked_sphere(sphere)

    def test_refine_rejects_foreign_vertices(self):
        tri = SimplicialComplex.from_facets([[1, 2, 5], [2, 3, 5]])
        asp = ASPComplex(ASPParams(3, 5, 1), square_pyramid_ball(), frozenset({1, 2, 3, 4}), tri)
        with pytest.raises(RefinementError, match="outside the special facet"):
            validate_asp(asp)

    def test_refine_rejects_boundary_mismatch(self):
        tri = SimplicialComplex.from_facets([[1, 2, 3]])
        asp = ASPComplex(ASPParams(3, 5, 1), square_pyramid_ball(), frozenset({1, 2, 3, 4}), tri)
        with pytest.raises(RefinementError, match="does not match"):
            validate_asp(asp)

    def test_json_roundtrip(self):
        asp = ASPComplex(
            ASPParams(3, 5, 1),
            square_pyramid_ball(),
            frozenset({1, 2, 3, 4}),
            SimplicialComplex.from_facets([[1, 2, 4], [2, 3, 4]]),
        )
        again = ASPComplex.from_json(asp.to_json())
        assert again == asp


TRIPLES = [frozenset(t) for t in combinations(range(1, 8), 3)]


@st.composite
def small_pure_complexes(draw):
    facets = draw(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=6, unique=True))
    return SimplicialComplex.from_facets(facets)


class TestProperties:
    @given(small_pure_complexes())
    def test_induced_on_all_vertices_is_identity(self, c):
        assert induced(c, c.vertex_ids) == c

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


class TestShellingMatchesPairwise:
    @settings(deadline=None, max_examples=200)
    @given(facet_orders())
    def test_same_certificate_or_failing_step(self, case):
        c, order = case
        outcomes = []
        for check in (verify_shelling, verify_shelling_pairwise):
            try:
                outcomes.append(check(c, order))
            except ShellingError as exc:
                outcomes.append(exc.step)
        assert outcomes[0] == outcomes[1]


@st.composite
def minimizer_balls(draw):
    d, s = draw(st.integers(4, 7)), draw(st.integers(0, 3))
    n = d + s + 1 + draw(st.integers(0, 3))
    style = draw(st.sampled_from(["stack", "hstack"]))
    return random_minimizer(ASPParams(d, n, s), draw(st.integers(0, 10**6)), style=style)


def sphere_cells(sphere):
    return [simplex_cell(g) for g in sphere.sorted_facets()], sphere.dim + 1


def refined_cells(asp):
    return refined_frozenset_cells(asp), asp.params.d


SPHERES = st.one_of(stacked_spheres(), special_facet_boundaries(), cyclic_spheres())
CELL_LISTS = st.one_of(SPHERES.map(sphere_cells), minimizer_balls().map(refined_cells))


class TestIndexedMatchesOracles:
    """The indexed searches, decomposition and face counts against tests/oracles.py.

    The bitmask search and decomposition are compared with the ridge scan
    and the per-split decomposition, and with the frozenset code they
    replaced.
    """

    @settings(max_examples=60, deadline=None)
    @given(CELL_LISTS)
    def test_missing_simplices(self, cells_d):
        cells, d = cells_d
        missing = cell_missing_by_masks(cells, d)
        assert missing == cell_missing_by_ridge_scan(cells, d)
        assert missing == cell_missing_by_extension_index(cells, d)

    @settings(max_examples=60, deadline=None)
    @given(CELL_LISTS)
    def test_decomposition(self, cells_d):
        cells, d = cells_d
        decomposition = cell_decomposition_by_masks(cells, d)
        assert decomposition == cell_decomposition_per_split(cells, d)
        assert decomposition == cell_decomposition_by_frozensets(cells, d)

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
        closed = all(len(fs) == 2 for fs in ridge_incidence(c).values())
        assert is_closed_pseudomanifold(c) == closed
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


def frozen_minimizer_records():
    """Decompositions, verdicts and f-vectors of seeded minimizers.

    One record per (d, n, s, style, seed) for d 4..6, n 12..16, s 0..3,
    both styles and seeds 0..2: the prime factors (sorted facets, in
    factor order) and tree edges of the special facet's boundary and of
    the refined sphere (ball plus the carried triangulation), the
    recognizer's verdict JSON, and the ball and boundary f-vectors.
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
                        refined = SimplicialComplex.from_facets(
                            asp.ball.facets | asp.f_triangulation.facets
                        )
                        out.append([
                            d, n, s, style, seed,
                            decomposition(bd),
                            decomposition(refined),
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
