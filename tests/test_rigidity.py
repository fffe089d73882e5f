"""Stress spaces, generic rank sampling, and g2 accounting."""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspoly import rigidity
from aspoly.cli import main
from aspoly.complexes import ASPComplex, SimplicialComplex, f_vector, validate_asp
from aspoly.enumerative import ASPParams, f_almost_stacked
from aspoly.errors import DomainError, ShapeError
from aspoly.exactnum import MERSENNE_61, int_rank, rank_mod_p
from aspoly.gale import almost_cyclic_facets
from aspoly.rigidity import (
    COORD_BOUND,
    Graph,
    RigidityReport,
    _edge_rows,
    _rigidity_rank,
    _trilateration_order,
    _trilateration_rank,
    g2_of_skeleton,
    one_skeleton,
    rigid_rank_target,
    sample_generic,
)
from aspoly.stackgen import pyramid, random_minimizer
from oracles import gauss_rank

TRIANGLE = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
K4 = Graph.from_edges([1, 2, 3, 4], [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])


def rigidity_matrix(g, embedding):
    """One row per edge; the left kernel of this matrix is the stress space."""
    rows = _edge_rows(g, embedding)
    if not rows:
        raise DomainError("graph has no edges; the rigidity matrix is empty")
    return [[Fraction(x) for x in row] for row in rows]


def stress_dimension(g, embedding):
    """Dimension of the stress space at a rational embedding."""
    if g.n_edges == 0:
        return 0
    # A common positive scale clears the denominators and keeps the rank.
    scale = lcm(*(Fraction(x).denominator for pt in embedding.values() for x in pt))
    scaled = {v: [int(Fraction(x) * scale) for x in pt] for v, pt in embedding.items()}
    return g.n_edges - _rigidity_rank(g, scaled)


def kalai_monotonicity_defect(g_p, g_f):
    """g2 of the polytope minus g2 of its special facet; nonnegative for
    ASPs with simplicial 2-skeleton."""
    return g_p - g_f


def generic_embedding(g, d, seed, trial=0):
    """The embedding sample_generic draws at this seed and trial."""
    rng = random.Random(f"{seed}:{trial}")
    return {v: [rng.randrange(-COORD_BOUND, COORD_BOUND) for _ in range(d)] for v in g.sorted_vertices()}


def sample_generic_by_bareiss(g, d, trials=3, seed=0):
    """Oracle: the Bareiss rank at every trial embedding, no modular certificate."""
    target = rigid_rank_target(d, g.n_vertices)
    cap = min(g.n_edges, max(target, 0))
    best = 0
    for t in range(trials):
        emb = generic_embedding(g, d, seed, t)
        if g.n_edges:
            best = max(best, int_rank(_edge_rows(g, emb)))
        if best == cap:
            break
    return RigidityReport(
        d=d,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        best_rank=best,
        stress_dim=g.n_edges - best,
        rigid_certified=best == target,
        stress_free_certified=best == g.n_edges,
        trials=trials,
        seed=seed,
    )


def sorted_id_rows(g, emb):
    """Oracle layout: the rigidity matrix with its vertex blocks in sorted id order."""
    order = g.sorted_vertices()
    d = len(emb[order[0]])
    rows = []
    for u, v in g.sorted_edges():
        row = [0] * (d * len(order))
        for k in range(d):
            delta = emb[u][k] - emb[v][k]
            row[d * order.index(u) + k] = delta
            row[d * order.index(v) + k] = -delta
        rows.append(row)
    return rows


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    density = draw(st.sampled_from([3, 6, 9, 10]))
    keep = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(range(n), [e for e, k in zip(pairs, keep) if k < density])


def octahedron_graph():
    skel = SimplicialComplex.from_facets(
        [frozenset({a, b, c}) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    )
    return one_skeleton(skel)


def cross_polytope_graph(d):
    """The 1-skeleton of the d-dimensional cross-polytope: no (d+1)-clique."""
    verts = range(1, 2 * d + 1)
    return Graph.from_edges(verts, [(a, b) for a in verts for b in verts if a < b and b - a != d])


def proven_bound(g, emb):
    """The upper bound the rank certificates must meet: E, or the rigid rank if the points span."""
    d = len(next(iter(emb.values())))
    bound = g.n_edges
    if int_rank([[1, *emb[v]] for v in g.vertices]) == d + 1:
        bound = min(bound, rigid_rank_target(d, g.n_vertices))
    return bound


def cyclic_skeleton(d, n, s):
    p = ASPParams(d, n, s)
    facets = almost_cyclic_facets(p)
    ball = SimplicialComplex.from_facets([frozenset(f) for f in facets[1:]])
    asp = ASPComplex(p, ball, frozenset(range(1, d + s + 1)), None)
    validate_asp(asp)
    return asp, one_skeleton(asp.ball)


class TestGraph:
    def test_loop_rejected(self):
        with pytest.raises(ShapeError):
            Graph.from_edges([1, 2], [(1, 1)])

    def test_foreign_endpoint_rejected(self):
        with pytest.raises(ShapeError):
            Graph.from_edges([1, 2], [(1, 3)])

    def test_json_roundtrip(self, tmp_path, capsys):
        # A graph file of sorted vertices and edges reads back as the same
        # graph: rigidity reports on it what sample_generic reports on g.
        g = Graph.from_edges([3, 1, 2], [(1, 3), (2, 3)])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": g.sorted_vertices(), "edges": g.sorted_edges()}))
        assert main(["rigidity", "--input", str(path), "--dim", "2"]) == 0
        assert json.loads(capsys.readouterr().out) == sample_generic(g, 2).to_json()


class TestRigidityMatrix:
    def test_single_edge_dimension_one(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        m = rigidity_matrix(g, {1: [Fraction(0)], 2: [Fraction(1)]})
        assert m == [[Fraction(-1), Fraction(1)]]
        assert gauss_rank(m) == 1

    def test_triangle_minimally_rigid(self):
        emb = {1: [0, 0], 2: [3, 1], 3: [1, 4]}
        m = rigidity_matrix(TRIANGLE, emb)
        assert gauss_rank(m) == 3
        assert stress_dimension(TRIANGLE, emb) == 0

    def test_k4_has_one_stress(self):
        emb = {1: [0, 0], 2: [5, 1], 3: [2, 7], 4: [3, 3]}
        assert gauss_rank(rigidity_matrix(K4, emb)) == 5
        assert stress_dimension(K4, emb) == 1

    def test_tree_is_stress_free(self):
        g = Graph.from_edges([1, 2, 3, 4, 5], [(1, 2), (2, 3), (2, 4), (4, 5)])
        emb = {i: [i * i, 3 * i + 1] for i in range(1, 6)}
        assert stress_dimension(g, emb) == 0

    def test_missing_embedding(self):
        with pytest.raises(DomainError):
            rigidity_matrix(TRIANGLE, {1: [0, 0], 2: [1, 1]})

    def test_mixed_dimensions(self):
        with pytest.raises(ShapeError):
            rigidity_matrix(TRIANGLE, {1: [0], 2: [1, 1], 3: [2, 2]})

    def test_dependent_edge_raises_stress_by_one(self):
        square = Graph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
        emb = {1: [0, 0], 2: [4, 1], 3: [5, 5], 4: [1, 4]}
        assert stress_dimension(square, emb) == 0
        braced = Graph(square.vertices, square.edges | {frozenset({1, 3})})
        assert stress_dimension(braced, emb) == 0
        k4 = Graph(square.vertices, braced.edges | {frozenset({2, 4})})
        assert stress_dimension(k4, emb) == 1


class TestSampleGeneric:
    def test_octahedron_rigid_and_stress_free(self):
        report = sample_generic(octahedron_graph(), 3, seed=5)
        assert report.best_rank == 12
        assert report.rigid_certified and report.stress_free_certified
        assert report.stress_dim == 0

    def test_simplex_skeleton_rank(self):
        for d in (3, 5):
            verts = range(1, d + 2)
            g = Graph.from_edges(
                verts, [(a, b) for a in verts for b in verts if a < b]
            )
            report = sample_generic(g, d, seed=1)
            assert report.best_rank == d * (d + 1) - (d + 1) * d // 2
            assert report.rigid_certified

    def test_cyclic_4_8_2_stress_dim_matches_g2(self):
        asp, skel = cyclic_skeleton(4, 8, 2)
        assert skel.n_edges == 25
        report = sample_generic(skel, 4, seed=2)
        assert report.rigid_certified
        assert report.stress_dim == 3 == g2_of_skeleton(8, 25, 4)

    def test_minimizer_5_9_2_stress_free(self):
        asp = random_minimizer(ASPParams(5, 9, 2), 9)
        report = sample_generic(one_skeleton(asp.ball), 5, seed=3)
        assert report.rigid_certified and report.stress_free_certified
        assert asp.f_polytope().f(1) == 5 * 9 - 15

    def test_disconnected_never_certified(self):
        g = Graph.from_edges(
            range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
        )
        report = sample_generic(g, 2, trials=5, seed=4)
        assert not report.rigid_certified

    def test_deterministic_given_seed(self):
        g = octahedron_graph()
        assert sample_generic(g, 3, seed=11) == sample_generic(g, 3, seed=11)

    def test_trial_validation(self):
        with pytest.raises(DomainError):
            sample_generic(TRIANGLE, 2, trials=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rank_bound_invariant(self, seed):
        g = K4
        report = sample_generic(g, 2, seed=seed)
        assert report.best_rank <= min(g.n_edges, rigid_rank_target(2, g.n_vertices))

    def test_report_json(self):
        data = sample_generic(TRIANGLE, 2, seed=0).to_json()
        assert data["rigid_certified"] is True
        assert data["n_edges"] == 3


class TestRankCertificate:
    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6))
    def test_sample_generic_matches_bareiss_oracle(self, g, d, trials, seed):
        assert sample_generic(g, d, trials, seed) == sample_generic_by_bareiss(g, d, trials, seed)

    @pytest.mark.parametrize("cell", [(4, 8, 2), (5, 9, 1), (6, 11, 3)])
    def test_skeletons_match_bareiss_oracle(self, cell):
        _, cyclic = cyclic_skeleton(*cell)
        stacked = one_skeleton(random_minimizer(ASPParams(*cell), 1).ball)
        for g in (cyclic, stacked):
            for d in (cell[0] - 1, cell[0], cell[0] + 1):
                assert sample_generic(g, d, seed=7) == sample_generic_by_bareiss(g, d, seed=7)

    def test_columns_in_ascending_degree(self):
        # The centre of a star has degree 3, so its block comes last.
        star = Graph.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
        rows = _edge_rows(star, {1: [0], 2: [1], 3: [2], 4: [3]})
        assert rows == [[1, 0, 0, -1], [0, 2, 0, -2], [0, 0, 3, -3]]

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.integers(1, 6), st.sampled_from([1, 3, COORD_BOUND]), st.data())
    def test_degree_order_rank_matches_sorted_id_layout(self, g, d, bound, data):
        # Small coordinates make flat embeddings and rank drops, which the
        # Bareiss fallback decides; large ones are generic.
        coords = st.integers(-bound, bound)
        emb = {v: data.draw(st.lists(coords, min_size=d, max_size=d)) for v in g.sorted_vertices()}
        expected = int_rank(sorted_id_rows(g, emb)) if g.n_edges else 0
        assert _rigidity_rank(g, emb) == expected

    def test_rank_drop_mod_p_falls_back_to_bareiss(self):
        p = MERSENNE_61
        emb = {1: [0, 0], 2: [3 * p, p], 3: [p, 4 * p]}
        assert rank_mod_p(_edge_rows(TRIANGLE, emb)) == 0
        assert _rigidity_rank(TRIANGLE, emb) == 3
        assert stress_dimension(TRIANGLE, emb) == 0

    def test_flat_embedding_uses_edge_bound_only(self):
        # Three points cannot span R^4: d*n - C(d+1, 2) = 2 is no bound here.
        emb = {1: [0, 0, 0, 0], 2: [1, 2, 0, 5], 3: [7, 1, 3, 0]}
        assert rigid_rank_target(4, 3) == 2
        assert _rigidity_rank(TRIANGLE, emb) == 3
        collinear = {v: [v, 2 * v, 3 * v] for v in range(1, 5)}
        assert _rigidity_rank(K4, collinear) == 3 == int_rank(_edge_rows(K4, collinear))

    @settings(max_examples=60, deadline=None)
    @given(graphs(6), st.integers(1, 3), st.integers(1, 6), st.data())
    def test_stress_dimension_matches_rational_rank(self, g, d, den, data):
        coords = st.fractions(min_value=-3, max_value=3, max_denominator=den)
        emb = {
            v: data.draw(st.lists(coords, min_size=d, max_size=d)) for v in g.vertices
        }
        expected = g.n_edges - gauss_rank(rigidity_matrix(g, emb)) if g.n_edges else 0
        assert stress_dimension(g, emb) == expected


class TestTrilaterationCertificate:
    @pytest.fixture
    def full_rows(self, monkeypatch):
        """Counts the builds of the full matrix, which only the fallback makes."""
        calls = []

        def counted(g, emb):
            calls.append(g)
            return _edge_rows(g, emb)

        monkeypatch.setattr(rigidity, "_edge_rows", counted)
        return calls

    def test_greedy_order(self):
        # Most placed neighbours first, ties by smallest id; the octahedron
        # has no 4-clique, so its fourth vertex sees only two placed ones.
        order = [(v, sorted(e)) for v, e in _trilateration_order(octahedron_graph())]
        assert order == [(1, []), (3, [1]), (5, [1, 3]), (2, [3, 5]), (4, [1, 2, 5]), (6, [1, 2, 3, 4])]
        assert [v for v, _ in _trilateration_order(K4)] == [1, 2, 3, 4]

    @settings(max_examples=120, deadline=None)
    @given(graphs(), st.integers(1, 6), st.sampled_from([1, 3, COORD_BOUND]), st.data())
    def test_sum_is_a_lower_bound_exact_when_accepted(self, g, d, bound, data):
        coords = st.integers(-bound, bound)
        emb = {v: data.draw(st.lists(coords, min_size=d, max_size=d)) for v in g.sorted_vertices()}
        exact = int_rank(_edge_rows(g, emb)) if g.n_edges else 0
        total = _trilateration_rank(g, emb)
        assert total <= exact
        if g.n_edges and total == proven_bound(g, emb):
            assert total == exact

    @pytest.mark.parametrize("cell", [(4, 8, 2), (5, 9, 1), (6, 11, 3)])
    @pytest.mark.parametrize("family", ["cyclic", "stacked"])
    def test_accepted_on_skeletons(self, cell, family, full_rows):
        if family == "cyclic":
            _, g = cyclic_skeleton(*cell)
        else:
            g = one_skeleton(random_minimizer(ASPParams(*cell), 1).ball)
        for d in (cell[0] - 1, cell[0]):
            emb = generic_embedding(g, d, seed=7)
            assert _trilateration_rank(g, emb) == proven_bound(g, emb)
            assert _rigidity_rank(g, emb) == int_rank(_edge_rows(g, emb))
        assert full_rows == []

    @pytest.mark.parametrize(
        "g, d, collinear",
        [
            (octahedron_graph(), 3, False),
            (K4, 3, True),
            (Graph.from_edges(range(1, 7), [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]), 2, False),
            (cross_polytope_graph(4), 4, False),
        ],
        ids=["octahedron", "K4-collinear", "K33", "cross-polytope-4"],
    )
    def test_falls_back(self, g, d, collinear, full_rows):
        # With no (d+1)-clique the first d+1 placed vertices miss an edge, so
        # the sum stays below the rigid bound; collinear points keep every
        # block at rank 1.
        emb = generic_embedding(g, d, seed=3)
        if collinear:
            emb = {v: [v * (k + 1) for k in range(d)] for v in g.vertices}
        assert _trilateration_rank(g, emb) < proven_bound(g, emb)
        assert _rigidity_rank(g, emb) == int_rank(_edge_rows(g, emb))
        assert full_rows == [g]


def frozen_rigidity_records():
    """Reports and stress dimensions on seeded minimizers of the benchmark grid.

    Every instance gets its generic report in dimension d.  At n = 12 it
    also gets a report in dimension d - 1 (stressed, rigid) and the stress
    dimension at two special embeddings: small coordinates in {-1, 0, 1},
    where ranks drop, and a flat rational one, where only the edge bound
    holds; both reach the Bareiss fallback.
    """
    out = []
    for d in (4, 5, 6):
        for n in range(12, 17):
            for s in range(4):
                for style in ("stack", "hstack"):
                    asp = random_minimizer(ASPParams(d, n, s), 100 * n + 10 * s + d, style)
                    g = one_skeleton(asp.ball)
                    row = [d, n, s, style, sample_generic(g, d, seed=n + s).to_json()]
                    if n == 12:
                        rng = random.Random(f"{d}:{s}:{style}")
                        verts = g.sorted_vertices()
                        small = {v: [rng.randrange(-1, 2) for _ in range(d)] for v in verts}
                        flat = {
                            v: [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                                for _ in range(d - 1)] + [Fraction(1, 2)]
                            for v in verts
                        }
                        row += [
                            sample_generic(g, d - 1, trials=2, seed=s).to_json(),
                            stress_dimension(g, small),
                            stress_dimension(g, flat),
                        ]
                    out.append(row)
    return out


def test_frozen_rigidity_records():
    # SHA-256 of the records' sorted-key JSON, captured before the rigidity
    # matrix's columns were reordered; the spot values make a diff readable.
    records = frozen_rigidity_records()
    assert len(records) == 120
    assert records[0] == [
        4, 12, 0, "stack",
        {"d": 4, "n_vertices": 12, "n_edges": 38, "best_rank": 38, "stress_dim": 0,
         "rigid_certified": True, "stress_free_certified": True, "trials": 3, "seed": 12},
        {"d": 3, "n_vertices": 12, "n_edges": 38, "best_rank": 30, "stress_dim": 8,
         "rigid_certified": True, "stress_free_certified": False, "trials": 2, "seed": 0},
        1, 8,
    ]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "3d6cc13bf433dce9872b1ff05f8b3d5ecb52fc6c387bf35145451f1beebd538f"


class TestAffineInvariance:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_stress_dim_under_affine_maps(self, seed):
        import random as _r

        rng = _r.Random(seed)
        emb = {v: [Fraction(rng.randrange(-50, 50)) for _ in range(2)] for v in K4.vertices}
        base = stress_dimension(K4, emb)
        while True:
            a, b, c, d = (Fraction(rng.randrange(-9, 10)) for _ in range(4))
            if a * d - b * c != 0:
                break
        tx, ty = Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10))
        mapped = {
            v: [a * x + b * y + tx, c * x + d * y + ty] for v, (x, y) in emb.items()
        }
        assert stress_dimension(K4, mapped) == base


class TestG2Accounting:
    def test_minimizer_g2_vanishes(self):
        for (d, n, s) in [(4, 8, 2), (5, 9, 2), (6, 11, 3)]:
            fv = f_almost_stacked(ASPParams(d, n, s))
            assert g2_of_skeleton(fv.f(0), fv.f(1), d) == 0

    def test_cyclic_4_8_2(self):
        assert g2_of_skeleton(8, 25, 4) == 3

    def test_simplex(self):
        assert g2_of_skeleton(5, 10, 4) == 0

    def test_kalai_defect_cyclic(self):
        asp, skel = cyclic_skeleton(4, 8, 2)
        from aspoly.complexes import boundary_of_ball

        bd = boundary_of_ball(asp.ball)
        f1f = f_vector(bd).f(1)
        defect = kalai_monotonicity_defect(
            g2_of_skeleton(8, skel.n_edges, 4), g2_of_skeleton(6, f1f, 3)
        )
        assert defect >= 0

    def test_kalai_defect_pyramid_over_octahedron(self):
        oct_complex = SimplicialComplex.from_facets(
            [frozenset({a, b, c}) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
        )
        cone = pyramid(oct_complex, 7)
        fv = f_vector(cone)
        g2p = g2_of_skeleton(fv.f(0), fv.f(1), 4)
        g2f = g2_of_skeleton(6, 12, 3)
        assert (g2p, g2f) == (0, 0)
        assert kalai_monotonicity_defect(g2p, g2f) == 0
