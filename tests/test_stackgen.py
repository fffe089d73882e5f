"""Builders for stacked families, hyperplane stacking, and the recognizer."""

import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspoly import complexes
from aspoly.complexes import (
    ASPComplex,
    SimplicialComplex,
    boundary_of_ball,
    f_vector,
    face_key,
    prime_decomposition,
    validate_asp,
)
from aspoly.enumerative import (
    ASPParams,
    check_asp_bounds,
    f_almost_stacked,
    phi,
)
from aspoly.errors import (
    DegeneracyError,
    DomainError,
    InvalidMoveError,
    PseudomanifoldError,
    ShapeError,
    UnsupportedRegimeError,
)
from aspoly.gale import almost_cyclic_facets
from aspoly.stackgen import (
    almost_stacked,
    h_stack,
    pyramid,
    random_minimizer,
    random_scripts,
    recognize_minimizer,
    stack_over,
    trivial_asp,
)
from oracles import (
    carried_missing,
    cell_decomposition_by_masks,
    cell_missing_by_masks,
    cell_split,
    is_stacked_sphere,
    refined_frozenset_cells,
    simplex_cell,
    stacked_sphere,
)

def hstack_minimizer_by_pool(p, seed):
    """Oracle: the hstack style, each selector drawn from the built boundary."""
    rng = random.Random(seed)
    kinds = ["hstack"] * p.s + ["stack"] * (p.n - p.d - 1 - p.s)
    rng.shuffle(kinds)
    asp = trivial_asp(p.d)
    for kind in kinds:
        if kind == "stack":
            asp = stack_over(asp, rng.randrange(asp.ball.n_facets))
        else:
            asp = h_stack(asp, rng.randrange(boundary_of_ball(asp.ball).n_facets))
    return asp


def cyclic_ball(d, n, s):
    p = ASPParams(d, n, s)
    facets = almost_cyclic_facets(p)
    ball = SimplicialComplex.from_facets([frozenset(f) for f in facets[1:]])
    asp = ASPComplex(p, ball, frozenset(range(1, d + s + 1)), None)
    validate_asp(asp)
    return asp


def cell_has_face(cells, d, a):
    """Oracle: a is a face of some cell, scanning the whole cell list."""
    for c in cells:
        if c.is_simplex(d):
            if a <= c.vertices:
                return True
        elif a == c.vertices or any(a <= r for r in c.ridges):
            return True
    return False


def cell_missing_simplices_by_scan(cells, d):
    """Oracle: test every d-subset of the vertices with cell_has_face."""
    verts = sorted(set().union(*(c.vertices for c in cells)))
    out = []
    for cand in combinations(verts, d):
        a = frozenset(cand)
        if cell_has_face(cells, d, a):
            continue
        if all(cell_has_face(cells, d, a - {x}) for x in a):
            out.append(a)
    return sorted(out, key=face_key)


def assert_missing_matches_scan(cells, d, carried=None):
    """Compare with the oracle at every level of the split recursion.

    Below the root, the missing set the recursion carries down must equal
    both a fresh search and the scan.
    """
    missing = cell_missing_by_masks(cells, d)
    assert missing == cell_missing_simplices_by_scan(cells, d)
    if carried is not None:
        assert carried == missing
    if missing:
        for part in cell_split(cells, missing[0]):
            assert_missing_matches_scan(part, d, carried_missing(part, missing[1:]))
    return missing


def octahedron():
    return SimplicialComplex.from_facets(
        [frozenset({a, b, c}) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    )


class TestStackedSphere:
    def test_simplex_boundary_base(self):
        sphere = stacked_sphere(3, 4, ())
        assert f_vector(sphere).entries == (1, 4, 6, 4)

    def test_frozen_f_vector_4_8(self):
        sphere = stacked_sphere(4, 8, (0, 1, 2))
        assert f_vector(sphere).entries == (1, 8, 22, 28, 14)
        assert is_stacked_sphere(sphere)

    def test_f_matches_phi_regardless_of_script(self):
        for seed in range(5):
            _, sp = random_scripts(ASPParams(4, 13, 0), seed)
            sphere = stacked_sphere(4, 9, sp[:4])
            fv = f_vector(sphere)
            assert all(fv.f(k) == phi(4, 9, k) for k in range(1, 4))

    def test_script_length_enforced(self):
        with pytest.raises(ShapeError):
            stacked_sphere(4, 8, (0,))

    def test_index_out_of_range(self):
        with pytest.raises(InvalidMoveError):
            stacked_sphere(3, 5, (4,))

    def test_explicit_facet_selector(self):
        # Indices count the facets in sorted order: 0 is {1, 2, 3}.
        sphere = stacked_sphere(3, 5, (0,))
        assert frozenset({1, 2, 3}) not in sphere.facets
        assert frozenset({1, 2, 5}) in sphere.facets


class TestPyramid:
    def test_over_octahedron_counts(self):
        cone = pyramid(octahedron(), 7)
        assert f_vector(cone).entries == (1, 7, 18, 20, 8)

    def test_apex_collision(self):
        with pytest.raises(DomainError):
            pyramid(octahedron(), 3)


class TestAlmostStacked:
    def test_frozen_4_8_2(self):
        sf, sp = random_scripts(ASPParams(4, 8, 2), 7)
        asp = almost_stacked(ASPParams(4, 8, 2), sf, sp)
        assert f_vector(asp.ball).entries == (1, 8, 22, 26, 11)
        assert asp.f_polytope().entries == (1, 8, 22, 26, 12)
        assert asp.special_facet == frozenset(range(1, 7))
        assert asp.f_triangulation is not None
        assert asp.f_triangulation.n_facets == 3

    def test_dimension_three_profile(self):
        sf, sp = random_scripts(ASPParams(3, 7, 2), 1)
        asp = almost_stacked(ASPParams(3, 7, 2), sf, sp)
        assert asp.f_polytope().entries == (1, 7, 13, 8)

    def test_matches_formula_many_cells(self):
        for (d, n, s) in [(3, 6, 1), (4, 9, 1), (5, 9, 2), (6, 11, 3)]:
            p = ASPParams(d, n, s)
            sf, sp = random_scripts(p, d + n + s)
            asp = almost_stacked(p, sf, sp)
            assert asp.f_polytope().entries == f_almost_stacked(p).entries

    def test_s_zero_is_stacked_sphere_minus_facet(self):
        p = ASPParams(4, 7, 0)
        _, sp = random_scripts(p, 2)
        asp = almost_stacked(p, (), sp)
        sphere = SimplicialComplex.from_facets(
            asp.ball.facets | {asp.special_facet}
        )
        assert is_stacked_sphere(sphere)
        assert asp.special_facet == frozenset(range(1, 5))

    def test_triangulation_matches_boundary_prime_factors(self):
        p = ASPParams(4, 9, 3)
        sf, sp = random_scripts(p, 11)
        asp = almost_stacked(p, sf, sp)
        factors = prime_decomposition(boundary_of_ball(asp.ball))
        assert {frozenset(f.vertex_ids) for f in factors} == asp.f_triangulation.facets

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(4, 8, 2), (5, 9, 2), (4, 9, 0)]))
    def test_f_independent_of_script(self, seed, cell):
        p = ASPParams(*cell)
        sf, sp = random_scripts(p, seed)
        asp = almost_stacked(p, sf, sp)
        assert asp.f_polytope().entries == f_almost_stacked(p).entries


class TestHStack:
    def test_base_case_frozen(self):
        asp = h_stack(trivial_asp(4), 0)
        assert asp.params == ASPParams(4, 6, 1)
        assert asp.f_polytope().entries == f_almost_stacked(ASPParams(4, 6, 1)).entries
        assert len(asp.special_facet) == 5
        assert asp.f_triangulation.n_facets == 2

    def test_ball_gains_d_minus_two_facets(self):
        base = trivial_asp(5)
        grown = h_stack(base, 1)
        assert grown.ball.n_facets == base.ball.n_facets + 3

    def test_chain_stays_on_lower_bound(self):
        asp = trivial_asp(5)
        for i in range(4):
            asp = h_stack(asp, i % 3)
            validate_asp(asp)
            assert asp.f_polytope().entries == f_almost_stacked(asp.params).entries
            report = check_asp_bounds(asp.f_polytope(), asp.params)
            assert all(v.lower_ok and v.upper_ok for v in report.verdicts)

    @pytest.mark.parametrize(
        "selector, message",
        [
            (4, "facet index 4 out of range 0..3"),
        ],
    )
    def test_invalid_selector_message(self, selector, message):
        with pytest.raises(InvalidMoveError) as ei:
            h_stack(trivial_asp(4), selector)
        assert str(ei.value) == message

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_random_minimizer_counts_the_boundary(self, d):
        for s in range(1, 4):
            for seed in range(10):
                p = ASPParams(d, d + s + 4, s)
                asp = random_minimizer(p, seed, style="hstack")
                assert asp == hstack_minimizer_by_pool(p, seed)

    def test_mixed_script_parameter_arithmetic(self):
        asp = h_stack(stack_over(h_stack(trivial_asp(4), 0), 0), 1)
        assert asp.params == ASPParams(4, 8, 2)
        validate_asp(asp)

    def test_stack_over_keeps_special_facet(self):
        asp = stack_over(trivial_asp(4), 0)
        assert asp.params == ASPParams(4, 6, 0)
        assert asp.special_facet == frozenset(range(1, 5))


class TestScripts:
    def test_random_scripts_always_in_range(self):
        for seed in range(20):
            p = ASPParams(5, 12, 3)
            asp = almost_stacked(p, *random_scripts(p, seed))
            assert asp.params == p


class TestRecognizeMinimizer:
    def test_dimension_three_unsupported(self):
        p = ASPParams(3, 7, 2)
        asp = almost_stacked(p, *random_scripts(p, 0))
        with pytest.raises(UnsupportedRegimeError):
            recognize_minimizer(asp)

    def test_trivial_simplex(self):
        verdict = recognize_minimizer(trivial_asp(4))
        assert verdict.is_minimizer
        assert verdict.regime == "d4"

    def test_almost_stacked_d4(self):
        p = ASPParams(4, 8, 2)
        verdict = recognize_minimizer(almost_stacked(p, *random_scripts(p, 7)))
        assert verdict.is_minimizer
        assert any(r.is_pyramid_over_f_factor for r in verdict.factor_reports)

    def test_almost_stacked_d5(self):
        p = ASPParams(5, 9, 2)
        verdict = recognize_minimizer(almost_stacked(p, *random_scripts(p, 7)))
        assert verdict.is_minimizer
        assert verdict.regime == "dGT4"
        assert all(r.is_simplex for r in verdict.factor_reports)

    @pytest.mark.parametrize("style", ["stack", "hstack"])
    def test_generated_instance_is_not_validated_again(self, monkeypatch, style):
        # random_minimizer validates the finished instance once (not the
        # hstack walk's simplex start), so recognizing it runs validate_asp
        # zero more times; an equal fresh instance runs it once.
        calls = []

        def counted(a):
            calls.append(a)
            return validate_asp(a)

        monkeypatch.setattr(complexes, "validate_asp", counted)
        asp = random_minimizer(ASPParams(5, 11, 2), 3, style=style)
        assert calls == [asp]
        verdict = recognize_minimizer(asp)
        assert calls == [asp]
        assert recognize_minimizer(replace(asp)) == verdict
        assert calls == [asp, asp]

    def test_hstack_family_d4_and_d5(self):
        for d in (4, 5):
            asp = random_minimizer(ASPParams(d, d + 5, 2), 11, style="hstack")
            assert recognize_minimizer(asp).is_minimizer

    def test_pyramid_over_octahedron(self):
        asp = ASPComplex(
            ASPParams(4, 7, 2), pyramid(octahedron(), 7), frozenset(range(1, 7)), None
        )
        validate_asp(asp)
        assert asp.f_polytope().entries == f_almost_stacked(ASPParams(4, 7, 2)).entries
        verdict = recognize_minimizer(asp)
        assert verdict.is_minimizer
        assert len(verdict.factor_reports) == 1
        assert verdict.factor_reports[0].is_pyramid_over_f_factor
        assert not verdict.factor_reports[0].is_simplex

    def test_maximizers_rejected(self):
        for (d, n, s) in [(4, 8, 2), (4, 9, 1), (5, 9, 2), (6, 11, 3)]:
            asp = cyclic_ball(d, n, s)
            assert not recognize_minimizer(asp).is_minimizer

    def test_json_verdict_shape(self):
        verdict = recognize_minimizer(trivial_asp(5))
        data = verdict.to_json()
        assert data["is_minimizer"] is True
        assert data["regime"] == "dGT4"
        assert all("vertices" in f for f in data["factors"])

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([(4, 8, 1), (4, 9, 2), (5, 9, 1)]),
        st.sampled_from(["stack", "hstack"]),
    )
    def test_generated_minimizers_always_accepted(self, seed, cell, style):
        asp = random_minimizer(ASPParams(*cell), seed, style=style)
        assert recognize_minimizer(asp).is_minimizer
        assert asp.f_polytope().entries == f_almost_stacked(asp.params).entries


def factor_json(vertices, simplex, in_f, pyramid_over_f):
    return {
        "has_facet_in_f": in_f,
        "is_pyramid_over_f_factor": pyramid_over_f,
        "is_simplex": simplex,
        "vertices": vertices,
    }


# (vertices, is_simplex, has_facet_in_f, is_pyramid_over_f_factor) per
# factor, captured before the missing-simplex search was rewritten.
FROZEN_MINIMIZERS = [
    ((4, 9, 2), 3, "stack", "d4", [
        ([1, 2, 3, 4, 7], True, True, True),
        ([1, 2, 4, 5, 7], True, True, True),
        ([1, 3, 4, 7, 8], True, False, False),
        ([1, 4, 7, 8, 9], True, False, False),
        ([2, 3, 4, 6, 7], True, True, True),
    ]),
    ((5, 10, 1), 4, "hstack", "dGT4", [
        ([1, 2, 3, 4, 5, 6], True, True, True),
        ([1, 2, 4, 5, 6, 9], True, False, False),
        ([1, 2, 4, 5, 9, 10], True, False, False),
        ([1, 3, 4, 5, 6, 7], True, False, False),
        ([1, 3, 4, 5, 7, 8], True, True, True),
    ]),
    ((6, 12, 2), 5, "stack", "dGT4", [
        ([1, 2, 3, 4, 5, 6, 9], True, True, True),
        ([1, 3, 4, 5, 6, 7, 9], True, True, True),
        ([1, 3, 4, 5, 7, 8, 9], True, True, True),
        ([2, 3, 4, 5, 6, 9, 10], True, False, False),
        ([2, 3, 4, 5, 6, 10, 11], True, False, False),
        ([3, 4, 5, 6, 10, 11, 12], True, False, False),
    ]),
    ((6, 13, 3), 8, "hstack", "dGT4", [
        ([1, 2, 3, 4, 5, 6, 7], True, True, True),
        ([1, 2, 3, 4, 5, 7, 9], True, False, False),
        ([1, 2, 3, 4, 5, 9, 10], True, True, True),
        ([1, 2, 3, 5, 7, 9, 11], True, False, False),
        ([1, 2, 3, 5, 9, 10, 12], True, True, True),
        ([2, 3, 4, 5, 6, 7, 8], True, False, False),
        ([2, 3, 4, 5, 9, 10, 13], True, True, True),
    ]),
]

# Almost-cyclic balls stacked over the given ball facets: one non-simplex
# factor around the special facet plus the stacked simplices.
FROZEN_NON_MINIMIZERS = [
    ((4, 7, 1), (0, 3), "d4", [
        ([1, 2, 3, 4, 5, 6, 7], False, True, False),
        ([1, 2, 3, 7, 8], True, False, False),
        ([1, 2, 7, 8, 9], True, False, False),
    ]),
    ((5, 9, 2), (1, 4), "dGT4", [
        ([1, 2, 3, 4, 5, 6, 7, 8, 9], False, True, False),
        ([1, 2, 3, 7, 8, 10], True, False, False),
        ([1, 2, 4, 5, 9, 11], True, False, False),
    ]),
    ((6, 11, 1), (2,), "dGT4", [
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], False, True, False),
        ([1, 2, 3, 4, 8, 9, 12], True, False, False),
    ]),
]


def stacked_cyclic(cell, selectors):
    asp = cyclic_ball(*cell)
    for k in selectors:
        asp = stack_over(asp, k)
    return asp


class TestMissingSimplexSearch:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(4, 6),
        st.integers(0, 3),
        st.integers(0, 4),
        st.integers(0, 10**6),
        st.sampled_from(["stack", "hstack"]),
    )
    def test_matches_scan_on_minimizers(self, d, s, extra, seed, style):
        asp = random_minimizer(ASPParams(d, d + s + 1 + extra, s), seed, style=style)
        assert_missing_matches_scan(refined_frozenset_cells(asp), d)

    @pytest.mark.parametrize(
        "cell", [(4, 7, 1), (4, 8, 2), (4, 9, 3), (5, 9, 1), (5, 10, 2), (6, 11, 1), (6, 12, 3)]
    )
    def test_matches_scan_on_cyclic_balls(self, cell):
        # For d >= 5 and s >= 1 the special facet keeps a non-simplex cell;
        # for d = 4 it splits into simplices.
        asp = cyclic_ball(*cell)
        cells = refined_frozenset_cells(asp)
        assert any(not c.is_simplex(cell[0]) for c in cells) == (cell[0] > 4)
        assert_missing_matches_scan(cells, cell[0])
        for k in range(3):
            stacked = stack_over(asp, k)
            assert_missing_matches_scan(refined_frozenset_cells(stacked), cell[0])

    def test_matches_scan_on_pyramid_over_octahedron(self):
        asp = ASPComplex(
            ASPParams(4, 7, 2), pyramid(octahedron(), 7), frozenset(range(1, 7)), None
        )
        assert assert_missing_matches_scan(refined_frozenset_cells(asp), 4) == []

    @pytest.mark.parametrize("cell, seed, style, regime, factors", FROZEN_MINIMIZERS)
    def test_frozen_minimizer_verdicts(self, cell, seed, style, regime, factors):
        verdict = recognize_minimizer(random_minimizer(ASPParams(*cell), seed, style=style))
        expected = {
            "factors": [factor_json(*f) for f in factors],
            "is_minimizer": True,
            "regime": regime,
        }
        assert verdict.to_json() == expected

    @pytest.mark.parametrize("cell, selectors, regime, factors", FROZEN_NON_MINIMIZERS)
    def test_frozen_non_minimizer_verdicts(self, cell, selectors, regime, factors):
        verdict = recognize_minimizer(stacked_cyclic(cell, selectors))
        expected = {
            "factors": [factor_json(*f) for f in factors],
            "is_minimizer": False,
            "regime": regime,
        }
        assert verdict.to_json() == expected


# The 7-vertex torus: a closed pseudomanifold whose first missing triangle
# does not separate it.
TORUS = SimplicialComplex.from_facets(
    [[i % 7 + 1, (i + k) % 7 + 1, (i + 3) % 7 + 1] for i in range(7) for k in (1, 2)]
)


@st.composite
def relabellings(draw, ids):
    """A strictly increasing map of the ids onto integers from below -2**70 to above 2**64."""
    ids = sorted(ids)
    middle = draw(st.lists(
        st.integers(-(2**66), 2**66), min_size=len(ids) - 2, max_size=len(ids) - 2, unique=True
    ))
    low = -(2**70) - draw(st.integers(0, 9))
    high = 2**67 + 2**65 + draw(st.integers(0, 9))
    return dict(zip(ids, [low, *sorted(middle), high]))


def relabel(c, f):
    return SimplicialComplex.from_facets([f[v] for v in g] for g in c.facets)


def relabel_asp(asp, f):
    tri = asp.f_triangulation
    return ASPComplex(
        asp.params,
        relabel(asp.ball, f),
        frozenset(f[v] for v in asp.special_facet),
        relabel(tri, f) if tri else None,
    )


@st.composite
def relabel_instances(draw):
    """A seeded minimizer, or a cyclic ball stacked over a few of its facets."""
    if draw(st.booleans()):
        d, s = draw(st.integers(4, 6)), draw(st.integers(0, 3))
        p = ASPParams(d, d + s + 1 + draw(st.integers(0, 3)), s)
        style = draw(st.sampled_from(["stack", "hstack"]))
        return random_minimizer(p, draw(st.integers(0, 10**6)), style=style)
    cell = draw(st.sampled_from([(4, 8, 2), (5, 9, 1), (5, 10, 2), (6, 11, 1)]))
    return stacked_cyclic(cell, draw(st.lists(st.integers(0, 5), max_size=3)))


class TestMonotoneRelabelling:
    """Faces become bitmasks by sorted position, so any increasing relabelling,
    negative and above 2**64 included, relabels every result and message."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_verdict_and_factors_relabel(self, data):
        asp = data.draw(relabel_instances())
        f = data.draw(relabellings(asp.ball.vertex_ids))
        moved = relabel_asp(asp, f)
        expected = recognize_minimizer(asp).to_json()
        for report in expected["factors"]:
            report["vertices"] = [f[v] for v in report["vertices"]]
        assert recognize_minimizer(moved).to_json() == expected
        spheres = [asp.special_boundary]
        if asp.f_triangulation is not None:
            spheres.append(
                SimplicialComplex.from_facets(asp.ball.facets | asp.f_triangulation.facets)
            )
        for sphere in spheres:
            assert prime_decomposition(relabel(sphere, f)) == tuple(
                relabel(x, f) for x in prime_decomposition(sphere)
            )

    @settings(max_examples=20, deadline=None)
    @given(relabellings(range(1, 8)))
    def test_errors_name_vertex_ids(self, f):
        fat = SimplicialComplex.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5], [3, 4, 5]])
        cells = [simplex_cell(g) for g in relabel(fat, f).sorted_facets()]
        with pytest.raises(PseudomanifoldError) as exc:
            cell_decomposition_by_masks(cells, 3)
        assert str(exc.value) == f"ridge {[f[1], f[2]]} lies in 3 cells"
        with pytest.raises(DegeneracyError) as exc:
            prime_decomposition(relabel(TORUS, f))
        assert str(exc.value) == (
            f"cutting along {[f[1], f[2], f[3]]} does not give two components"
        )
