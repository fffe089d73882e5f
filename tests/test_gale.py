"""Evenness predicate and facet-list tests for the maximizing family.

The closed-form counts used below were evaluated by hand from the
even-dimension formula and the d=3 formula f_2 = 2n-4-s; the ball
f-vectors come from the independent h-vector route.  The subset scan
that the facet generator replaced is kept here as its oracle.
"""

import hashlib
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from aspoly.cli import main
from aspoly.complexes import SimplicialComplex, f_vector
from aspoly.enumerative import ASPParams, f_almost_cyclic, f_from_h, h_almost_cyclic_ball
from aspoly.errors import DomainError
from aspoly.gale import (
    almost_cyclic_facets,
    interior_tuples,
    simplex_facet_count_even_d,
    simplex_facets,
    special_block,
)


@dataclass(frozen=True)
class GaleQuery:
    params: ASPParams
    subset: tuple[int, ...]

    def __post_init__(self):
        if any(not 1 <= v <= self.params.n for v in self.subset):
            raise DomainError("vertex ids must lie in 1..n")
        if list(self.subset) != sorted(set(self.subset)):
            raise DomainError("subset must be sorted and duplicate-free")


def gale_even(q: GaleQuery) -> bool:
    """Oracle: all-pairs evenness, every out-pair sees an even subset count between."""
    inside = set(q.subset)
    outside = [v for v in range(1, q.params.n + 1) if v not in inside]
    for i, u in enumerate(outside):
        for v in outside[i + 1 :]:
            between = sum(1 for w in q.subset if u < w < v)
            if between % 2:
                return False
    return True


def gale_even_contiguous(q: GaleQuery) -> bool:
    """Oracle: the evenness rule checked on consecutive out-pairs only."""
    inside = set(q.subset)
    outside = [v for v in range(1, q.params.n + 1) if v not in inside]
    for u, v in zip(outside, outside[1:]):
        if sum(1 for w in q.subset if u < w < v) % 2:
            return False
    return True


def simplex_facets_by_scan(params: ASPParams) -> list[frozenset[int]]:
    """Oracle: every Gale-even d-subset of 1..n not inside the prefix block."""
    block = special_block(params)
    out = []
    for sub in combinations(range(1, params.n + 1), params.d):
        fs = frozenset(sub)
        if fs <= block:
            continue
        if gale_even(GaleQuery(params, sub)):
            out.append(fs)
    return sorted(out, key=lambda f: tuple(sorted(f)))


def interior_tuples_by_scan(params: ASPParams) -> list[frozenset[int]]:
    """Oracle: every Gale-even d-subset strictly inside the prefix block."""
    block = special_block(params)
    out = []
    for sub in combinations(sorted(block), params.d):
        fs = frozenset(sub)
        if fs == block:
            continue
        if gale_even(GaleQuery(params, sub)):
            out.append(fs)
    return sorted(out, key=lambda f: tuple(sorted(f)))


def q(d: int, n: int, s: int, subset) -> GaleQuery:
    return GaleQuery(ASPParams(d, n, s), tuple(subset))


class TestPredicate:
    def test_prefix_subset_is_even(self):
        assert gale_even(q(4, 7, 0, [1, 2, 3, 4]))

    def test_odd_gap_detected(self):
        assert not gale_even(q(4, 7, 0, [1, 3, 4, 6]))

    def test_split_ends_even(self):
        assert gale_even(q(4, 7, 0, [1, 2, 6, 7]))

    def test_subset_validation(self):
        with pytest.raises(DomainError):
            q(4, 7, 0, [0, 1, 2, 3])
        with pytest.raises(DomainError):
            q(4, 7, 0, [4, 3, 2, 1])

    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_all_pairs_equals_contiguous(self, d, s, data):
        n = data.draw(st.integers(min_value=d + s + 1, max_value=d + s + 5))
        subset = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=n), min_size=d, max_size=d
            )
        )
        query = q(d, n, s, sorted(subset))
        assert gale_even(query) == gale_even_contiguous(query)


class TestFacetLists:
    def test_4_8_2_counts(self):
        p = ASPParams(4, 8, 2)
        facets = almost_cyclic_facets(p)
        assert facets[0] == special_block(p) == frozenset(range(1, 7))
        assert len(facets) == 15
        assert simplex_facet_count_even_d(p) == 14 == len(facets) - 1

    def test_classical_cyclic_4_7(self):
        p = ASPParams(4, 7, 0)
        facets = almost_cyclic_facets(p)
        assert len(facets) == 14
        assert facets[0] == frozenset({1, 2, 3, 4})
        assert simplex_facet_count_even_d(p) == 13

    def test_3_6_1_total(self):
        facets = almost_cyclic_facets(ASPParams(3, 6, 1))
        assert len(facets) == 2 * 6 - 4 - 1

    def test_closed_form_rejects_odd_d(self):
        with pytest.raises(DomainError):
            simplex_facet_count_even_d(ASPParams(3, 6, 1))

    def test_simplex_facets_leave_the_block(self):
        p = ASPParams(5, 10, 2)
        outside = frozenset(range(p.d + p.s + 1, p.n + 1))
        for f in simplex_facets(p):
            assert f & outside

    @pytest.mark.parametrize(
        "d,n,s",
        [(3, 6, 1), (3, 8, 2), (4, 8, 2), (4, 9, 1), (5, 9, 2), (5, 11, 0), (6, 11, 3)],
    )
    def test_ball_f_vector_matches_h_route(self, d, n, s):
        p = ASPParams(d, n, s)
        ball = SimplicialComplex.from_facets(simplex_facets(p))
        assert f_vector(ball).entries == f_from_h(h_almost_cyclic_ball(p)).entries

    def test_ball_facet_count_is_h_sum(self):
        for p in [ASPParams(4, 8, 2), ASPParams(4, 7, 0), ASPParams(5, 9, 2)]:
            assert len(simplex_facets(p)) == sum(h_almost_cyclic_ball(p).entries)


class TestInteriorTuples:
    def test_4_8_2_interior_count(self):
        # hand enumeration: disjoint contiguous pair-blocks inside {1..6}
        tuples = interior_tuples(ASPParams(4, 8, 2))
        assert len(tuples) == 6
        assert frozenset({1, 2, 4, 5}) in tuples
        block = special_block(ASPParams(4, 8, 2))
        for t in tuples:
            assert t < block

    def test_s0_has_no_interior_tuples(self):
        assert interior_tuples(ASPParams(4, 7, 0)) == []

    @given(st.sampled_from([(4, 8, 1), (5, 9, 2), (3, 7, 3)]))
    def test_interior_tuples_are_gale_even_and_proper(self, dns):
        p = ASPParams(*dns)
        block = special_block(p)
        for t in interior_tuples(p):
            assert t < block
            assert gale_even(GaleQuery(p, tuple(sorted(t))))


GRID = [(d, n, s) for d in range(3, 7) for s in range(4) for n in range(d + s + 1, 17)]

# sha256 of the concatenated stdout of `aspoly gale --d D --n N --s S
# --interior-tuples` over GRID, in GRID's order, captured from the
# subset-scan implementation.
GALE_INTERIOR_DIGEST = "fd8a86fe907009358a6387946f186030654f6eef11ce0be1e29d762c3a7e3165"


class TestGenerator:
    def test_grid_matches_scan(self):
        assert len(GRID) == 160
        for d, n, s in GRID:
            p = ASPParams(d, n, s)
            assert simplex_facets(p) == simplex_facets_by_scan(p), (d, n, s)
            assert interior_tuples(p) == interior_tuples_by_scan(p), (d, n, s)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_matches_scan(self, d, s, data):
        n = data.draw(st.integers(min_value=d + s + 1, max_value=d + s + 8))
        p = ASPParams(d, n, s)
        assert simplex_facets(p) == simplex_facets_by_scan(p)
        assert interior_tuples(p) == interior_tuples_by_scan(p)

    def test_cli_interior_tuples_frozen(self, capsys):
        digest = hashlib.sha256()
        for d, n, s in GRID:
            argv = ["gale", "--d", str(d), "--n", str(n), "--s", str(s), "--interior-tuples"]
            assert main(argv) == 0
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == GALE_INTERIOR_DIGEST


class TestClosedForms:
    """Counts far beyond the subset scan's reach, against the closed forms."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_counts_up_to_n_40(self, d):
        for s in range(4):
            for n in range(d + s + 1, 41):
                p = ASPParams(d, n, s)
                facets = almost_cyclic_facets(p)
                assert len(facets) == f_almost_cyclic(p).entries[-1], (d, n, s)
                if d % 2 == 0:
                    assert len(facets) - 1 == simplex_facet_count_even_d(p), (d, n, s)
                if d == 3:
                    assert len(facets) == 2 * n - 4 - s, (d, n, s)
