"""Curve evaluation tests: root pattern, frozen values, independence."""

import json
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from aspoly.cli import _points_from_json
from aspoly.curves import (
    PointConfig,
    almost_cyclic_points,
    curve_parameters,
    p_eval,
)
from aspoly.enumerative import ASPParams
from aspoly.errors import AspolyError, DomainError, ShapeError
from aspoly.exactnum import format_rational
from oracles import cofactor_det, gauss_rank, homogeneous, rational_points


def homogeneous_rows(config: PointConfig, ids=None) -> list[list[Fraction]]:
    """Rows (1, x_1, ..., x_d) for the selected points, default all."""
    points = rational_points(config)
    sel = ids if ids is not None else [pid for pid, _ in points]
    return [[Fraction(1), *points[pid - 1][1]] for pid in sel]


def rational_rows(max_denominator):
    """(d, rows): d in 1..5 and 1 to 8 distinct points of R^d with rational coordinates."""

    def rows(d):
        row = st.lists(st.fractions(max_denominator=max_denominator), min_size=d, max_size=d)
        return st.tuples(st.just(d), st.lists(row, min_size=1, max_size=8, unique_by=tuple))

    return st.integers(1, 5).flatmap(rows)


class TestPEval:
    def test_frozen_values_d3(self):
        p = ASPParams(3, 5, 0)
        assert p_eval(-2, p) == 0
        assert p_eval(1, p) == 6
        assert p_eval(2, p) == 384

    def test_root_set_is_exactly_prefix(self):
        p = ASPParams(4, 9, 2)
        roots = {t for t in range(-(p.d + p.s - 1), 6) if p_eval(t, p) == 0}
        assert roots == set(range(-(p.d + p.s - 1), 1))
        # Below the grid the value is not an integer, and p_eval refuses it.
        for t in range(-12, -(p.d + p.s - 1)):
            with pytest.raises(DomainError):
                p_eval(t, p)

    def test_positive_beyond_roots(self):
        p = ASPParams(5, 11, 1)
        for t in range(1, 6):
            assert p_eval(t, p) > 0

    def test_rational_at_negative_exponent(self):
        # t = 0 gives zero product; t = -1 likewise; check a nonzero case
        # with negative power: t = -3 for s=3 grid still inside roots, so
        # use small d where -1 is outside the root window
        p = ASPParams(3, 7, 0)
        val = p_eval(4, p)
        assert val == Fraction(6) ** 6 * 4 * 5 * 6

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            p_eval(Fraction(1, 2), ASPParams(3, 5, 0))


class TestAlmostCyclicPoints:
    def test_parameter_grid(self):
        assert curve_parameters(ASPParams(3, 5, 0)) == (-2, -1, 0, 1, 2)
        assert curve_parameters(ASPParams(4, 8, 2)) == (-5, -4, -3, -2, -1, 0, 1, 2)

    def test_d3_last_coordinates(self):
        cfg = almost_cyclic_points(ASPParams(3, 5, 0))
        assert [c[-1] for _, c in rational_points(cfg)] == [0, 0, 0, 6, 384]

    def test_first_block_in_hyperplane(self):
        p = ASPParams(4, 7, 1)
        cfg = almost_cyclic_points(p)
        assert cfg.n == 7
        zeros = [pid for pid, c in rational_points(cfg) if c[-1] == 0]
        assert zeros == list(range(1, p.d + p.s + 1))
        for pid, c in rational_points(cfg):
            if pid > p.d + p.s:
                assert c[-1] > 0

    def test_head_coordinates_are_moments(self):
        p = ASPParams(4, 8, 2)
        cfg = almost_cyclic_points(p)
        for (pid, c), t in zip(rational_points(cfg), curve_parameters(p)):
            assert c[:3] == (Fraction(t), Fraction(t) ** 2, Fraction(t) ** 3)

    def test_specialization_matches_general(self):
        # The curve (t, t^2, ..., t^(d-1), p(t)) written out at the grid.
        for d in range(3, 8):
            for s in range(4):
                for n in range(d + s + 1, 23):
                    p = ASPParams(d, n, s)
                    ts = curve_parameters(p)
                    points = tuple(
                        tuple(Fraction(t) ** k for k in range(1, d)) + (p_eval(t, p),)
                        for t in ts
                    )
                    assert almost_cyclic_points(p) == PointConfig.from_rationals(d, points)

    def test_json_roundtrip(self):
        cfg = almost_cyclic_points(ASPParams(3, 6, 1))
        assert _points_from_json(cfg.to_json(), "points") == cfg


class TestGeneralCurve:
    """Minors and affine independence of the curve points."""

    def test_modified_curve_head_minor_is_vandermonde(self):
        p = ASPParams(4, 9, 2)
        cfg = almost_cyclic_points(p)
        ids = [3, 5, 6, 8]
        ts = [curve_parameters(p)[i - 1] for i in ids]
        assert ts == [-3, -1, 0, 2]
        rows = [[Fraction(1), *rational_points(cfg)[i - 1][1][:-1]] for i in ids]
        # prod_{i<j} (t_j - t_i), the Vandermonde determinant
        assert cofactor_det(rows) == prod(tj - ti for ti, tj in combinations(ts, 2))

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=3, max_value=5),
        st.sets(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    )
    def test_affine_independence_of_small_subsets(self, d, ids):
        # Any d points of the (d, d + 6, 1) configuration are affinely
        # independent; d + 1 need not be, as the first d + 1 are flat.
        cfg = almost_cyclic_points(ASPParams(d, d + 6, 1))
        k = min(len(ids), d)
        for sub in combinations(sorted(ids), k):
            assert gauss_rank(homogeneous_rows(cfg, sub)) == k


class TestPointConfigValidation:
    def test_id_order_enforced(self):
        # Ids are implicit in PointConfig; the JSON reader checks them.
        entry = {"d": 2, "points": [{"id": 2, "coords": ["0", "0"]}]}
        with pytest.raises(AspolyError, match=r"^point ids must be 1\.\.n in order, got 2 at 1$"):
            _points_from_json(entry, "points")

    def test_duplicate_coordinates_rejected(self):
        pt = (Fraction(1), Fraction(2))
        with pytest.raises(ShapeError):
            PointConfig.from_rationals(2, (pt, pt))
        with pytest.raises(ShapeError):
            PointConfig.from_rationals(2, (pt, (Fraction(2, 2), Fraction(4, 2))))
        with pytest.raises(ShapeError, match="^point 2 duplicates an earlier point$"):
            PointConfig(2, ((1, 1, 2), (1, 1, 2)))

    def test_equal_numerators_are_distinct_points(self):
        pts = [(Fraction(1, k), Fraction(1, k * k)) for k in (1, 2, 3)]
        assert PointConfig.from_rationals(2, pts).n == 3

    @pytest.mark.parametrize(
        "hom, message",
        [
            (((0, 1, 2),), "point 1 is not a primitive integer (w, w*x) with w > 0"),
            (((1, 0, 0), (-1, 1, 2)), "point 2 is not a primitive integer (w, w*x) with w > 0"),
            (((1, 0, 0), (2, 2, 4)), "point 2 is not a primitive integer (w, w*x) with w > 0"),
            (((1, 0, 0), (1, 2)), "point 2 has 1 coordinates, not 2"),
            (((1, 0, 0, 0),), "point 1 has 3 coordinates, not 2"),
        ],
        ids=["zero-w", "negative-w", "not-primitive", "short", "long"],
    )
    def test_malformed_vector_rejected(self, hom, message):
        with pytest.raises(ShapeError) as exc:
            PointConfig(2, hom)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "h",
        [(1, 2), (1, 0, 0, 0), (0, 1, 2), (-1, 1, 2), (2, 2, 4), (1, 0, 0), (3, 1, 1), (1, 5, 7)],
        ids=["short", "long", "zero-w", "negative-w", "not-primitive", "dup-first", "dup-last", "new"],
    )
    def test_one_point_step_refuses_as_the_constructor(self, h):
        # with_point validates the new point alone: the same refusal, with
        # the same text, as building the whole configuration, or the same
        # configuration.
        config = PointConfig(2, ((1, 0, 0), (1, 1, 0), (3, 1, 1)))

        def outcome(build):
            try:
                return build()
            except ShapeError as exc:
                return str(exc)

        got = outcome(lambda: config.with_point(h))
        assert got == outcome(lambda: PointConfig(2, (*config.hom, h)))
        assert isinstance(got, str) == (h != (1, 5, 7))

    @settings(deadline=None, max_examples=100)
    @given(rational_rows(10**12))
    def test_from_rationals_matches_oracle(self, case):
        d, rows = case
        config = PointConfig.from_rationals(d, rows)
        assert config.hom == tuple(tuple(homogeneous(r)) for r in rows)
        assert [c for _, c in rational_points(config)] == [tuple(r) for r in rows]

    @settings(deadline=None, max_examples=100)
    @given(rational_rows(2**80))
    def test_json_roundtrip_keeps_hom(self, case):
        # to_json writes each coordinate as the rational it was given.
        d, rows = case
        config = PointConfig.from_rationals(d, rows)
        data = json.loads(json.dumps(config.to_json()))
        assert [p["coords"] for p in data["points"]] == [list(map(format_rational, r)) for r in rows]
        assert _points_from_json(data, "points").hom == config.hom
