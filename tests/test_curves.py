"""Curve evaluation tests: root pattern, frozen values, independence."""

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
from aspoly.errors import DomainError, ShapeError
from oracles import cofactor_det, gauss_rank


def homogeneous_rows(config: PointConfig, ids=None) -> list[list[Fraction]]:
    """Rows (1, x_1, ..., x_d) for the selected points, default all."""
    sel = ids if ids is not None else [pid for pid, _ in config.points]
    return [[Fraction(1), *config.points[pid - 1][1]] for pid in sel]


class TestPEval:
    def test_frozen_values_d3(self):
        p = ASPParams(3, 5, 0)
        assert p_eval(-2, p) == 0
        assert p_eval(1, p) == 6
        assert p_eval(2, p) == 384

    def test_root_set_is_exactly_prefix(self):
        p = ASPParams(4, 9, 2)
        roots = {t for t in range(-12, 6) if p_eval(t, p) == 0}
        assert roots == set(range(-(p.d + p.s - 1), 1))

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
        assert [c[-1] for _, c in cfg.points] == [0, 0, 0, 6, 384]

    def test_first_block_in_hyperplane(self):
        p = ASPParams(4, 7, 1)
        cfg = almost_cyclic_points(p)
        assert cfg.n == 7
        zeros = [pid for pid, c in cfg.points if c[-1] == 0]
        assert zeros == list(range(1, p.d + p.s + 1))
        for pid, c in cfg.points:
            if pid > p.d + p.s:
                assert c[-1] > 0

    def test_head_coordinates_are_moments(self):
        p = ASPParams(4, 8, 2)
        cfg = almost_cyclic_points(p)
        for (pid, c), t in zip(cfg.points, curve_parameters(p)):
            assert c[:3] == (Fraction(t), Fraction(t) ** 2, Fraction(t) ** 3)

    def test_specialization_matches_general(self):
        # The curve (t, t^2, ..., t^(d-1), p(t)) written out at the grid.
        for d in range(3, 8):
            for s in range(4):
                for n in range(d + s + 1, 23):
                    p = ASPParams(d, n, s)
                    ts = curve_parameters(p)
                    points = tuple(
                        (i, tuple(Fraction(t) ** k for k in range(1, d)) + (p_eval(t, p),))
                        for i, t in enumerate(ts, start=1)
                    )
                    assert almost_cyclic_points(p) == PointConfig(d, points)

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
        rows = [[Fraction(1), *cfg.points[i - 1][1][:-1]] for i in ids]
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
        with pytest.raises(ShapeError):
            PointConfig(2, ((2, (Fraction(0), Fraction(0))),))

    def test_duplicate_coordinates_rejected(self):
        pt = (Fraction(1), Fraction(2))
        with pytest.raises(ShapeError):
            PointConfig(2, ((1, pt), (2, pt)))
        with pytest.raises(ShapeError):
            PointConfig(2, ((1, pt), (2, (Fraction(2, 2), Fraction(4, 2)))))

    def test_equal_numerators_are_distinct_points(self):
        pts = [(Fraction(1, k), Fraction(1, k * k)) for k in (1, 2, 3)]
        assert PointConfig(2, tuple(enumerate(pts, start=1))).n == 3
