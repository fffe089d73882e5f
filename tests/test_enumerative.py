"""Face-count transforms and the closed-form bound families.

Frozen expected values were derived by hand from the defining sums and a
binomial calculator before being fixed here; the property tests confirm the
transforms are mutually inverse on arbitrary integer data.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspoly import enumerative as en
from aspoly.errors import DomainError, ParameterMismatchError, ShapeError


def fv(d, ent):
    return en.FVector(d, tuple(ent))


def hv(d, ent):
    return en.HVector(d, tuple(ent))


def test_params_validation():
    en.ASPParams(3, 5, 1)
    with pytest.raises(DomainError):
        en.ASPParams(2, 5, 0)
    with pytest.raises(DomainError):
        en.ASPParams(4, 8, -1)
    with pytest.raises(DomainError):
        en.ASPParams(4, 6, 2)


def test_h_from_f_almost_cyclic_4_8_2():
    h = en.h_from_f(fv(4, [1, 8, 25, 32, 14]))
    assert h.entries == (1, 4, 7, 2, 0)


def test_f_from_h_solid_simplex():
    f = en.f_from_h(hv(4, [1, 0, 0, 0, 0]))
    assert f.entries == (1, 4, 6, 4, 1)


def test_g_from_h():
    g = en.g_from_h(hv(4, [1, 4, 7, 2, 0]))
    assert g == (1, 3, 3, -5, -2)


def test_boundary_sphere_h_palindrome():
    # octahedron: f = (1, 6, 12, 8), h = (1, 3, 3, 1)
    h = en.h_from_f(fv(3, [1, 6, 12, 8]))
    assert h.entries == (1, 3, 3, 1)


def test_dehn_sommerville_zero_on_model_ball():
    h_ball = hv(4, [1, 4, 7, 2, 0])
    g_bd = en.g_from_h(en.h_from_f(fv(3, [1, 6, 12, 8])))
    assert g_bd == (1, 2, 0, -2)
    assert en.dehn_sommerville_defect(h_ball, g_bd) == (0, 0, 0, 0, 0)


def test_dehn_sommerville_perturbation_two_defects():
    h_ball = hv(4, [1, 4, 7, 2, 0])
    g_bd = (1, 2, 0, -2)
    bumped = hv(4, [1, 5, 7, 2, 0])
    defects = en.dehn_sommerville_defect(bumped, g_bd)
    nonzero = [k for k, v in enumerate(defects) if v != 0]
    assert nonzero == [1, 3]
    assert defects[1] == 1 and defects[3] == -1
    assert en.dehn_sommerville_defect(h_ball, g_bd) == (0,) * 5


def test_dehn_sommerville_shape_error():
    with pytest.raises(ShapeError):
        en.dehn_sommerville_defect(hv(4, [1, 4, 7, 2, 0]), (1, 2, 0))


def test_phi_values():
    assert en.phi(4, 8, 1) == 22
    assert en.phi(4, 8, 2) == 28
    assert en.phi(4, 8, 3) == 14
    assert en.phi(4, 5, 1) == 10  # simplex: C(5,2)
    with pytest.raises(DomainError):
        en.phi(4, 8, 4)
    with pytest.raises(DomainError):
        en.phi(4, 8, 0)


def test_phi_simplex_agrees_with_binomials():
    # on d+1 vertices the stacked counts are those of the simplex boundary
    for d in range(3, 7):
        for k in range(1, d):
            assert en.phi(d, d + 1, k) == en.binom(d + 1, k + 1)


def test_f_almost_stacked_values():
    assert en.f_almost_stacked(en.ASPParams(4, 8, 2)).entries == (1, 8, 22, 26, 12)
    assert en.f_almost_stacked(en.ASPParams(3, 7, 2)).entries == (1, 7, 13, 8)
    assert en.f_almost_stacked(en.ASPParams(4, 8, 0)).entries == (1, 8, 22, 28, 14)


def test_h_almost_cyclic_ball_values():
    assert en.h_almost_cyclic_ball(en.ASPParams(4, 8, 2)).entries == (1, 4, 7, 2, 0)
    assert en.h_almost_cyclic_ball(en.ASPParams(5, 9, 2)).entries == (1, 4, 10, 7, 2, 0)


def test_h_almost_cyclic_ball_s0_symmetric():
    # with s = 0 the entries are the cyclic sphere values with the top zeroed;
    # h_1 = n - d cross-checks the binomial indexing
    h = en.h_almost_cyclic_ball(en.ASPParams(4, 9, 0)).entries
    assert h == (1, 5, 15, 5, 0)
    assert h[1] == 9 - 4


def test_f_almost_cyclic_values():
    assert en.f_almost_cyclic(en.ASPParams(4, 8, 2)).entries == (1, 8, 25, 32, 15)
    assert en.f_almost_cyclic(en.ASPParams(3, 6, 1)).entries == (1, 6, 11, 7)
    assert en.f_almost_cyclic(en.ASPParams(4, 7, 0)).entries == (1, 7, 21, 28, 14)


def test_d3_closed_forms():
    # in dimension 3 both families share one f-vector
    for n in range(5, 9):
        for s in range(0, n - 3):
            p = en.ASPParams(3, n, s)
            expect = (1, n, 3 * n - 6 - s, 2 * n - 4 - s)
            assert en.f_almost_stacked(p).entries == expect
            assert en.f_almost_cyclic(p).entries == expect


def test_ubt_bound_top_index():
    # the upper bound on h_{d-1} of the ball is n - d - s
    for d, n, s in [(4, 8, 2), (5, 11, 3), (6, 10, 0)]:
        p = en.ASPParams(d, n, s)
        assert en.h_almost_cyclic_ball(p).h(d - 1) == n - d - s


def test_check_asp_bounds_sandwich():
    p = en.ASPParams(4, 8, 2)
    rep = en.check_asp_bounds(en.f_almost_stacked(p), p)
    assert rep.all_ok and rep.all_equal_lower
    # The upper side: the subject is the almost-cyclic f-vector itself.
    assert en.f_almost_cyclic(p).entries == (1, 8, 25, 32, 15)
    rep = en.check_asp_bounds(en.f_almost_cyclic(p), p)
    assert rep.all_ok
    assert not rep.all_equal_lower


def test_check_asp_bounds_pyramid_over_octahedron():
    # 7 vertices, special facet the octahedron (6 = 4 + 2 vertices)
    p = en.ASPParams(4, 7, 2)
    rep = en.check_asp_bounds(fv(4, [1, 7, 18, 20, 9]), p)
    assert rep.all_ok
    assert rep.verdicts[1].equal_lower
    assert rep.all_equal_lower


def test_check_asp_bounds_vertex_mismatch():
    with pytest.raises(ParameterMismatchError):
        en.check_asp_bounds(fv(4, [1, 9, 25, 32, 15]), en.ASPParams(4, 8, 2))


def test_ridge_identity_model():
    f_p = fv(4, [1, 8, 25, 32, 15])
    f_facet = fv(3, [1, 6, 15, 8])  # 2-neighborly 3-polytope on 6 vertices
    assert en.ridge_identity_defect(f_p, f_facet) == 0


def test_ridge_identity_simplex():
    f_p = fv(4, [1, 5, 10, 10, 5])
    f_facet = fv(3, [1, 4, 6, 4])
    assert en.ridge_identity_defect(f_p, f_facet) == 0


def ubt_recurrence_defect(h_ball, g_boundary, p):
    """Slack in the shelling recurrence bounding ball h-numbers from above.

    For k = 0..d-1 the recurrence states
        h_{d-k-1} <= (n-d+k)/(k+1) h_{d-k} + (n-d-s)/(k+1) g_k(boundary of F),
    with equality at k = 0.  Returns RHS - LHS as exact rationals, all of
    which must be nonnegative for a genuine instance.
    """
    d, n, s = p.d, p.n, p.s
    assert h_ball.d == d and len(g_boundary) == d
    return tuple(
        Fraction(n - d + k, k + 1) * h_ball.h(d - k)
        + Fraction(n - d - s, k + 1) * g_boundary[k]
        - h_ball.h(d - k - 1)
        for k in range(d)
    )


def test_ubt_recurrence_on_models():
    p = en.ASPParams(4, 8, 2)
    h_ball = hv(4, [1, 4, 7, 2, 0])
    g_bd = (1, 2, 0, -2)
    defects = ubt_recurrence_defect(h_ball, g_bd, p)
    assert defects[0] == 0  # equality at the top step
    assert all(x >= 0 for x in defects)
    assert defects == (0, 0, 10, 5)

    h_stacked_ball = hv(4, [1, 4, 4, 2, 0])
    defects = ubt_recurrence_defect(h_stacked_ball, g_bd, p)
    assert defects[0] == 0
    assert all(x >= 0 for x in defects)
    assert isinstance(defects[1], Fraction)


def test_fvector_validation():
    with pytest.raises(ShapeError):
        fv(4, [2, 8, 25, 32, 15])
    with pytest.raises(ShapeError):
        fv(4, [1, 8, 25])
    with pytest.raises(ShapeError):
        fv(3, [1, 6, 12, 8]).f(3)


small_int = st.integers(-50, 50)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 7), st.data())
def test_f_h_round_trip(d, data):
    tail = data.draw(st.lists(small_int, min_size=d, max_size=d))
    f = fv(d, [1] + tail)
    assert en.f_from_h(en.h_from_f(f)) == f


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 7), st.data())
def test_h_f_round_trip(d, data):
    ent = data.draw(st.lists(small_int, min_size=d + 1, max_size=d + 1))
    # h_0 = 1 makes the inverse land on a valid f-vector
    h = hv(d, [1] + ent[1:])
    assert en.h_from_f(en.f_from_h(h)) == h


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.data())
def test_g_is_difference_of_h(d, data):
    ent = data.draw(st.lists(small_int, min_size=d + 1, max_size=d + 1))
    h = hv(d, ent)
    g = en.g_from_h(h)
    for k in range(d + 1):
        assert sum(g[: k + 1]) == h.entries[k]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 3), st.integers(1, 6))
def test_family_sandwich_entrywise(d, s, extra):
    p = en.ASPParams(d, d + s + extra, s)
    lo = en.f_almost_stacked(p)
    hi = en.f_almost_cyclic(p)
    assert all(lo.f(k) <= hi.f(k) for k in range(d))
    assert lo.f(0) == hi.f(0) == p.n
