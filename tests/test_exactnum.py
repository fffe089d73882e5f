"""Exact linear algebra kernel, cross-checked against cofactor expansion and Gauss."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspoly import exactnum as xn
from aspoly.errors import ShapeError
from oracles import cofactor_det, gauss_rank, int_det


def test_det_identity():
    assert int_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_vandermonde_3x3():
    assert int_det([[1, 1, 1], [1, 2, 3], [1, 4, 9]]) == 2


def test_det_equal_rows_zero():
    assert int_det([[2, 5], [2, 5]]) == 0


def test_det_nonsquare_rejected():
    with pytest.raises(ShapeError):
        int_det([[1, 2, 3], [4, 5, 6]])


def test_rank_examples():
    assert xn.int_rank([[1, 2], [2, 4]]) == 1
    assert xn.int_rank([[1, 0], [0, 1]]) == 2
    assert xn.int_rank([[0, 0], [0, 0]]) == 0
    assert xn.int_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_rank_of_zero_width():
    assert xn.int_rank([]) == 0


def test_matrix_shape_validation():
    with pytest.raises(ShapeError):
        xn.int_rank([[1, 2], [3]])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.sampled_from([1, 3, 10]), st.data())
def test_echelon_is_an_exact_row_echelon_form(m, n, density, data):
    # Tall and wide blocks, sparse or dense, with some columns all zero.
    # Row k is zero left of its pivot and the rows past the rank are zero;
    # the rank is Gauss's and the form spans the rows' space; on a square
    # block the signed last pivot is the cofactor determinant; and the
    # kernel vectors solved from the form vanish on every row.
    value = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    entry = st.tuples(st.integers(0, 9), value).map(lambda t: t[1] if t[0] < density else 0)
    zero_cols = data.draw(st.sets(st.integers(0, max(n - 1, 0))))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rows = [[0 if j in zero_cols else x for j, x in enumerate(r)] for r in rows]
    a, pivots, sign = xn._echelon(rows)
    rank = gauss_rank(rows)
    assert len(pivots) == rank and pivots == sorted(set(pivots)) and sign in (1, -1)
    for k, row in enumerate(a):
        lead = pivots[k] if k < rank else n
        assert not any(row[:lead]) and (k >= rank or row[lead])
    if m:
        assert gauss_rank(rows + a) == rank
        basis = xn.int_nullspace(rows)
        assert len(basis) == n - rank
        assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows for v in basis)
    if 1 <= m == n <= 6:
        assert (sign * a[-1][-1] if rank == n else 0) == cofactor_det(rows)
    if m > 1:
        with pytest.raises(ShapeError, match="^ragged rows$"):
            xn._echelon(rows[:-1] + [rows[-1] + [1]])


def test_parse_format_roundtrip():
    # Artifacts are read back by Fraction (cli._points_from_json).
    for text in ["3/4", "-7/5", "0/1", "12/1"]:
        x = Fraction(text)
        assert Fraction(xn.format_rational(x)) == x
    assert xn.format_rational(Fraction(5)) == "5/1"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_det_matches_cofactor_expansion(rows):
    # int_det is the signed last pivot of the library's Bareiss elimination.
    assert int_det(rows) == cofactor_det(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_rank_matches_gauss(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    assert xn.int_rank(rows) == gauss_rank(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_det_sign_flips_on_row_swap(n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    swapped = [rows[1], rows[0]] + rows[2:]
    assert int_det(swapped) == -int_det(rows)
    assert xn.int_rank(swapped) == xn.int_rank(rows)


def test_nullspace_examples():
    assert xn.int_nullspace([[1, 2, 3], [4, 5, 6]]) == [[-3, 6, -3]]
    assert xn.int_nullspace([[1, 0], [0, 1]]) == []
    assert xn.int_nullspace([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ShapeError):
        xn.int_nullspace([])
    with pytest.raises(ShapeError):
        xn.int_nullspace([[1, 2], [3]])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_nullspace_is_an_integer_kernel_basis(m, n, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    basis = xn.int_nullspace(rows)
    assert len(basis) == n - gauss_rank(rows)
    assert all(isinstance(x, int) for v in basis for x in v)
    for v in basis:
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
    if basis:
        assert gauss_rank(basis) == len(basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_nullspace_of_full_rank_is_the_cofactor_vector(n, data):
    # n independent rows of width n+1: the kernel is spanned by the signed
    # maximal minors, the vector Cramer's rule gives.
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
            min_size=n,
            max_size=n,
        )
    )
    cof = [(-1) ** c * cofactor_det([r[:c] + r[c + 1 :] for r in rows]) for c in range(n + 1)]
    basis = xn.int_nullspace(rows)
    if not any(cof):
        assert len(basis) > 1
        return
    (v,) = basis
    ratio = next(Fraction(x, c) for x, c in zip(v, cof) if c)
    assert [ratio * c for c in cof] == v


def dense_rank_mod_p(rows):
    """Oracle: row reduction mod 2^61 - 1 that updates every entry right of the pivot."""
    p = xn.MERSENNE_61
    a = [[x % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        tail = [x * inv % p for x in a[r][c + 1 :]]
        for i in range(r + 1, m):
            ai = a[i]
            f = ai[c]
            if f:
                ai[c + 1 :] = [(x - f * y) % p for x, y in zip(ai[c + 1 :], tail)]
        r += 1
    return r


def test_rank_mod_p_examples():
    p = xn.MERSENNE_61
    assert xn.rank_mod_p([]) == 0
    assert xn.rank_mod_p([[1, 2], [2, 4]]) == 1
    assert xn.rank_mod_p([[0, 0, 0], [0, 5, 1], [0, 10, 2]]) == 1
    # Entries that are multiples of p vanish mod p; the integer rank does not.
    assert xn.rank_mod_p([[p, 0], [0, 1]]) == 1
    assert xn.int_rank([[p, 0], [0, 1]]) == 2
    with pytest.raises(ShapeError):
        xn.rank_mod_p([[1, 2], [3]])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([2**64, 3 * 2**61]), st.data())
def test_rank_mod_p_never_exceeds_int_rank(m, n, big, data):
    p = xn.MERSENNE_61
    entries = st.one_of(
        st.integers(-9, 9), st.integers(-big, big), st.integers(-3, 3).map(lambda k: k * p)
    )
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    assert xn.rank_mod_p(rows) <= xn.int_rank(rows) == gauss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_rank_mod_p_is_exact_for_small_entries(m, n, data):
    # Every minor is below Hadamard's bound (9 * sqrt(6))**6 < 2**61 - 1,
    # so a minor vanishes mod p only when it is zero.
    rows = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    assert xn.rank_mod_p(rows) == gauss_rank(rows)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([1, 3, 10]), st.data())
def test_rank_mod_p_matches_dense_oracle(m, n, density, data):
    # An entry is nonzero with odds density/10: sparse rows like the
    # rigidity matrix's as well as dense ones.  Multiples of p are nonzero
    # integers that vanish mod p, so they test the walk over the residues.
    p = xn.MERSENNE_61
    value = st.one_of(
        st.integers(-9, 9), st.integers(-(2**64), 2**64), st.integers(-3, 3).map(lambda k: k * p)
    )
    entry = st.tuples(st.integers(0, 9), value).map(lambda t: t[1] if t[0] < density else 0)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    assert xn.rank_mod_p(rows) == dense_rank_mod_p(rows)
