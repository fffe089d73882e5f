"""Exact rational scalars and a fraction-free linear algebra kernel.

Rationals are carried by the standard library ``fractions.Fraction``, which
already guarantees canonical form (reduced, positive denominator).  The
matrix routines never round: determinants and ranks are computed by Bareiss
fraction-free elimination on integer rows obtained by clearing denominators,
so every intermediate quantity is an exact minor of the scaled matrix.  A
rank modulo the prime 2^61 - 1 is also offered; it is only a lower bound on
the rational rank, and callers accept it only where it meets an upper bound
they have proven.  Its row updates walk only the pivot row's nonzero
entries, so on sparse rows (an edge row of a rigidity matrix has 2d of
d*n) an update costs what the pivot row holds, not the matrix width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ShapeError

Rational = Fraction


def format_rational(x: Fraction) -> str:
    """Render a rational as "num/den", always with an explicit denominator."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ShapeError("ragged rows")
        return RatMatrix(nr, nc, tuple(Fraction(x) for r in rows for x in r))

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index ({i},{j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        ent = tuple(self.entries[i * self.cols + j]
                    for j in range(self.cols) for i in range(self.rows))
        return RatMatrix(self.cols, self.rows, ent)


def clear_row_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators.

    Returns the integer rows and the list of positive scale factors.  Row
    scaling by positive integers preserves rank and sign structure, and
    multiplies the determinant by the product of the scales.
    """
    out: list[list[int]] = []
    scales: list[int] = []
    for r in rows:
        fr = [Fraction(x) for x in r]
        m = lcm(*(x.denominator for x in fr)) if fr else 1
        out.append([int(x * m) for x in fr])
        scales.append(m)
    return out, scales


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Bareiss fraction-free row echelon form, its pivot columns and swap sign.

    Column pivoting with the Sylvester-identity division: every division
    is exact, since each divisor is a minor of the rows taken in the
    order the elimination used them; skipped columns leave the update
    divisor untouched.  Row k of the result is zero left of its pivot,
    the last pivot is the determinant of the pivot block of the permuted
    rows, and the sign (+1 or -1) is that of the row permutation.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise ShapeError("ragged rows")
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        pk = ar[c]
        for i in range(r + 1, m):
            ai = a[i]
            aic = ai[c]
            for j in range(c + 1, n):
                ai[j] = (pk * ai[j] - aic * ar[j]) // prev
            ai[c] = 0
        prev = pk
        pivots.append(c)
    return a, pivots, sign


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the signed last Bareiss pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant requires a square matrix")
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    return len(_echelon(rows)[1])


MERSENNE_61 = (1 << 61) - 1


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the field of p = 2^61 - 1 elements.

    Plain row reduction on the residues: the pivot row is scaled by its
    inverse, and its nonzero entries right of the pivot, taken once as
    (column, value) pairs, are subtracted from every later row that is
    nonzero in the pivot column.  The result never exceeds the rational
    rank, since an r x r minor that is nonzero mod p is a nonzero
    integer; it can fall below it when p divides every maximal nonzero
    minor, so on its own it is only a lower bound.
    """
    p = MERSENNE_61
    a = [[x % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(r) != n for r in a):
        raise ShapeError("ragged rows")
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        ar = a[r]
        inv = pow(ar[c], -1, p)
        tail = [(j, x * inv % p) for j, x in enumerate(ar[c + 1 :], c + 1) if x]
        for i in range(r + 1, m):
            ai = a[i]
            f = ai[c]
            if f:
                for j, y in tail:
                    ai[j] = (ai[j] - f * y) % p
        r += 1
    return r


def int_nullspace(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer basis of {x : rows.x = 0}, one vector per non-pivot column.

    One Bareiss elimination, then integer back-substitution: the vector
    for free column f has x_f = D, the last pivot, and zeros at the other
    free columns.  D is the determinant of the pivot block, so by
    Cramer's rule every entry is an integer and each division in the
    back-substitution is exact.  The rows must be nonempty.
    """
    if not rows:
        raise ShapeError("a kernel needs at least one row to fix its width")
    a, pivots, _ = _echelon(rows)
    n = len(a[0])
    top = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        x = [0] * n
        x[f] = top
        for k in reversed(range(len(pivots))):
            c, ak = pivots[k], a[k]
            x[c] = -sum(ak[j] * x[j] for j in range(c + 1, n)) // ak[c]
        basis.append(x)
    return basis


def det(m: RatMatrix) -> Fraction:
    """Exact determinant of a square rational matrix."""
    if m.rows != m.cols:
        raise ShapeError("determinant requires a square matrix")
    int_rows, scales = clear_row_denominators(m.row_lists())
    d = int_det(int_rows)
    denom = 1
    for s in scales:
        denom *= s
    return Fraction(d, denom)


def rank(m: RatMatrix) -> int:
    """Exact rank of a rational matrix over the rationals."""
    int_rows, _ = clear_row_denominators(m.row_lists())
    return int_rank(int_rows)


def vandermonde(params: Sequence) -> Fraction:
    """Product of pairwise differences prod_{i<j} (t_j - t_i).

    Equals the determinant of the square Vandermonde matrix with rows
    (1, t_i, t_i^2, ...); positive whenever the parameters are strictly
    increasing.  Empty and single-parameter products are 1.
    """
    ts = [Fraction(t) for t in params]
    out = Fraction(1)
    for j in range(len(ts)):
        for i in range(j):
            out *= ts[j] - ts[i]
    return out
