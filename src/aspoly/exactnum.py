"""Rational formatting and an exact integer linear algebra kernel.

Rationals are carried by the standard library ``fractions.Fraction``, which
already guarantees canonical form (reduced, positive denominator); callers
hand the kernel integer rows.  Ranks and kernels are computed by Bareiss
fraction-free elimination, so every intermediate quantity is an exact
minor and nothing is rounded.  A rank modulo the prime 2^61 - 1 is also
offered; it is only a lower bound on the rational rank, and callers accept
it only where it meets an upper bound they have proven.  Its row updates
walk only the pivot row's nonzero entries, so on sparse rows (an edge row
of a rigidity matrix has 2d of d*n) an update costs what the pivot row
holds, not the matrix width.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ShapeError


def format_rational(x: Fraction) -> str:
    """Render a rational as "num/den", always with an explicit denominator."""
    return f"{x.numerator}/{x.denominator}"


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Bareiss fraction-free row echelon form, its pivot columns and swap sign.

    Column pivoting with the Sylvester-identity division: every division
    is exact, since each divisor is a minor of the rows taken in the
    order the elimination used them; skipped columns leave the update
    divisor untouched.  A row that is zero in the pivot column is only
    multiplied by the pivot and divided by the previous one (left as it
    is when the two are equal), without the second product.  Row k of
    the result is zero left of its pivot, the last pivot is the
    determinant of the pivot block of the permuted rows, and the sign
    (+1 or -1) is that of the row permutation.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ShapeError("ragged rows")
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = r
        while piv < m and not a[piv][c]:
            piv += 1
        if piv == m:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        ar = a[r]
        pk = ar[c]
        cols = range(c + 1, n)
        for i in range(r + 1, m):
            ai = a[i]
            aic = ai[c]
            if aic:
                for j in cols:
                    ai[j] = (pk * ai[j] - aic * ar[j]) // prev
                ai[c] = 0
            elif pk != prev:
                for j in cols:
                    ai[j] = pk * ai[j] // prev
        prev = pk
        pivots.append(c)
    return a, pivots, sign


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
