"""Combinatorial facet prediction for the face-maximizing family.

A d-subset of the curve points 1..n spans a simplex facet exactly when
it is not inside the flat prefix block 1..d+s and is Gale-even (Gale
1963; Ziegler, Lectures on Polytopes, Thm 0.7): every maximal run of
consecutive subset points has even length, unless the run contains 1
or n.  The prefix block itself is the one non-simplex facet.

The subsets are generated, not filtered out of all C(n, d): a
depth-first walk includes or skips each position in turn, and skips
only where the current run may end.  Including first yields
lexicographic order, and a branch is cut once fewer positions remain
than points to pick, so the cost follows the output.
"""

from __future__ import annotations

from .enumerative import ASPParams, binom
from .errors import DomainError


def _gale_even_subsets(n: int, k: int, last: int) -> list[tuple[int, ...]]:
    """Gale-even k-subsets of 1..n within 1..last, in lexicographic order."""
    out, picked = [], []

    def walk(i: int, left: int, run: int) -> None:
        # Positions below i are decided and the last `run` of them picked.
        # The run may end at an even length or if it started at 1; one
        # that reaches n may end at any length.
        may_end = run % 2 == 0 or run == i - 1
        if left == 0:
            if may_end or i > n:
                out.append(tuple(picked))
            return
        if last - i + 1 < left:
            return
        picked.append(i)
        walk(i + 1, left - 1, run + 1)
        picked.pop()
        if may_end:
            walk(i + 1, left, 0)

    walk(1, k, 0)
    return out


def special_block(params: ASPParams) -> frozenset[int]:
    """Vertex ids of the flat prefix block (the non-simplex facet for s > 0)."""
    return frozenset(range(1, params.d + params.s + 1))


def simplex_facets(params: ASPParams) -> list[frozenset[int]]:
    """Gale-even d-subsets not inside the prefix block, sorted."""
    top = params.d + params.s
    subsets = _gale_even_subsets(params.n, params.d, params.n)
    return [frozenset(sub) for sub in subsets if sub[-1] > top]


def almost_cyclic_facets(params: ASPParams) -> list[frozenset[int]]:
    """All facets: the prefix block first, then the simplex facets.

    For s = 0 the block has d vertices and is itself Gale-even, so the
    result is the classical cyclic facet list with the block merely
    designated as first.
    """
    block = special_block(params)
    return [block] + simplex_facets(params)


def interior_tuples(params: ASPParams) -> list[frozenset[int]]:
    """Gale-even d-subsets strictly inside the prefix block, uninterpreted."""
    block = special_block(params)
    tuples = (frozenset(sub) for sub in _gale_even_subsets(params.n, params.d, len(block)))
    return [t for t in tuples if t != block]


def simplex_facet_count_even_d(params: ASPParams) -> int:
    """Closed-form simplex-facet count, even d only."""
    d, n, s = params.d, params.n, params.s
    if d % 2:
        raise DomainError("closed form applies to even d only")
    half = d // 2
    total = binom(n - half - 1, half)
    for i in range(half):
        total += 2 * binom(n - d - 1 + i, i)
    return total - binom(s + half, half)
