"""Combinatorial facet oracle for the face-maximizing family.

A d-subset of the curve points spans a simplex facet exactly when it is
not contained in the flat prefix block and satisfies the evenness rule:
between any two points outside the subset, an even number of subset
points occur.  The prefix block itself is the one non-simplex facet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .enumerative import ASPParams, binom
from .errors import DomainError


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
    """All-pairs evenness: every out-pair sees an even subset count between."""
    inside = set(q.subset)
    outside = [v for v in range(1, q.params.n + 1) if v not in inside]
    for i, u in enumerate(outside):
        for v in outside[i + 1 :]:
            between = sum(1 for w in q.subset if u < w < v)
            if between % 2:
                return False
    return True


def special_block(params: ASPParams) -> frozenset[int]:
    """Vertex ids of the flat prefix block (the non-simplex facet for s > 0)."""
    return frozenset(range(1, params.d + params.s + 1))


def simplex_facets(params: ASPParams) -> list[frozenset[int]]:
    """Gale-even d-subsets not inside the prefix block, sorted."""
    block = special_block(params)
    out = []
    for sub in combinations(range(1, params.n + 1), params.d):
        fs = frozenset(sub)
        if fs <= block:
            continue
        if gale_even(GaleQuery(params, sub)):
            out.append(fs)
    return sorted(out, key=lambda f: tuple(sorted(f)))


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
    out = []
    for sub in combinations(sorted(block), params.d):
        fs = frozenset(sub)
        if fs == block:
            continue
        if gale_even(GaleQuery(params, sub)):
            out.append(fs)
    return sorted(out, key=lambda f: tuple(sorted(f)))


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
