"""Earlier implementations of aspoly.complexes, kept as test oracles.

Each function here is the direct version of an indexed one in the
library: faces counted as frozensets, ridges found by sorting the
facets, missing simplices found by testing every ridge-plus-vertex pair,
and a decomposition that rebuilds the ridge incidence at every split.
The property tests check that the library gives the same results.
"""

from itertools import combinations
from typing import Iterable, Sequence

from aspoly.complexes import SimplicialComplex, _Cell, _simplex_cell, face_key
from aspoly.enumerative import FVector
from aspoly.errors import DegeneracyError, DomainError, PseudomanifoldError


def face_set(c: SimplicialComplex) -> frozenset[frozenset[int]]:
    """All faces of c including the empty face."""
    out: set[frozenset[int]] = set()
    for f in c.facets:
        verts = tuple(f)
        for k in range(len(verts) + 1):
            out.update(frozenset(s) for s in combinations(verts, k))
    return frozenset(out)


def f_vector_by_face_set(c: SimplicialComplex) -> FVector:
    if not c.facets:
        raise DomainError("empty complex has no f-vector")
    counts = [0] * (c.dim + 2)
    for f in face_set(c):
        counts[len(f)] += 1
    return FVector(c.dim + 1, tuple(counts))


def ridge_incidence(c: SimplicialComplex) -> dict[frozenset[int], list[frozenset[int]]]:
    """Map each ridge (codimension-1 face) to the facets containing it."""
    inc: dict[frozenset[int], list[frozenset[int]]] = {}
    for g in c.sorted_facets():
        for x in g:
            inc.setdefault(g - {x}, []).append(g)
    return inc


def boundary_by_incidence(c: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by the ridges of ridge_incidence in one facet."""
    if not c.facets:
        raise DomainError("empty complex has no boundary")
    boundary = []
    for ridge, fs in ridge_incidence(c).items():
        if len(fs) > 2:
            raise PseudomanifoldError(f"ridge {sorted(ridge)} lies in {len(fs)} facets")
        if len(fs) == 1:
            boundary.append(ridge)
    return SimplicialComplex.from_facets(boundary)


def cell_missing_by_ridge_scan(cells: Sequence[_Cell], d: int) -> list[frozenset[int]]:
    """Missing simplices, testing every ridge plus every vertex off it."""
    ridges = {r for c in cells for r in c.ridges}
    simplices = {c.vertices for c in cells if c.is_simplex(d)}
    verts = frozenset().union(*(c.vertices for c in cells))
    out = set()
    for r in ridges:
        for x in verts - r:
            a = r | {x}
            if a not in simplices and all(a - {y} in ridges for y in r):
                out.add(a)
    return sorted(out, key=face_key)


def cell_split(cells: Sequence[_Cell], a: frozenset[int]) -> tuple[list[_Cell], list[_Cell]]:
    """Cut a sphere of cells along a missing simplex a, rebuilding the incidence.

    Each part keeps its cells in the given order, with a appended.
    """
    cut = {a - {x} for x in a}
    inc: dict[frozenset[int], list[int]] = {}
    for i, c in enumerate(cells):
        for r in c.ridges:
            inc.setdefault(r, []).append(i)
    for r, owners in inc.items():
        if len(owners) > 2:
            raise PseudomanifoldError(f"ridge {sorted(r)} lies in {len(owners)} cells")

    def reach(i: int) -> set[int]:
        comp, stack = {i}, [i]
        while stack:
            for r in cells[stack.pop()].ridges - cut:
                for nb in inc[r]:
                    if nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
        return comp

    side = reach(0)
    rest = set(range(len(cells))) - side
    if not rest or reach(min(rest)) != rest:
        raise DegeneracyError(f"cutting along {sorted(a)} does not give two components")
    new = _simplex_cell(a)
    return (
        [c for i, c in enumerate(cells) if i in side] + [new],
        [c for i, c in enumerate(cells) if i in rest] + [new],
    )


def carried_missing(
    part: Sequence[_Cell], missing: Iterable[frozenset[int]]
) -> list[frozenset[int]]:
    """The parent's missing simplices whose ridges are all ridges of part."""
    ridges = {r for c in part for r in c.ridges}
    return [m for m in missing if all(m - {x} in ridges for x in m)]


def cell_decomposition_per_split(
    cells: Sequence[_Cell], d: int
) -> tuple[list[tuple[_Cell, ...]], list[tuple[int, int, frozenset[int]]]]:
    """Factors and cut tree, each split building its own part's incidence."""
    factors: list[tuple[_Cell, ...]] = []
    edges: list[tuple[int, int, frozenset[int]]] = []

    def decompose(part: Sequence[_Cell], missing: list[frozenset[int]]) -> list[int]:
        if not missing:
            factors.append(tuple(part))
            return [len(factors) - 1]
        a = missing[0]
        s1, s2 = cell_split(part, a)
        idx1 = decompose(s1, carried_missing(s1, missing[1:]))
        idx2 = decompose(s2, carried_missing(s2, missing[1:]))
        i, j = (
            next(k for k in idx if any(c.vertices == a for c in factors[k]))
            for idx in (idx1, idx2)
        )
        edges.append((i, j, a))
        return idx1 + idx2

    decompose(cells, cell_missing_by_ridge_scan(cells, d))
    return factors, edges
