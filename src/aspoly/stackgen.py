"""Builders and recognizers for the face-minimizing families.

Everything here is purely combinatorial: stacked spheres, pyramids, the
almost-stacked construction (pyramid over a stacked facet, then repeated
stacking), hyperplane stacking which grows the special facet in place,
and the minimizer recognizer.  A stacking step names its facet by an
index into the sorted facet list, so a script is a tuple of ints.  The
recognizer runs the cell decomposition of complexes on the boundary
sphere, with the special facet's prime factors as indivisible
polyhedral cells; it builds the cells and classifies the factors on
the decomposition's vertex bitmasks, and reports vertex ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import (
    ASPComplex,
    SimplicialComplex,
    _MaskCell,
    _cell_decomposition,
    _face_ids,
    _mask,
    _simplex_cell,
    _vertex_bits,
    boundary_of_ball,
    face_key,
    prime_decomposition,
)
from .enumerative import ASPParams
from .errors import (
    DomainError,
    InvalidMoveError,
    ShapeError,
    UnsupportedRegimeError,
)


def _resolve(index: int, facets: Iterable[frozenset[int]]) -> frozenset[int]:
    """The facet at this index of the sorted facet list."""
    ordered = sorted(facets, key=face_key)
    if not 0 <= index < len(ordered):
        raise InvalidMoveError(f"facet index {index} out of range 0..{len(ordered) - 1}")
    return ordered[index]


def _stack_facets(
    facets: frozenset[frozenset[int]], target: frozenset[int], w: int
) -> frozenset[frozenset[int]]:
    """Replace one facet by the cone from w over its boundary ridges."""
    return (facets - {target}) | {(target - {x}) | {w} for x in target}


def _stacked_sphere_with_solids(
    d: int, n: int, moves: tuple[int, ...]
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Stacked (d-1)-sphere on vertex ids 1..n, each move the index of the
    facet stacked over, plus the solid simplices accumulated while stacking."""
    if d < 2:
        raise DomainError("stacked spheres need dimension at least 2")
    if n < d + 1:
        raise DomainError(f"need at least {d + 1} vertices, got {n}")
    if len(moves) != n - d - 1:
        raise ShapeError(f"script needs exactly {n - d - 1} moves for n={n}, got {len(moves)}")
    base = frozenset(range(1, d + 2))
    facets = frozenset(base - {x} for x in base)
    solids = {base}
    next_id = d + 2
    for index in moves:
        target = _resolve(index, facets)
        facets = _stack_facets(facets, target, next_id)
        solids.add(target | {next_id})
        next_id += 1
    return SimplicialComplex.from_facets(facets), SimplicialComplex.from_facets(solids)


def pyramid(base: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over a complex with a fresh apex vertex."""
    if apex in base.vertex_ids:
        raise DomainError(f"apex {apex} already occurs in the base")
    return SimplicialComplex.from_facets(g | {apex} for g in base.facets)


def almost_stacked(
    p: ASPParams, f_moves: tuple[int, ...], p_moves: tuple[int, ...]
) -> ASPComplex:
    """The face-count minimizing family: pyramid over a stacked facet, then stack.

    f_moves builds the stacked (d-2)-sphere bounding the special facet F
    on ids 1..d+s (s moves); the pyramid apex is d+s+1; p_moves then
    stacks n-d-s-1 times over ball facets.  Each move is a facet index.
    F's stacked triangulation is carried on the result for later
    refinement.  The result is validated (its special_boundary is read).
    """
    d, n, s = p.d, p.n, p.s
    f_boundary, f_solids = _stacked_sphere_with_solids(d - 1, d + s, f_moves)
    apex = d + s + 1
    ball = pyramid(f_boundary, apex)
    asp = ASPComplex(
        ASPParams(d, apex, s), ball, frozenset(range(1, d + s + 1)), f_solids
    )
    for index in p_moves:
        asp = stack_over(asp, index)
    if asp.params != p:
        raise ShapeError(
            f"script length mismatch: built {asp.params}, requested {p}"
        )
    asp.special_boundary  # validate_asp
    return asp


def _next_vertex_id(asp: ASPComplex) -> int:
    return max(asp.ball.vertex_ids) + 1


def stack_over(asp: ASPComplex, index: int) -> ASPComplex:
    """Stack a fresh vertex over the ball facet at this sorted index; F is untouched.

    Only ball facets are selectable, so the special facet can never be
    stacked over through this operation.
    """
    target = _resolve(index, asp.ball.facets)
    w = _next_vertex_id(asp)
    ball = SimplicialComplex.from_facets(_stack_facets(asp.ball.facets, target, w))
    q = asp.params
    return ASPComplex(
        ASPParams(q.d, q.n + 1, q.s), ball, asp.special_facet, asp.f_triangulation
    )


def h_stack(asp: ASPComplex, index: int) -> ASPComplex:
    """Grow the special facet by stacking inside its own hyperplane.

    The facet G of F's boundary at this sorted index is a boundary ridge
    of the ball, so it lies in exactly one ball facet T; the new vertex w
    replaces T by cones over T's other ridges, F gains w, and the carried
    triangulation is stacked over G.  Net effect: n and s both grow by one
    and the ball gains d-2 facets.
    """
    g = _resolve(index, boundary_of_ball(asp.ball).facets)
    t = next(t for t in asp.ball.facets if g <= t)
    w = _next_vertex_id(asp)
    new_facets = (asp.ball.facets - {t}) | {
        (t - {x}) | {w} for x in t if (t - {x}) != g
    }
    q = asp.params
    tri = asp.f_triangulation
    new_tri = None
    if tri is not None:
        new_tri = SimplicialComplex.from_facets(tri.facets | {g | {w}})
    return ASPComplex(
        ASPParams(q.d, q.n + 1, q.s + 1),
        SimplicialComplex.from_facets(new_facets),
        asp.special_facet | {w},
        new_tri,
    )


def trivial_asp(d: int) -> ASPComplex:
    """The d-simplex as an ASP: ball = all facets but {1..d}, which plays F.

    The instance is not validated here: its special_boundary is checked
    on first read, so a walk that starts here and moves on checks only
    what it ends with.
    """
    p = ASPParams(d, d + 1, 0)
    f = frozenset(range(1, d + 1))
    ball = SimplicialComplex.from_facets((f - {x}) | {d + 1} for x in f)
    return ASPComplex(p, ball, f, SimplicialComplex.from_facets([f]))


def random_scripts(p: ASPParams, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeded facet indices for almost_stacked: facet counts are simulated exactly."""
    rng = random.Random(seed)
    d, n, s = p.d, p.n, p.s
    count = d
    moves_f = []
    for _ in range(s):
        moves_f.append(rng.randrange(count))
        count += d - 2
    moves_p = []
    ball_count = count
    for _ in range(n - d - s - 1):
        moves_p.append(rng.randrange(ball_count))
        ball_count += d - 1
    return tuple(moves_f), tuple(moves_p)


def random_minimizer(p: ASPParams, seed: int, style: str = "stack") -> ASPComplex:
    """Seeded minimizer instance, by scripts ('stack') or h-stacking ('hstack'), validated."""
    if style == "stack":
        sf, sp = random_scripts(p, seed)
        return almost_stacked(p, sf, sp)
    if style != "hstack":
        raise DomainError(f"unknown style {style!r}")
    rng = random.Random(seed)
    d, n, s = p.d, p.n, p.s
    kinds = ["hstack"] * s + ["stack"] * (n - d - 1 - s)
    rng.shuffle(kinds)
    asp = trivial_asp(d)
    # The special facet's boundary starts with d facets; h_stack adds d-2.
    f_count = d
    for kind in kinds:
        if kind == "stack":
            asp = stack_over(asp, rng.randrange(len(asp.ball.facets)))
        else:
            asp = h_stack(asp, rng.randrange(f_count))
            f_count += d - 2
    asp.special_boundary  # validate_asp
    return asp


@dataclass(frozen=True)
class FactorReport:
    vertices: tuple[int, ...]
    is_simplex: bool
    has_facet_in_f: bool
    is_pyramid_over_f_factor: bool


@dataclass(frozen=True)
class MinimizerVerdict:
    is_minimizer: bool
    regime: str
    factor_reports: tuple[FactorReport, ...]

    def to_json(self) -> dict:
        return {
            "is_minimizer": self.is_minimizer,
            "regime": self.regime,
            "factors": [
                {
                    "vertices": list(r.vertices),
                    "is_simplex": r.is_simplex,
                    "has_facet_in_f": r.has_facet_in_f,
                    "is_pyramid_over_f_factor": r.is_pyramid_over_f_factor,
                }
                for r in self.factor_reports
            ],
        }


def _classify_factor(
    part: list[int], cells: list[_MaskCell], n_f: int, d: int, fmask: int, ids: Sequence[int]
) -> FactorReport:
    """Report on one factor, its cells given by index; the first n_f cells are F's factors."""
    verts = 0
    for i in part:
        verts |= cells[i][0]
    is_simplex = (
        verts.bit_count() == d + 1
        and len(part) == d + 1
        and all(cells[i][0].bit_count() == d for i in part)
    )
    has_facet_in_f = any(not cells[i][0] & ~fmask for i in part)
    pyramid = False
    for i in part:
        if i >= n_f:
            continue
        m, ridges = cells[i]
        apex = verts & ~m
        if not apex or apex & (apex - 1):
            continue
        expected = {r | apex for r in ridges}
        others = {cells[j][0] for j in part if j != i}
        if others == expected and len(part) == 1 + len(ridges):
            pyramid = True
            break
    return FactorReport(tuple(_face_ids(verts, ids)), is_simplex, has_facet_in_f, pyramid)


def _refined_cells(asp: ASPComplex, bit: dict[int, int]) -> tuple[list[_MaskCell], int]:
    """Boundary cells as masks under bit: the special facet's prime factors, then the ball facets.

    Also returns the number of factor cells.
    """
    cells = [
        (_mask(s.vertex_ids, bit), tuple(_mask(g, bit) for g in s.facets))
        for s in prime_decomposition(asp.special_boundary)
    ]
    n_f = len(cells)
    cells.extend(_simplex_cell(_mask(b, bit)) for b in asp.ball.facets)
    return cells, n_f


def recognize_minimizer(asp: ASPComplex) -> MinimizerVerdict:
    """Decide minimality structurally via the refined prime decomposition.

    The boundary sphere is refined by replacing the special facet with
    the polyhedral cells of its own prime decomposition; the sphere is
    then decomposed along missing facet-size simplices.  For d > 4 every
    factor must be a simplex; for d = 4 each factor must be a simplex
    with no cell inside the special facet, or a pyramid over one of the
    facet's prime factors (any valid apex accepted).  d = 3 is rejected:
    there every instance has the minimal f-vector and the structural
    test carries no information.  The special facet's boundary is
    asp.special_boundary, so an instance validated before is not
    validated again.
    """
    d = asp.params.d
    if d == 3:
        raise UnsupportedRegimeError(
            "every 3-dimensional instance is a minimizer; nothing to recognize"
        )
    ids = asp.ball.vertex_ids
    bit = _vertex_bits(ids)
    cells, n_f = _refined_cells(asp, bit)
    cells, parts, _ = _cell_decomposition(cells, d, ids)
    regime = "d4" if d == 4 else "dGT4"
    fmask = _mask(asp.special_facet, bit)
    reports = tuple(
        sorted(
            (_classify_factor(part, cells, n_f, d, fmask, ids) for part in parts),
            key=lambda r: r.vertices,
        )
    )
    if regime == "dGT4":
        ok = all(r.is_simplex for r in reports)
    else:
        ok = all(
            (r.is_simplex and not r.has_facet_in_f) or r.is_pyramid_over_f_factor
            for r in reports
        )
    return MinimizerVerdict(ok, regime, reports)
