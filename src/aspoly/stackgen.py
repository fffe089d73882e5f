"""Builders and recognizers for the face-minimizing families.

Everything here is purely combinatorial: stacked spheres, pyramids, the
almost-stacked construction (pyramid over a stacked facet, then repeated
stacking), hyperplane stacking which grows the special facet in place,
and the minimizer recognizer.  The recognizer runs the cell
decomposition of complexes on the boundary sphere, with the special
facet's prime factors as indivisible polyhedral cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .complexes import (
    ASPComplex,
    SimplicialComplex,
    _Cell,
    _cell_decomposition,
    _simplex_cell,
    boundary_of_ball,
    face_key,
    prime_decomposition,
    simplex_join,
)
from .enumerative import ASPParams
from .errors import (
    DomainError,
    InvalidMoveError,
    ShapeError,
    UnsupportedRegimeError,
)


@dataclass(frozen=True)
class Move:
    """One script step: kind 'stack' or 'hstack' plus a facet selector.

    The selector is either an index into the sorted current facet list
    (ball facets for stack, special-facet boundary facets for hstack) or
    an explicit vertex tuple that must match a current facet.
    """

    kind: str
    selector: int | tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("stack", "hstack"):
            raise DomainError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True)
class StackingScript:
    moves: tuple[Move, ...]


def _resolve(selector: int | tuple[int, ...], facets: Iterable[frozenset[int]]):
    ordered = sorted(facets, key=face_key)
    if isinstance(selector, int):
        if not 0 <= selector < len(ordered):
            raise InvalidMoveError(
                f"facet index {selector} out of range 0..{len(ordered) - 1}"
            )
        return ordered[selector]
    fs = frozenset(selector)
    if fs not in set(ordered):
        raise InvalidMoveError(f"{sorted(fs)} is not a facet available to this move")
    return fs


def _stack_facets(
    facets: frozenset[frozenset[int]], target: frozenset[int], w: int
) -> frozenset[frozenset[int]]:
    """Replace one facet by the cone from w over its boundary ridges."""
    return (facets - {target}) | {(target - {x}) | {w} for x in target}


def stacked_sphere(d: int, n: int, script: StackingScript) -> SimplicialComplex:
    """Stacked (d-1)-sphere on vertex ids 1..n driven by a stack script."""
    sphere, _ = _stacked_sphere_with_solids(d, n, script)
    return sphere


def _stacked_sphere_with_solids(
    d: int, n: int, script: StackingScript
) -> tuple[SimplicialComplex, SimplicialComplex]:
    """Stacked sphere plus the solid simplices accumulated while stacking."""
    if d < 2:
        raise DomainError("stacked spheres need dimension at least 2")
    if n < d + 1:
        raise DomainError(f"need at least {d + 1} vertices, got {n}")
    if len(script.moves) != n - d - 1:
        raise ShapeError(
            f"script needs exactly {n - d - 1} moves for n={n}, got {len(script.moves)}"
        )
    base = frozenset(range(1, d + 2))
    facets = frozenset(base - {x} for x in base)
    solids = {base}
    next_id = d + 2
    for mv in script.moves:
        if mv.kind != "stack":
            raise InvalidMoveError("stacked spheres accept only stack moves")
        target = _resolve(mv.selector, facets)
        facets = _stack_facets(facets, target, next_id)
        solids.add(target | {next_id})
        next_id += 1
    return SimplicialComplex.from_facets(facets), SimplicialComplex.from_facets(solids)


def pyramid(base: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over a complex with a fresh apex vertex."""
    if apex in base.vertex_ids:
        raise DomainError(f"apex {apex} already occurs in the base")
    return simplex_join({apex}, base)


def almost_stacked(
    p: ASPParams, script_f: StackingScript, script_p: StackingScript
) -> ASPComplex:
    """The face-count minimizing family: pyramid over a stacked facet, then stack.

    script_f drives the stacked (d-2)-sphere bounding the special facet F
    on ids 1..d+s (s moves); the pyramid apex is d+s+1; script_p then
    stacks n-d-s-1 times over ball facets.  F's stacked triangulation is
    carried on the result for later refinement.  The result is validated
    (its special_boundary is read).
    """
    d, n, s = p.d, p.n, p.s
    f_boundary, f_solids = _stacked_sphere_with_solids(d - 1, d + s, script_f)
    apex = d + s + 1
    ball = pyramid(f_boundary, apex)
    asp = ASPComplex(
        ASPParams(d, apex, s), ball, frozenset(range(1, d + s + 1)), f_solids
    )
    for mv in script_p.moves:
        if mv.kind != "stack":
            raise InvalidMoveError("almost_stacked accepts only stack moves here")
        asp = stack_over(asp, mv.selector)
    if asp.params != p:
        raise ShapeError(
            f"script length mismatch: built {asp.params}, requested {p}"
        )
    asp.special_boundary  # validate_asp
    return asp


def _next_vertex_id(asp: ASPComplex) -> int:
    return max(asp.ball.vertex_ids) + 1


def stack_over(asp: ASPComplex, selector: int | tuple[int, ...]) -> ASPComplex:
    """Stack a fresh vertex over one ball facet; F is untouched.

    Only ball facets are selectable, so the special facet can never be
    stacked over through this operation.
    """
    target = _resolve(selector, asp.ball.facets)
    w = _next_vertex_id(asp)
    ball = SimplicialComplex.from_facets(_stack_facets(asp.ball.facets, target, w))
    q = asp.params
    return ASPComplex(
        ASPParams(q.d, q.n + 1, q.s), ball, asp.special_facet, asp.f_triangulation
    )


def h_stack(asp: ASPComplex, selector: int | tuple[int, ...]) -> ASPComplex:
    """Grow the special facet by stacking inside its own hyperplane.

    The selected boundary facet G of F lies in exactly one ball facet T;
    the new vertex w replaces T by cones over T's other ridges, F gains
    w, and the carried triangulation is stacked over G.  Net effect:
    n and s both grow by one and the ball gains d-2 facets.
    """
    bd = boundary_of_ball(asp.ball)
    g = _resolve(selector, bd.facets)
    if not g <= asp.special_facet:
        raise InvalidMoveError(f"{sorted(g)} does not lie on the special facet")
    hosts = [t for t in asp.ball.facets if g <= t]
    if len(hosts) != 1:
        raise InvalidMoveError(
            f"{sorted(g)} lies in {len(hosts)} ball facets, expected exactly 1"
        )
    t = hosts[0]
    w = _next_vertex_id(asp)
    new_facets = (asp.ball.facets - {t}) | {
        (t - {x}) | {w} for x in t if (t - {x}) != g
    }
    q = asp.params
    tri = asp.f_triangulation
    new_tri = None
    if tri is not None:
        new_tri = SimplicialComplex.from_facets(tri.facets | {g | {w}})
    out = ASPComplex(
        ASPParams(q.d, q.n + 1, q.s + 1),
        SimplicialComplex.from_facets(new_facets),
        asp.special_facet | {w},
        new_tri,
    )
    return out


def trivial_asp(d: int) -> ASPComplex:
    """The d-simplex as an ASP: ball = all facets but {1..d}, which plays F."""
    empty = StackingScript(())
    return almost_stacked(ASPParams(d, d + 1, 0), empty, empty)


def random_scripts(p: ASPParams, seed: int) -> tuple[StackingScript, StackingScript]:
    """Seeded scripts for almost_stacked: facet counts are simulated exactly."""
    rng = random.Random(seed)
    d, n, s = p.d, p.n, p.s
    count = d
    moves_f = []
    for _ in range(s):
        moves_f.append(Move("stack", rng.randrange(count)))
        count += d - 2
    moves_p = []
    ball_count = count
    for _ in range(n - d - s - 1):
        moves_p.append(Move("stack", rng.randrange(ball_count)))
        ball_count += d - 1
    return StackingScript(tuple(moves_f)), StackingScript(tuple(moves_p))


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
    factor: tuple[_Cell, ...], d: int, fset: frozenset[int]
) -> FactorReport:
    verts = frozenset().union(*(c.vertices for c in factor))
    is_simplex = (
        len(verts) == d + 1
        and len(factor) == d + 1
        and all(c.is_simplex(d) for c in factor)
    )
    has_facet_in_f = any(c.vertices <= fset for c in factor)
    pyramid = False
    for c in factor:
        if not c.original_f:
            continue
        apexes = verts - c.vertices
        if len(apexes) != 1:
            continue
        a = next(iter(apexes))
        expected = {r | {a} for r in c.ridges}
        others = {x.vertices for x in factor if x is not c}
        if others == expected and len(factor) == 1 + len(c.ridges):
            pyramid = True
            break
    return FactorReport(tuple(sorted(verts)), is_simplex, has_facet_in_f, pyramid)


def _refined_cells(asp: ASPComplex) -> list[_Cell]:
    """Boundary cells: the special facet's prime factors, then the ball facets."""
    f_factors = prime_decomposition(asp.special_boundary).factors
    cells = [_Cell(frozenset(s.vertex_ids), s.facets, True) for s in f_factors]
    cells.extend(_simplex_cell(b) for b in asp.ball.facets)
    return cells


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
    factors, _ = _cell_decomposition(_refined_cells(asp), d)
    regime = "d4" if d == 4 else "dGT4"

    def factor_key(factor: tuple[_Cell, ...]):
        return face_key(frozenset().union(*(c.vertices for c in factor)))

    reports = tuple(
        _classify_factor(factor, d, asp.special_facet)
        for factor in sorted(factors, key=factor_key)
    )
    if regime == "dGT4":
        ok = all(r.is_simplex for r in reports)
    else:
        ok = all(
            (r.is_simplex and not r.has_facet_in_f) or r.is_pyramid_over_f_factor
            for r in reports
        )
    return MinimizerVerdict(ok, regime, reports)
