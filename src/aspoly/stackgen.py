"""Builders and recognizers for the face-minimizing families.

Everything here is purely combinatorial: stacked spheres, pyramids, the
almost-stacked construction (pyramid over a stacked facet, then repeated
stacking), hyperplane stacking which grows the special facet in place,
and the minimizer recognizer.  A stacking step names its facet by an
index into the sorted facet list, so a script is a tuple of ints.  Each
construction runs one walk: the ball's facets, and for hyperplane stacking
the special facet's boundary, are kept as sorted lists that each move
updates by bisection, and the complex is built and validated once, at
the end.  The recognizer cuts the boundary sphere on vertex masks (the
cell decomposition of complexes), with the special facet's prime factors,
read off F's boundary as masks, as indivisible polyhedral cells, and
classifies the factors on those masks; it reports vertex ids.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import (
    ASPComplex,
    SimplicialComplex,
    _MaskCell,
    _cell_decomposition,
    _face_ids,
    _incidence,
    _mask,
    _prime_cells,
    _simplex_cell,
    _vertex_bits,
    boundary_of_ball,
    face_key,
)
from .enumerative import ASPParams
from .errors import (
    DomainError,
    InvalidMoveError,
    ShapeError,
    UnsupportedRegimeError,
)


def _take(faces: list[tuple[int, ...]], index: int) -> tuple[int, ...]:
    """Remove and return the face at this index of a sorted face list."""
    if not 0 <= index < len(faces):
        raise InvalidMoveError(f"facet index {index} out of range 0..{len(faces) - 1}")
    return faces.pop(index)


class _Walk:
    """A run of stacking moves, with the complex built once, at the end.

    The ball's facets are one list of sorted vertex tuples, kept in
    face_key order, so a move reads its facet off the list by index and
    puts the cone over it in by bisection: no move sorts the facets or
    builds a complex.  Each fresh vertex is one above every id so far,
    so a cone's facet (t - x) + w is sorted as written.  For h-stacking
    the special facet's boundary is kept the same way: stacking over a
    ball facet leaves that boundary alone, and h-stacking replaces the
    chosen ridge g by the cone from w over g's ridges.
    """

    def __init__(self, facets: Iterable[Iterable[int]], boundary: Iterable[Iterable[int]] = ()):
        self.facets = sorted(map(face_key, facets))
        self.boundary = sorted(map(face_key, boundary))
        self.next_id = max((f[-1] for f in self.facets), default=0) + 1

    def _fresh(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def pyramid(self) -> None:
        """Cone every facet from a fresh apex; the apex tops every id, so the order holds."""
        apex = self._fresh()
        self.facets = [f + (apex,) for f in self.facets]

    def stack(self, index: int) -> None:
        """Stack a fresh vertex w over the facet at this index."""
        t = _take(self.facets, index)
        w = self._fresh()
        for i in range(len(t)):
            insort(self.facets, t[:i] + t[i + 1 :] + (w,))

    def h_stack(self, index: int) -> int:
        """Grow the special facet over the boundary ridge at this index; returns the fresh w.

        g lies in exactly one ball facet t = g + a, which is replaced by
        the cones from w over t's ridges other than g.
        """
        g = _take(self.boundary, index)
        inside = set(g)
        t = next(t for t in self.facets if inside.issubset(t))
        self.facets.remove(t)
        (a,) = set(t) - inside
        w = self._fresh()
        for i in range(len(g)):
            ridge = g[:i] + g[i + 1 :]
            insort(self.facets, tuple(sorted((*ridge, a))) + (w,))
            insort(self.boundary, ridge + (w,))
        return w


def _stacked_sphere(d: int, n: int, moves: tuple[int, ...]) -> _Walk:
    """The walk holding the stacked (d-1)-sphere on vertex ids 1..n, each
    move the index of the facet stacked over."""
    if d < 2:
        raise DomainError("stacked spheres need dimension at least 2")
    if n < d + 1:
        raise DomainError(f"need at least {d + 1} vertices, got {n}")
    if len(moves) != n - d - 1:
        raise ShapeError(f"script needs exactly {n - d - 1} moves for n={n}, got {len(moves)}")
    base = tuple(range(1, d + 2))
    walk = _Walk(base[:i] + base[i + 1 :] for i in range(d + 1))
    for index in moves:
        walk.stack(index)
    return walk


def almost_stacked(
    p: ASPParams, f_moves: tuple[int, ...], p_moves: tuple[int, ...]
) -> ASPComplex:
    """The face-count minimizing family: pyramid over a stacked facet, then stack.

    f_moves builds the stacked (d-2)-sphere bounding the special facet F
    on ids 1..d+s (s moves); the pyramid apex is d+s+1; p_moves then
    stacks n-d-s-1 times over ball facets.  Each move is a facet index.
    One walk makes every move, and the ball is built once, at the end.
    The result is validated (its special_boundary is read).
    """
    d, s = p.d, p.s
    walk = _stacked_sphere(d - 1, d + s, f_moves)
    walk.pyramid()
    for index in p_moves:
        walk.stack(index)
    built = ASPParams(d, walk.next_id - 1, s)
    if built != p:
        raise ShapeError(f"script length mismatch: built {built}, requested {p}")
    ball = SimplicialComplex.from_facets(walk.facets)
    asp = ASPComplex(p, ball, frozenset(range(1, d + s + 1)))
    asp.special_boundary  # validate_asp
    return asp


def trivial_asp(d: int) -> ASPComplex:
    """The d-simplex as an ASP: ball = all facets but {1..d}, which plays F.

    The instance is not validated here: its special_boundary is checked
    on first read, so a walk that starts here and moves on checks only
    what it ends with.
    """
    p = ASPParams(d, d + 1, 0)
    f = frozenset(range(1, d + 1))
    ball = SimplicialComplex.from_facets((f - {x}) | {d + 1} for x in f)
    return ASPComplex(p, ball, f)


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
    """Seeded minimizer instance, by scripts ('stack') or h-stacking ('hstack'), validated.

    The hstack style starts from trivial_asp(d) and runs one walk, each
    move on a seeded index into the ball's facets or the special facet's
    boundary; the instance is built once, at the end.
    """
    if style == "stack":
        sf, sp = random_scripts(p, seed)
        return almost_stacked(p, sf, sp)
    if style != "hstack":
        raise DomainError(f"unknown style {style!r}")
    rng = random.Random(seed)
    d, n, s = p.d, p.n, p.s
    kinds = ["hstack"] * s + ["stack"] * (n - d - 1 - s)
    rng.shuffle(kinds)
    start = trivial_asp(d)
    walk = _Walk(start.ball.facets, boundary_of_ball(start.ball).facets)
    fresh = []
    for kind in kinds:
        if kind == "stack":
            walk.stack(rng.randrange(len(walk.facets)))
        else:
            fresh.append(walk.h_stack(rng.randrange(len(walk.boundary))))
    ball = SimplicialComplex.from_facets(walk.facets)
    asp = ASPComplex(p, ball, start.special_facet | set(fresh))
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


def _refined_cells(
    asp: ASPComplex, ids: Sequence[int], bit: dict[int, int]
) -> tuple[list[_MaskCell], int]:
    """Boundary cells as masks under bit: the special facet's prime factors, then the ball facets.

    A factor's cell is the union of its facets' masks, with those masks
    as its ridges, read off _prime_cells.  Also returns the number of
    factor cells.
    """
    masks, parts = _prime_cells(asp.special_boundary, ids, bit)
    cells = []
    for part in parts:
        ridges = tuple(masks[i][0] for i in part)
        verts = 0
        for r in ridges:
            verts |= r
        cells.append((verts, ridges))
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
    cells, n_f = _refined_cells(asp, ids, bit)
    cells, parts, _ = _cell_decomposition(cells, d, ids, _incidence(cells))
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
