"""Rigidity matrices, stress dimensions, and generic-rank certificates.

Generic rank is estimated by exact rank computation at seeded random
integer embeddings.  Any single embedding only bounds the generic rank
from below, so rigidity and stress-freeness are one-sided certificates:
a hit proves the generic statement, a miss proves nothing.

The rank of one integer rigidity matrix is itself decided exactly, most
often without Bareiss elimination.  Its rank modulo the prime 2^61 - 1
is a lower bound on the rational rank (a minor that is nonzero mod p is
a nonzero integer).  The rank never exceeds the number of edges, and
when the embedded points affinely span R^d the infinitesimal isometries
form a kernel of dimension C(d+1, 2), so it never exceeds
d*n - C(d+1, 2) either.  When the modular rank meets the least of these
proven upper bounds it is the exact rank.  Otherwise (a non-rigid graph
with dependent edges, a flat embedding, or a prime that divides the
relevant minors) the fraction-free Bareiss rank decides.

The vertices' column blocks come in ascending degree.  That keeps the
rank and the left kernel (the stress space), and spares both
eliminations almost all fill-in on stacked graphs (see `_edge_rows`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .complexes import SimplicialComplex, all_faces
from .enumerative import binom
from .errors import DomainError, ShapeError
from .exactnum import RatMatrix, int_rank, rank_mod_p

COORD_BOUND = 2**31


@dataclass(frozen=True)
class Graph:
    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ShapeError(f"edge {sorted(e)} is not an unordered pair")
            if not e <= self.vertices:
                raise ShapeError(f"edge {sorted(e)} leaves the vertex set")

    @staticmethod
    def from_edges(vertices, edges) -> "Graph":
        return Graph(frozenset(vertices), frozenset(frozenset(e) for e in edges))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def to_json(self) -> dict:
        return {"vertices": self.sorted_vertices(), "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json(data: dict) -> "Graph":
        return Graph.from_edges(data["vertices"], data["edges"])


def one_skeleton(c: SimplicialComplex) -> Graph:
    return Graph(frozenset(c.vertex_ids), all_faces(c, 1))


def _edge_rows(g: Graph, embedding: Mapping[int, Sequence]) -> list[list]:
    """Rigidity-matrix rows, one per edge in sorted order.

    The d columns of a vertex form its block, and the blocks come in
    ascending vertex degree, ties by id.  Only a vertex's own edges are
    nonzero in its block.  A vertex of degree d, such as the last one
    stacked, spends all d of them as pivots on its block (at a generic
    embedding), so the fill its elimination makes stays in pivot rows and
    no later row changes.  Low degrees first thus peel a stacked graph
    roughly in reverse stacking order with almost no fill-in, where sorted
    ids start from the oldest, highest-degree vertices and fill the
    matrix.
    """
    missing = [v for v in g.sorted_vertices() if v not in embedding]
    if missing:
        raise DomainError(f"embedding missing vertices {missing}")
    degree = Counter(v for e in g.edges for v in e)
    order = sorted(g.vertices, key=lambda v: (degree[v], v))
    pos = {v: i for i, v in enumerate(order)}
    dims = {len(embedding[v]) for v in order}
    if len(dims) != 1:
        raise ShapeError(f"mixed embedding dimensions {sorted(dims)}")
    d = dims.pop()
    rows = []
    for u, v in g.sorted_edges():
        row = [0] * (d * len(order))
        cu, cv = embedding[u], embedding[v]
        for k in range(d):
            delta = cu[k] - cv[k]
            row[d * pos[u] + k] = delta
            row[d * pos[v] + k] = -delta
        rows.append(row)
    return rows


def rigidity_matrix(g: Graph, embedding: Mapping[int, Sequence]) -> RatMatrix:
    """One row per edge; the left kernel of this matrix is the stress space."""
    rows = _edge_rows(g, embedding)
    if not rows:
        raise DomainError("graph has no edges; the rigidity matrix is empty")
    return RatMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def _rigidity_rank(g: Graph, embedding: Mapping[int, Sequence[int]]) -> int:
    """Exact rank of the rigidity matrix of an integer embedding.

    The modular rank is accepted when it meets a proven upper bound; see
    the module docstring.  Otherwise the Bareiss rank is returned.
    """
    rows = _edge_rows(g, embedding)
    if not rows:
        return 0
    bound = len(rows)
    d = len(rows[0]) // g.n_vertices
    if int_rank([[1, *embedding[v]] for v in g.vertices]) == d + 1:
        bound = min(bound, rigid_rank_target(d, g.n_vertices))
    if rank_mod_p(rows) == bound:
        return bound
    return int_rank(rows)


def stress_dimension(g: Graph, embedding: Mapping[int, Sequence]) -> int:
    if g.n_edges == 0:
        return 0
    # A common positive scale clears the denominators and keeps the rank.
    scale = lcm(*(Fraction(x).denominator for pt in embedding.values() for x in pt))
    scaled = {v: [int(Fraction(x) * scale) for x in pt] for v, pt in embedding.items()}
    return g.n_edges - _rigidity_rank(g, scaled)


@dataclass(frozen=True)
class RigidityReport:
    d: int
    n_vertices: int
    n_edges: int
    best_rank: int
    stress_dim: int
    rigid_certified: bool
    stress_free_certified: bool
    trials: int
    seed: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "best_rank": self.best_rank,
            "stress_dim": self.stress_dim,
            "rigid_certified": self.rigid_certified,
            "stress_free_certified": self.stress_free_certified,
            "trials": self.trials,
            "seed": self.seed,
        }


def rigid_rank_target(d: int, n_vertices: int) -> int:
    return d * n_vertices - binom(d + 1, 2)


def sample_generic(g: Graph, d: int, trials: int = 3, seed: int = 0) -> RigidityReport:
    """Max exact rank over seeded integer embeddings; one-sided certificates.

    Trials are seeded independently, so the merge (max of ranks) does not
    depend on evaluation order; the loop stops early once the rank cannot
    improve further.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if d < 1:
        raise DomainError("dimension must be positive")
    target = rigid_rank_target(d, g.n_vertices)
    cap = min(g.n_edges, max(target, 0))
    best = 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        emb = {
            v: [rng.randrange(-COORD_BOUND, COORD_BOUND) for _ in range(d)]
            for v in g.sorted_vertices()
        }
        best = max(best, _rigidity_rank(g, emb))
        if best == cap:
            break
    return RigidityReport(
        d=d,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        best_rank=best,
        stress_dim=g.n_edges - best,
        rigid_certified=best == target,
        stress_free_certified=best == g.n_edges,
        trials=trials,
        seed=seed,
    )


def g2_of_skeleton(f0: int, f1: int, d: int) -> int:
    return f1 - d * f0 + binom(d + 1, 2)


def kalai_monotonicity_defect(g_p: int, g_f: int) -> int:
    """g2 of the polytope minus g2 of its special facet; nonnegative for
    ASPs with simplicial 2-skeleton."""
    return g_p - g_f
