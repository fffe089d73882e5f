"""Rigidity ranks, stress dimensions, and generic-rank certificates.

Generic rank is estimated by exact rank computation at seeded random
integer embeddings.  Any single embedding only bounds the generic rank
from below, so rigidity and stress-freeness are one-sided certificates:
a hit proves the generic statement, a miss proves nothing.

The rank of one integer rigidity matrix is decided exactly, most often
without eliminating the matrix at all.  It never exceeds the number of
edges E.  The matrix of any graph on n vertices is a row subset of the
matrix of K_n at the same embedding, and no embedding's rank exceeds the
generic one (Asimow-Roth: the generic rank is the maximum over all
embeddings); for n >= d the generic rank of K_n is d*n - C(d+1, 2), so
the rank never exceeds that either, whether or not the points span R^d.
For n < d that number is below K_n's generic rank C(n, 2), and E alone
bounds.  A lower bound that meets the least of these proven upper bounds
is the exact rank, so no rank of the embedding itself is computed.  Two
lower bounds are tried, the cheap one first:

- A trilateration certificate (Tay-Whiteley's Henneberg orders).  Order
  the vertices v1 ... vn, group the edge rows by their later endpoint
  vk, and put the vertex column blocks in reverse order.  Row group k is
  zero left of vk's block, so the matrix is in block echelon form and
  its rank is at least the sum over k of rank(D_k), where D_k holds the
  d-vectors p(vk) - p(u) for the earlier neighbours u of vk.  Each D_k
  has d columns, so the sum costs n small eliminations, each an exact
  Bareiss rank.  A (d+1)-clique followed by vertices with at least d
  earlier neighbours reaches the rigid bound; at most d earlier
  neighbours per vertex reach the edge bound.  One greedy order serves
  both: next is the unplaced vertex with the most placed neighbours,
  ties by smallest id.
- The rank of the full matrix modulo the prime 2^61 - 1, which is a
  lower bound on the rational rank (a minor that is nonzero mod p is a
  nonzero integer).

When neither meets the bound (a graph with dependent edges; a flat
embedding; or a prime that divides the relevant minors of the full
matrix) the fraction-free Bareiss rank of the full matrix decides.  The
full modular rank also covers graphs with no good order: the rigid bound
needs a (d+1)-clique to start from, so the octahedron in R^3, rigid and
stress-free, is decided there.  Every path returns the exact rank, so
which one decides never shows in a result.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import SimplicialComplex, all_faces
from .enumerative import binom
from .errors import DomainError, ShapeError
from .exactnum import int_rank, rank_mod_p

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


def one_skeleton(c: SimplicialComplex) -> Graph:
    return Graph(frozenset(c.vertex_ids), all_faces(c, 1))


def _dimension(g: Graph, embedding: Mapping[int, Sequence]) -> int:
    """The common length of the embedding's points; every vertex needs one."""
    missing = [v for v in g.sorted_vertices() if v not in embedding]
    if missing:
        raise DomainError(f"embedding missing vertices {missing}")
    dims = {len(embedding[v]) for v in g.vertices}
    if len(dims) != 1:
        raise ShapeError(f"mixed embedding dimensions {sorted(dims)}")
    return dims.pop()


def _edge_rows(g: Graph, embedding: Mapping[int, Sequence]) -> list[list]:
    """Rigidity-matrix rows, one per edge in sorted order.

    Only the fallback eliminations of `_rigidity_rank` (and the tests'
    oracles) build the full matrix; the trilateration certificate never
    does.  The d columns of a vertex form its block, and the blocks come
    in ascending vertex degree, ties by id.  Only a vertex's own edges
    are nonzero in its block.  A vertex of degree d, such as the last one
    stacked, spends all d of them as pivots on its block (at a generic
    embedding), so the fill its elimination makes stays in pivot rows and
    no later row changes.  Low degrees first thus peel a stacked graph
    roughly in reverse stacking order with almost no fill-in, where sorted
    ids start from the oldest, highest-degree vertices and fill the
    matrix.
    """
    d = _dimension(g, embedding)
    degree = Counter(v for e in g.edges for v in e)
    order = sorted(g.vertices, key=lambda v: (degree[v], v))
    pos = {v: i for i, v in enumerate(order)}
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


def _trilateration_order(g: Graph) -> list[tuple[int, list[int]]]:
    """Each vertex with its earlier neighbours, in greedy trilateration order.

    Next is the unplaced vertex with the most placed neighbours, ties by
    smallest id.
    """
    adjacent: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    placed_neighbours = dict.fromkeys(g.vertices, 0)
    unplaced = g.sorted_vertices()
    placed: set[int] = set()
    order = []
    while unplaced:
        v = max(unplaced, key=placed_neighbours.__getitem__)
        unplaced.remove(v)
        order.append((v, [u for u in adjacent[v] if u in placed]))
        placed.add(v)
        for u in adjacent[v]:
            placed_neighbours[u] += 1
    return order


def _trilateration_rank(g: Graph, embedding: Mapping[int, Sequence[int]]) -> int:
    """The sum over the trilateration order of rank(D_k), a lower bound on the rank.

    D_k holds p(vk) - p(u) for the earlier neighbours u of vk; see the
    module docstring for why the sum bounds the rigidity rank from below.
    Each D_k has d columns and is ranked exactly, by Bareiss.
    """
    total = 0
    for v, earlier in _trilateration_order(g):
        if earlier:
            pv = embedding[v]
            total += int_rank([[a - b for a, b in zip(pv, embedding[u])] for u in earlier])
    return total


def _rigidity_rank(g: Graph, embedding: Mapping[int, Sequence[int]]) -> int:
    """Exact rank of the rigidity matrix of an integer embedding.

    The trilateration sum, and then the modular rank of the full matrix,
    is accepted when it meets a proven upper bound; see the module
    docstring.  Otherwise the Bareiss rank is returned.
    """
    d = _dimension(g, embedding)
    if not g.edges:
        return 0
    bound = g.n_edges
    if g.n_vertices >= d:
        bound = min(bound, rigid_rank_target(d, g.n_vertices))
    if _trilateration_rank(g, embedding) == bound:
        return bound
    rows = _edge_rows(g, embedding)
    if rank_mod_p(rows) == bound:
        return bound
    return int_rank(rows)


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
