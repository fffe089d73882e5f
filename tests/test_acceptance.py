"""Acceptance gate: one test and one printed pass/fail line per criterion.

The grid is d in 3..6, s in 0..3, n from d+s+1 to d+s+5 capped at 14.
Geometric instances are built once per session and shared; every check
is exact (integer or rational arithmetic throughout).
"""

import time

import pytest

from aspoly.cli import Artifact, check_ds, check_ridge, stacking_identity
from aspoly.curves import almost_cyclic_points
from aspoly.enumerative import (
    ASPParams,
    check_asp_bounds,
    f_almost_cyclic,
    f_almost_stacked,
)
from aspoly.gale import almost_cyclic_facets, simplex_facet_count_even_d
from aspoly.hull import (
    asp_geometry,
    key_lemma_rung,
    key_shelling_defects,
    line_shelling,
    stack_over_special,
)
from aspoly.rigidity import g2_of_skeleton, one_skeleton, sample_generic
from aspoly.stackgen import pyramid, random_minimizer, recognize_minimizer
from aspoly.complexes import ASPComplex, SimplicialComplex, validate_asp
from test_hull import neighborliness, simpliciality

GRID = [
    (d, n, s)
    for d in (3, 4, 5, 6)
    for s in (0, 1, 2, 3)
    for n in range(d + s + 1, min(d + s + 5, 14) + 1)
]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def grid_geometry():
    started = time.monotonic()
    cells = {}
    for (d, n, s) in GRID:
        cells[(d, n, s)] = asp_geometry(
            almost_cyclic_points(ASPParams(d, n, s)), range(1, d + 1)
        )
    return cells, time.monotonic() - started


@pytest.fixture(scope="session")
def grid_minimizers():
    out = {}
    for (d, n, s) in GRID:
        p = ASPParams(d, n, s)
        style = "hstack" if (s > 0 and (d + n + s) % 2 == 0) else "stack"
        out[(d, n, s)] = random_minimizer(p, seed=d * 1000 + n * 10 + s, style=style)
    return out


def test_criterion_01_gale_geometry_agreement(grid_geometry):
    cells, elapsed = grid_geometry
    mismatches = []
    for (d, n, s), geom in cells.items():
        got = {f.vertex_ids for f in geom.facets}
        predicted = {frozenset(x) for x in almost_cyclic_facets(ASPParams(d, n, s))}
        if got != predicted:
            mismatches.append((d, n, s))
    ok = not mismatches and elapsed < 600
    report(
        1,
        "gale-geometry agreement",
        ok,
        f"{len(cells)} cells, build {elapsed:.1f}s" + (f", bad {mismatches}" if mismatches else ""),
    )


def test_criterion_02_asp_structure(grid_geometry):
    cells, _ = grid_geometry
    bad = []
    for (d, n, s), geom in cells.items():
        big = [f for f in geom.facets if len(f.vertex_ids) > d]
        block = frozenset(range(1, d + s + 1))
        if s == 0:
            if big or block not in {f.vertex_ids for f in geom.facets}:
                bad.append((d, n, s))
        elif len(big) != 1 or big[0].vertex_ids != block:
            bad.append((d, n, s))
    report(2, "single special facet {1..d+s}", not bad, f"bad {bad}" if bad else "")


def test_criterion_03_closed_forms(grid_geometry):
    cells, _ = grid_geometry
    bad = []
    for (d, n, s), geom in cells.items():
        p = ASPParams(d, n, s)
        if geom.ball.f_polytope().entries != f_almost_cyclic(p).entries:
            bad.append((d, n, s, "f"))
        if d % 2 == 0 and len(geom.facets) != simplex_facet_count_even_d(p) + 1:
            bad.append((d, n, s, "count"))
    report(3, "f equals closed form (and even-d facet count)", not bad, str(bad) if bad else "")


def both_families(grid_geometry, grid_minimizers):
    """(family, cell, artifact) for every almost-cyclic, then almost-stacked, instance."""
    for key, geom in grid_geometry[0].items():
        yield "C", key, Artifact(geom.ball)
    for key, asp in grid_minimizers.items():
        yield "S", key, Artifact(asp)


def test_criterion_04_dehn_sommerville(grid_geometry, grid_minimizers):
    bad = [
        (source, key)
        for source, key, art in both_families(grid_geometry, grid_minimizers)
        if not check_ds(art)[0]
    ]
    report(4, "Dehn-Sommerville defect zero for all balls", not bad, str(bad[:4]) if bad else "")


def test_criterion_05_bounds_sandwich():
    bad = []
    count = 0
    for d in (4, 5):
        for i in range(50):
            s = i % 4
            n = d + s + 1 + (i % 4 + i // 13) % 4
            p = ASPParams(d, n, s)
            style = "hstack" if i % 2 else "stack"
            asp = random_minimizer(p, seed=97 * i + d, style=style)
            rep = check_asp_bounds(asp.f_polytope(), p)
            count += 1
            if not all(v.lower_ok and v.upper_ok and v.equal_lower for v in rep.verdicts):
                bad.append((d, i))
    report(5, "LBT/UBT sandwich with lower equality", not bad, f"{count} instances")


def test_criterion_06_dimension_three_profile(grid_geometry):
    cells, _ = grid_geometry
    bad = []
    for (d, n, s), geom in cells.items():
        if d != 3:
            continue
        if geom.ball.f_polytope().entries != (1, n, 3 * n - 6 - s, 2 * n - 4 - s):
            bad.append((n, s))
    report(6, "d=3 profile (1, n, 3n-6-s, 2n-4-s)", not bad, str(bad) if bad else "")


def test_criterion_07_ridge_identity(grid_geometry, grid_minimizers):
    bad = [
        (source, key)
        for source, key, art in both_families(grid_geometry, grid_minimizers)
        if not check_ridge(art)[0]
    ]
    report(7, "ridge identity", not bad, str(bad) if bad else "")


def test_criterion_08_shelling_identities(grid_geometry):
    cells, _ = grid_geometry
    bad = []
    runs = 0
    for (d, n, s), geom in cells.items():
        if d > 5:
            continue
        stacked = stack_over_special(geom, cap=None)
        for seed in range(10):
            _, matches_f, stacks = stacking_identity(line_shelling(stacked, seed), geom.ball)
            runs += 1
            if not matches_f:
                bad.append((d, n, s, seed, "h-from-f"))
            elif not stacks:
                bad.append((d, n, s, seed, "stacking-identity"))
    report(8, "shelling h identities", not bad, f"{runs} shellings" + (f", bad {bad[:3]}" if bad else ""))


def test_criterion_09_key_lemma_defects(grid_geometry):
    cells, _ = grid_geometry
    attempted = 0
    certified = 0
    negative = []
    for (d, n, s), geom in cells.items():
        if d not in (4, 5) or n > d + s + 4:
            continue
        y_id = n + 1
        for v in range(1, d + s + 1):
            attempted += 1
            for closeness in (12, 24, 48, 96):
                cert = key_lemma_rung(geom, v, closeness)
                if cert is not None:
                    break
            else:
                continue
            certified += 1
            defects = key_shelling_defects(cert, y_id, v)
            if any(x < 0 for row in defects for x in row):
                negative.append((d, n, s, v))
    ok = not negative and attempted > 0 and certified == attempted
    report(
        9,
        "key-lemma prefix defects nonnegative",
        ok,
        f"{certified}/{attempted} pairs certified",
    )


def test_criterion_10_rigidity(grid_geometry, grid_minimizers):
    cells, _ = grid_geometry
    bad = []
    for (d, n, s), geom in cells.items():
        if d not in (4, 5):
            continue
        skel = one_skeleton(geom.ball.ball)
        rep = sample_generic(skel, d, trials=3, seed=d * 100 + n)
        g2 = g2_of_skeleton(n, skel.n_edges, d)
        if not rep.rigid_certified or rep.stress_dim != g2:
            bad.append(("C", d, n, s))
    for (d, n, s), asp in grid_minimizers.items():
        if d not in (4, 5):
            continue
        skel = one_skeleton(asp.ball)
        rep = sample_generic(skel, d, trials=3, seed=d * 100 + n + 7)
        g2 = g2_of_skeleton(n, skel.n_edges, d)
        if not (rep.rigid_certified and rep.stress_free_certified and g2 == 0):
            bad.append(("S", d, n, s))
    report(10, "rigid certificates and stress dim = g2", not bad, str(bad[:4]) if bad else "")


def test_criterion_11_minimizer_recognition(grid_geometry, grid_minimizers):
    cells, _ = grid_geometry
    bad = []
    for (d, n, s), asp in grid_minimizers.items():
        if d < 4:
            continue
        if not recognize_minimizer(asp).is_minimizer:
            bad.append(("S", d, n, s))
    octahedron = SimplicialComplex.from_facets(
        [frozenset({a, b, c}) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    )
    pyr = ASPComplex(
        ASPParams(4, 7, 2), pyramid(octahedron, 7), frozenset(range(1, 7)), None
    )
    validate_asp(pyr)
    if not recognize_minimizer(pyr).is_minimizer:
        bad.append(("pyramid-over-octahedron",))
    for (d, n, s), geom in cells.items():
        if d < 4:
            continue
        p = ASPParams(d, n, s)
        if f_almost_cyclic(p).entries == f_almost_stacked(p).entries:
            continue
        if recognize_minimizer(geom.ball).is_minimizer:
            bad.append(("C", d, n, s))
    report(11, "minimizer recognition", not bad, str(bad[:4]) if bad else "")


def test_criterion_12_neighborliness_and_simpliciality(grid_geometry):
    cells, _ = grid_geometry
    bad = []
    for (d, n, s), geom in cells.items():
        target = (d - 1) // 2
        if neighborliness(geom) < target:
            bad.append((d, n, s, "neighborly"))
        if simpliciality(geom) < d - 2:
            bad.append((d, n, s, "simplicial"))
    report(12, "neighborliness and simpliciality", not bad, str(bad) if bad else "")
