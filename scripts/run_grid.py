#!/usr/bin/env python3
"""Sweep the (d, n, s) grid: build both extremal families and cross-check.

For every cell the almost-cyclic instance is built geometrically (exact
hull enumeration of the modified moment curve) and compared against the
combinatorial prediction; a seeded almost-stacked instance is built for
the same parameters.  Prints one row per cell with the f-vectors and the
results of bounds / Dehn-Somerville / ridge checks.

Usage: python3 scripts/run_grid.py [--d 3..6] [--s 0..3] [--n-span 5] [--seed 0]
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from aspoly.complexes import boundary_of_ball, f_vector
from aspoly.curves import almost_cyclic_points
from aspoly.enumerative import (
    ASPParams,
    check_asp_bounds,
    dehn_sommerville_defect,
    f_almost_cyclic,
    g_from_h,
    h_from_f,
    ridge_identity_defect,
)
from aspoly.gale import almost_cyclic_facets
from aspoly.hull import asp_geometry
from aspoly.stackgen import random_minimizer


def parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return range(int(text), int(text) + 1)


def ds_zero(ball):
    h_ball = h_from_f(f_vector(ball))
    g_bd = g_from_h(h_from_f(f_vector(boundary_of_ball(ball))))
    return all(x == 0 for x in dehn_sommerville_defect(h_ball, g_bd))


def run_cell(p, seed):
    geom = asp_geometry(almost_cyclic_points(p), range(1, p.d + 1))
    gale_ok = {f.vertex_ids for f in geom.facets} == {
        frozenset(x) for x in almost_cyclic_facets(p)
    }
    f_c = geom.ball.f_polytope()
    form_ok = f_c.entries == f_almost_cyclic(p).entries
    stacked = random_minimizer(p, seed)
    f_s = stacked.f_polytope()
    bounds = check_asp_bounds(f_s, p)
    bounds_ok = all(v.lower_ok and v.upper_ok and v.equal_lower for v in bounds.verdicts)
    ridge_ok = all(
        ridge_identity_defect(asp.f_polytope(), f_vector(boundary_of_ball(asp.ball))) == 0
        for asp in (geom.ball, stacked)
    )
    checks = {
        "gale": gale_ok,
        "form": form_ok,
        "bounds": bounds_ok,
        "ds": ds_zero(geom.ball.ball) and ds_zero(stacked.ball),
        "ridge": ridge_ok,
    }
    return f_c, f_s, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", default="3..6")
    ap.add_argument("--s", default="0..3")
    ap.add_argument("--n-span", type=int, default=5)
    ap.add_argument("--n-cap", type=int, default=14)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    started = time.monotonic()
    failures = 0
    print(f"{'cell':>12}  {'f(C)':<24} {'f(S)':<24} checks")
    for d in parse_range(args.d):
        for s in parse_range(args.s):
            for n in range(d + s + 1, min(d + s + args.n_span, args.n_cap) + 1):
                p = ASPParams(d, n, s)
                f_c, f_s, checks = run_cell(p, args.seed)
                bad = [k for k, ok in checks.items() if not ok]
                failures += len(bad)
                status = "ok" if not bad else "FAIL " + ",".join(bad)
                cell = f"({d},{n},{s})"
                print(
                    f"{cell:>12}  {str(list(f_c.entries)):<24} "
                    f"{str(list(f_s.entries)):<24} {status}"
                )
    print(f"\n{time.monotonic() - started:.1f}s, {failures} check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
