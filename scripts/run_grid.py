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

from aspoly.cli import Artifact, check_ds, check_gale, check_ridge, parse_range
from aspoly.curves import almost_cyclic_points
from aspoly.enumerative import ASPParams, check_asp_bounds, f_almost_cyclic
from aspoly.hull import asp_geometry
from aspoly.stackgen import random_minimizer


def run_cell(p, seed):
    geom = asp_geometry(almost_cyclic_points(p), range(1, p.d + 1))
    cyclic = Artifact(geom.ball, kind="cyclic-asp")
    stacked = random_minimizer(p, seed)
    f_c, f_s = geom.ball.f_polytope(), stacked.f_polytope()
    bounds = check_asp_bounds(f_s, p)
    both = (cyclic, Artifact(stacked))
    checks = {
        "gale": check_gale(cyclic)[0],
        "form": f_c.entries == f_almost_cyclic(p).entries,
        "bounds": bounds.all_ok and bounds.all_equal_lower,
        "ds": all(check_ds(art)[0] for art in both),
        "ridge": all(check_ridge(art)[0] for art in both),
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
