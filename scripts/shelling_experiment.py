#!/usr/bin/env python3
"""Constrained-shelling search: the smallest working closeness and key-lemma defects.

For each cell with d in the --d range and each vertex v of the special
facet, a point y is placed beyond the facet close to v (at distance
shrinking in 2^-closeness) and the line through y, perturbed toward v,
is tested for an order that starts with the facets containing y and
continues with the rest of the star of v.  The closeness runs up a
doubling ladder to the first rung that certifies, then is bisected
below that rung, down to the previous one, to report the smallest
working closeness of each pair (exact when success is monotone in the
closeness).  The certificate at that closeness is checked for
nonnegative prefix defects.

Usage: python3 scripts/shelling_experiment.py [--d 4..5] [--n-span 4] [--out report.json]
"""

import argparse
import json
import sys
from collections import Counter

sys.path.insert(0, "src")

from aspoly.cli import parse_range
from aspoly.curves import almost_cyclic_points
from aspoly.enumerative import ASPParams
from aspoly.hull import asp_geometry, key_lemma_rung, key_shelling_defects


def smallest_closeness(geom, v, ladder):
    """(closeness, certificate) at the smallest working closeness, or (None, None)."""
    below = -1
    for rung in ladder:
        cert = key_lemma_rung(geom, v, rung)
        if cert is not None:
            break
        below = rung
    else:
        return None, None
    while rung - below > 1:
        mid = (below + rung) // 2
        found = key_lemma_rung(geom, v, mid)
        if found is None:
            below = mid
        else:
            rung, cert = mid, found
    return rung, cert


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", default="4..5")
    ap.add_argument("--n-span", type=int, default=4)
    ap.add_argument("--closeness", type=int, nargs="+", default=[12, 24, 48, 96, 192])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    by_closeness = Counter()
    rows = []
    attempted = certified = negatives = 0
    for d in parse_range(args.d):
        for s in (0, 1, 2, 3):
            for n in range(d + s + 1, d + s + args.n_span + 1):
                p = ASPParams(d, n, s)
                geom = asp_geometry(almost_cyclic_points(p), range(1, d + 1))
                for v in range(1, d + s + 1):
                    attempted += 1
                    closeness, cert = smallest_closeness(geom, v, args.closeness)
                    if cert is None:
                        rows.append({"cell": [d, n, s], "v": v, "status": "inconclusive"})
                        continue
                    certified += 1
                    by_closeness[closeness] += 1
                    defects = key_shelling_defects(cert, n + 1, v)
                    min_defect = min(x for row in defects for x in row)
                    if min_defect < 0:
                        negatives += 1
                    rows.append(
                        {
                            "cell": [d, n, s],
                            "v": v,
                            "status": "certified",
                            "closeness": closeness,
                            "min_defect": min_defect,
                            "final_defects": list(defects[-1]),
                        }
                    )
    summary = {
        "attempted": attempted,
        "certified": certified,
        "rate": round(certified / attempted, 4) if attempted else None,
        "negative_defects": negatives,
        "certificates_by_closeness": dict(sorted(by_closeness.items())),
        "max_closeness": max(by_closeness, default=None),
        "rows": rows,
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(
        f"\n{certified}/{attempted} certified, {negatives} negative-defect certificates, "
        f"smallest working closeness at most {summary['max_closeness']}",
        file=sys.stderr,
    )
    return 1 if negatives else 0


if __name__ == "__main__":
    sys.exit(main())
