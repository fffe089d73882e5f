#!/usr/bin/env python3
"""Key-lemma certificates: one constrained shelling and its prefix defects per pair.

For each cell with d in the --d range and each vertex v of the special
facet, key_lemma_certificate searches Q, the ball plus a cone from a new
vertex y over the special facet's boundary, for a shelling that starts
with the facets containing y and continues with the rest of the star of
v.  No point is placed.  Each pair is reported as certified, with the
least key-lemma prefix defect and the defects after the last step, or as
inconclusive when the greedy search gets stuck.

Usage: python3 scripts/shelling_experiment.py [--d 4..5] [--n-span 4] [--out report.json]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aspoly.cli import parse_range
from aspoly.complexes import key_lemma_certificate
from aspoly.curves import almost_cyclic_points
from aspoly.enumerative import ASPParams
from aspoly.errors import AspolyError
from aspoly.hull import asp_geometry, key_shelling_defects


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", default="4..5")
    ap.add_argument("--n-span", type=int, default=4)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    try:
        ds = parse_range(args.d, "--d")
    except AspolyError as exc:
        ap.error(str(exc))
    if args.n_span < 1:
        ap.error(f"--n-span must be at least 1, got {args.n_span}")

    rows = []
    attempted = certified = negatives = 0
    for d in ds:
        for s in (0, 1, 2, 3):
            for n in range(d + s + 1, d + s + args.n_span + 1):
                p = ASPParams(d, n, s)
                asp = asp_geometry(almost_cyclic_points(p), range(1, d + 1)).ball
                for v in range(1, d + s + 1):
                    attempted += 1
                    cert = key_lemma_certificate(asp, v)
                    if cert is None:
                        rows.append({"cell": [d, n, s], "v": v, "status": "inconclusive"})
                        continue
                    certified += 1
                    defects = key_shelling_defects(cert, n + 1, v)
                    min_defect = min(x for row in defects for x in row)
                    if min_defect < 0:
                        negatives += 1
                    rows.append(
                        {
                            "cell": [d, n, s],
                            "v": v,
                            "status": "certified",
                            "min_defect": min_defect,
                            "final_defects": list(defects[-1]),
                        }
                    )
    summary = {
        "attempted": attempted,
        "certified": certified,
        "rate": round(certified / attempted, 4) if attempted else None,
        "negative_defects": negatives,
        "rows": rows,
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"\n{certified}/{attempted} certified, {negatives} negative-defect certificates", file=sys.stderr)
    return 1 if negatives else 0


if __name__ == "__main__":
    sys.exit(main())
