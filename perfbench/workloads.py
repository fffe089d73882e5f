"""The four workloads: set-up, one op, and the checks on its result.

Each workload is built from the benchmark seed (its set-up) and exposes
``ops``, the list one pass runs.  ``run`` is the timed op: it calls the
library only through ``L``, whose modules record a span per call in a
traced run.  ``check`` runs untimed on the op's result and returns an
``Outcome`` with the op's exact counts.  The library receives only the
generated inputs, never the benchmark seed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from math import comb

# ROADMAP open items whose predicted effect each workload records.
ITEMS = {
    2: "key-lemma search",
    3: "one pipeline, one check registry",
    4: "artifact boundary",
    5: "output-sensitive hull",
}


@dataclass
class Outcome:
    """status: pass, inconclusive, fail (refused or errored) or wrong (bad result)."""

    status: str
    counts: dict[str, int] = field(default_factory=dict)
    detail: str = ""


class HullScan:
    """One op = one almost-cyclic cell at the top of the grid.

    A pass holds one cell for each (d, n) with d in {5, 6} and n in 13..16;
    the seed picks s in 0..3 for each, so every pass does the same C(n, d)
    subset scans while the excess varies between seeds.
    """

    name = "hull_scan"
    why = (
        "the C(n, d) subset scan does almost all the work; no shelling, "
        "stacking or rigidity code runs"
    )
    predictions = {
        2: "unchanged",
        3: "unchanged",
        4: "unchanged",
        5: "moves: ops_per_s up, op_p50_s down, hull.detect_asp.busy_s down; "
        "facets_found / subsets_total is the output-to-scan ratio it changes",
    }

    def __init__(self, lib, seed: int, workdir: str) -> None:
        rng = random.Random(f"hull_scan:{seed}")
        cells = [(d, n, rng.randrange(4)) for d in (5, 6) for n in range(13, 17)]
        rng.shuffle(cells)
        self.ops = [lib.enumerative.ASPParams(d, n, s) for d, n, s in cells]
        self.known_defect_ops: list = []

    def run(self, p, L, tracer):
        config = L.curves.almost_cyclic_points(p)
        geom = L.hull.detect_asp(config, cap=None)
        if geom.ball is None:
            geom = L.hull.designate_special(geom, range(1, p.d + 1))
        predicted = L.gale.almost_cyclic_facets(p)
        f_closed = L.enumerative.f_almost_cyclic(p)
        return geom, predicted, f_closed

    def check(self, p, result) -> Outcome:
        geom, predicted, f_closed = result
        got = [f.vertex_ids for f in geom.facets]
        counts = {
            "hull.facets_found": len(got),
            "hull.subsets_total": comb(p.n, p.d),
        }
        if set(got) != set(predicted) or len(got) != len(predicted):
            return Outcome("wrong", counts, f"{p}: facets differ from the Gale prediction")
        if geom.ball.f_polytope().entries != f_closed.entries:
            return Outcome("wrong", counts, f"{p}: f differs from the closed form")
        return Outcome("pass", counts)


class KeyLemma:
    """One op = one criterion-09 (cell, v) pair, run through the closeness ladder.

    The pairs are a fixed subset of criterion 09's pairs (d in {4, 5},
    n <= d+s+4), drawn once with PAIR_SELECTION_SEED and never by outcome:
    for every (d, s) one cell with n-d-s in {1, 2}, one with n-d-s = 3 and
    one with n-d-s = 4, each with one vertex v of the special facet.  That
    covers the s = 3 cells and the large-n cells where searches use up
    their retries.  A subset drawn per seed would change the cost mix from
    seed to seed (ops_per_s spread 13%, op_p50_s spread 69% over 40 seeds
    in a simulation), so the subset is fixed; the benchmark seed gives the
    search seeds and the op order.
    """

    name = "key_lemma"
    why = (
        "Fraction facet evaluation, shelling verification and many hulls of "
        "10-14 points do the work; the inverse hull size mix of hull_scan"
    )
    predictions = {
        2: "moves: ops_per_s up, op_p50_s down; key_lemma.ladder_steps and "
        "hull.constrained_line_shelling.exhausted move certified_ratio",
        3: "unchanged",
        4: "unchanged",
        5: "moves: stack_over_special re-enumerates hulls of 10-14 points; "
        "a hull that slows small n shows here",
    }

    LADDER = (12, 20, 28, 40)
    PAIR_SELECTION_SEED = 0

    def __init__(self, lib, seed: int, workdir: str) -> None:
        self.errors = lib.errors
        pick = random.Random(self.PAIR_SELECTION_SEED)
        pairs = []
        for d in (4, 5):
            for s in range(4):
                for ks in ((1, 2), (3,), (4,)):
                    n = d + s + pick.choice(ks)
                    pairs.append(((d, n, s), pick.randint(1, d + s)))
        self.geoms = {}
        for d, n, s in sorted({cell for cell, _ in pairs}):
            geom = lib.hull.detect_asp(
                lib.curves.almost_cyclic_points(lib.enumerative.ASPParams(d, n, s)),
                cap=None,
            )
            if geom.ball is None:
                geom = lib.hull.designate_special(geom, range(1, d + 1))
            self.geoms[(d, n, s)] = geom
        rng = random.Random(f"key_lemma:{seed}")
        self.ops = [(cell, v, rng.randrange(2**31)) for cell, v in pairs]
        rng.shuffle(self.ops)
        self.known_defect_ops: list = []

    def run(self, op, L, tracer):
        (d, n, s), v, search_seed = op
        geom = self.geoms[(d, n, s)]
        y = n + 1
        counts = {
            "key_lemma.ladder_steps": 0,
            "hull.stack_over_special.degenerate": 0,
            "hull.constrained_line_shelling.exhausted": 0,
            "hull.constrained_line_shelling.degenerate": 0,
        }
        for closeness in self.LADDER:
            counts["key_lemma.ladder_steps"] += 1
            try:
                stacked = L.hull.stack_over_special(
                    geom, toward=v, closeness=closeness, cap=None
                )
            except self.errors.DegeneracyError:
                counts["hull.stack_over_special.degenerate"] += 1
                continue
            try:
                cert = L.hull.constrained_line_shelling(
                    stacked, y, v, seed=search_seed + closeness
                )
            except self.errors.ShellingSearchError:
                counts["hull.constrained_line_shelling.exhausted"] += 1
                continue
            except self.errors.DegeneracyError:
                counts["hull.constrained_line_shelling.degenerate"] += 1
                continue
            return counts, cert, L.hull.key_shelling_defects(cert, y, v)
        return counts, None, None

    def check(self, op, result) -> Outcome:
        (d, n, s), v, _ = op
        counts, cert, defects = result
        counts = dict(counts, **{"key_lemma.certified": 0, "hull.defect_rows": 0})
        if cert is None:
            return Outcome("inconclusive", counts)
        counts["key_lemma.certified"] = 1
        counts["hull.defect_rows"] = len(defects)
        y = n + 1
        block1 = {f for f in cert.order if y in f}
        block2 = {f for f in cert.order if v in f} - block1
        k1, k2 = len(block1), len(block2)
        if set(cert.order[:k1]) != block1 or set(cert.order[k1 : k1 + k2]) != block2:
            return Outcome("wrong", counts, f"{(d, n, s, v)}: shelling lacks the st(y), st(v) prefix")
        if len(defects) != len(cert.order) or any(len(row) != d + 1 for row in defects):
            return Outcome("wrong", counts, f"{(d, n, s, v)}: defect table has the wrong shape")
        if any(x < 0 for row in defects for x in row):
            return Outcome("wrong", counts, f"{(d, n, s, v)}: negative key-lemma defect")
        return Outcome("pass", counts)


def _cli(main, argv):
    """Run the command line in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class VerifyArtifacts:
    """One op = ``aspoly verify --input <artifact>`` run in process.

    The artifacts are fixed and written in set-up through ``construct``;
    the seed gives the stacked construction seeds and the verify seeds.
    The cap-edge artifact cyclic (4, 16, 1) is verified once per run,
    outside the timed ops and outside ``attempted`` and ``failed``: a known
    defect makes it exit 2, which shows in the per-layer ``cli.exit.2``
    count and the run record without moving the timed metrics.
    """

    name = "verify_artifacts"
    why = (
        "the end-to-end command users run: reads artifacts back and runs every "
        "check, including re-detecting the hull and stacking it at n+1"
    )
    predictions = {
        2: "moves: the shelling check stacks over the special facet (item 2(b))",
        3: "moves: the check registry replaces the verify plumbing",
        4: "moves: load-time validation may slow ops; the cap-edge fix moves "
        "the per-layer cli.exit.2 count to cli.exit.0",
        5: "moves: verify re-enumerates the hull at n and n+1",
    }

    ARTIFACTS = (
        ("cyclic-asp", 4, 8, 2),
        ("cyclic-asp", 5, 12, 2),
        ("cyclic-asp", 6, 14, 3),
        ("stacked-asp", 5, 12, 2),
        ("stacked-asp", 6, 16, 3),
    )
    CAP_EDGE = ("cyclic-asp", 4, 16, 1)

    def __init__(self, lib, seed: int, workdir: str) -> None:
        rng = random.Random(f"verify_artifacts:{seed}")

        def build(kind, d, n, s):
            path = os.path.join(workdir, f"{kind}-{d}-{n}-{s}.json")
            argv = ["construct", kind, "--d", str(d), "--n", str(n), "--s", str(s),
                    "--seed", str(rng.randrange(2**31)), "--out", path]
            rc, _, err = _cli(lib.cli.main, argv)
            if rc != 0:
                raise RuntimeError(f"construct {argv} exited {rc}: {err.strip()}")
            return (path, rng.randrange(2**31))

        self.ops = [build(*a) for a in self.ARTIFACTS]
        rng.shuffle(self.ops)
        self.known_defect_ops = [build(*self.CAP_EDGE)]
        self.cli = lib.cli

    def run(self, op, L, tracer):
        path, seed = op
        argv = ["verify", "--input", path, "--seed", str(seed)]
        rc, out, err = _cli(L.cli.main, argv)
        if tracer is not None and rc == 0:
            # Per-check cost, traced runs only: one verify per check the
            # full verify ran.  The extra loads count as trace overhead.
            for check in json.loads(out)["checks"]:
                with tracer.span(f"cli.verify.{check}"):
                    _cli(self.cli.main, argv + ["--checks", check])
        return rc, out, err

    def check(self, op, result) -> Outcome:
        rc, out, err = result
        counts = {f"cli.exit.{rc}": 1}
        if rc not in (0, 1):
            return Outcome("fail", counts, f"{os.path.basename(op[0])}: exit {rc}: {err.strip()}")
        payload = json.loads(out)
        if rc == 1 or payload.get("all_pass") is not True:
            return Outcome("wrong", counts, f"{os.path.basename(op[0])}: a check failed on a constructed artifact")
        return Outcome("pass", counts)


class StackedRecognize:
    """One op = one seeded almost-stacked instance, built and recognized.

    A pass holds one instance for each (d, n, s) with d in {4, 5, 6}, n in
    12..16 and s in 0..3.  The seed gives each its style (stack or hstack)
    and its instance and rigidity seeds.  Sixty ops a pass keep the median
    op steady while instance costs vary with the seed.
    """

    name = "stacked_recognize"
    why = (
        "no hull code runs: the cell prime decomposition and exact rigidity "
        "ranks do the work, so hull and search changes should leave it alone"
    )
    predictions = {
        2: "unchanged",
        3: "moves: unifying the prime decompositions changes recognize_minimizer",
        4: "unchanged",
        5: "unchanged",
    }

    def __init__(self, lib, seed: int, workdir: str) -> None:
        rng = random.Random(f"stacked_recognize:{seed}")
        self.ops = [
            (
                lib.enumerative.ASPParams(d, n, s),
                rng.choice(("stack", "hstack")),
                rng.randrange(2**31),
                rng.randrange(2**31),
            )
            for d in (4, 5, 6)
            for n in range(12, 17)
            for s in range(4)
        ]
        rng.shuffle(self.ops)
        self.known_defect_ops: list = []

    def run(self, op, L, tracer):
        p, style, seed, rigidity_seed = op
        asp = L.stackgen.random_minimizer(p, seed, style=style)
        h_ball = L.enumerative.h_from_f(L.complexes.f_vector(asp.ball))
        boundary = L.complexes.boundary_of_ball(asp.ball)
        g_boundary = L.enumerative.g_from_h(
            L.enumerative.h_from_f(L.complexes.f_vector(boundary))
        )
        ds = L.enumerative.dehn_sommerville_defect(h_ball, g_boundary)
        bounds = L.enumerative.check_asp_bounds(asp.f_polytope(), p)
        verdict = L.stackgen.recognize_minimizer(asp)
        skeleton = L.rigidity.one_skeleton(asp.ball)
        report = L.rigidity.sample_generic(skeleton, p.d, trials=3, seed=rigidity_seed)
        return ds, bounds, verdict, report

    def check(self, op, result) -> Outcome:
        p, style, _, _ = op
        ds, bounds, verdict, report = result
        certified = report.rigid_certified and report.stress_free_certified
        counts = {
            "stackgen.prime_factors": len(verdict.factor_reports),
            "rigidity.edges": report.n_edges,
            "rigidity.rank_entries": report.n_edges * p.d * report.n_vertices,
            "rigidity.certified": int(certified),
        }
        g2 = report.n_edges - p.d * report.n_vertices + comb(p.d + 1, 2)
        where = f"{p} {style}"
        if any(ds):
            return Outcome("wrong", counts, f"{where}: Dehn-Sommerville defect {ds}")
        if not (bounds.all_ok and bounds.all_equal_lower):
            return Outcome("wrong", counts, f"{where}: f is not the lower bound")
        if not verdict.is_minimizer:
            return Outcome("wrong", counts, f"{where}: minimizer not recognized")
        if not certified:
            return Outcome("fail", counts, f"{where}: rigidity certificate not reached")
        if g2 != 0:
            return Outcome("wrong", counts, f"{where}: g2 = {g2}")
        return Outcome("pass", counts)


WORKLOADS = {w.name: w for w in (HullScan, KeyLemma, VerifyArtifacts, StackedRecognize)}
