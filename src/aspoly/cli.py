"""Command line surface: construction, enumeration, verification, tables.

All payloads are JSON with sorted keys and compact separators, so a
fixed seed and configuration produce byte-identical output.  Exit codes:
0 all checks pass, 1 a verification check failed, 2 usage or input
errors.  Input errors include an artifact refused at load: a missing or
malformed field, a complex that fails validate_asp (any artifact's
complex is checked when it is loaded, once), or, for an artifact with
points, stored facets that disagree with its points or its complex
(hull.certified_geometry).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from io import StringIO

from .complexes import (
    ASPComplex,
    ShellingCertificate,
    f_vector,
    h_from_shelling,
    key_lemma_certificate,
)
from .curves import PointConfig, almost_cyclic_points
from .enumerative import (
    ASPParams,
    FVector,
    HVector,
    check_asp_bounds,
    dehn_sommerville_defect,
    f_almost_cyclic,
    f_almost_stacked,
    g_from_h,
    h_from_f,
    ridge_identity_defect,
)
from .errors import AspolyError
from .gale import (
    almost_cyclic_facets,
    interior_tuples,
    simplex_facet_count_even_d,
    special_block,
)
from .hull import (
    ASPGeometry,
    FacetDescriptor,
    asp_geometry,
    certified_geometry,
    enumerate_facets,
    key_shelling_defects,
    line_shelling,
    stack_over_special,
)
from .rigidity import Graph, g2_of_skeleton, one_skeleton, sample_generic
from .stackgen import random_minimizer, recognize_minimizer

MAX_N = 16
MAX_D = 6
KINDS = ("cyclic-asp", "stacked-asp")


def _check_caps(d: int, n: int, unsafe: bool) -> None:
    if not unsafe and (n > MAX_N or d > MAX_D):
        raise AspolyError(
            f"requested d={d}, n={n} exceeds caps d<={MAX_D}, n<={MAX_N}; "
            "exact hulls grow with the facet count, pass --unsafe-large to proceed"
        )


def _emit(payload, out: str | None) -> None:
    """Write a ready string as is, anything else as canonical JSON."""
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> ASPParams:
    return ASPParams(args.d, args.n, args.s)


def _summary(asp: ASPComplex) -> dict:
    fp = asp.f_polytope()
    return {
        "f_polytope": list(fp.entries),
        "f_ball": list(f_vector(asp.ball).entries),
        "h_ball": list(h_from_f(f_vector(asp.ball)).entries),
    }


def cmd_construct(args) -> int:
    p = _params(args)
    _check_caps(p.d, p.n, args.unsafe_large)
    if args.kind == "cyclic-asp":
        config = almost_cyclic_points(p)
        geom = asp_geometry(config, range(1, p.d + 1))
        payload = {
            "kind": "cyclic-asp",
            "params": {"d": p.d, "n": p.n, "s": p.s},
            "points": config.to_json(),
            "facets": [f.to_json() for f in geom.facets],
            "complex": geom.ball.to_json(),
            **_summary(geom.ball),
        }
    else:
        asp = random_minimizer(p, args.seed, style=args.style)
        payload = {
            "kind": "stacked-asp",
            "params": {"d": p.d, "n": p.n, "s": p.s},
            "seed": args.seed,
            "complex": asp.to_json(),
            **_summary(asp),
        }
    _emit(payload, args.out)
    return 0


def cmd_facets(args) -> int:
    if args.input:
        config = _points_from_json(_read_json(args.input), "input")
    else:
        if None in (args.d, args.n):
            raise AspolyError("facets needs --input or all of --d/--n/--s")
        config = almost_cyclic_points(_params(args))
    _check_caps(config.d, config.n, args.unsafe_large)
    facets = enumerate_facets(config)
    payload = {
        "d": config.d,
        "n": config.n,
        "count": len(facets),
        "simplex_count": sum(1 for f in facets if f.is_simplex()),
        "facets": [f.to_json() for f in facets],
    }
    _emit(payload, args.out)
    return 0


def cmd_gale(args) -> int:
    p = _params(args)
    _check_caps(p.d, p.n, args.unsafe_large)
    facets = almost_cyclic_facets(p)
    payload = {
        "params": {"d": p.d, "n": p.n, "s": p.s},
        "special_block": sorted(special_block(p)),
        "count": len(facets),
        "facets": [sorted(f) for f in facets],
    }
    if p.d % 2 == 0:
        payload["simplex_count_formula"] = simplex_facet_count_even_d(p)
    if args.interior_tuples:
        payload["interior_tuples"] = [sorted(t) for t in interior_tuples(p)]
    _emit(payload, args.out)
    return 0


def _require(entry, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(entry, dict):
        name = f"entry '{where}'" if where else "file"
        raise AspolyError(f"artifact {name} is not a JSON object")
    for key in keys:
        if key not in entry:
            name = f"{where}.{key}" if where else key
            raise AspolyError(f"artifact is missing '{name}'; rebuild it with construct")


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise AspolyError(f"artifact field '{where}' is not a list")
    return value


def _require_ids(value, where: str) -> None:
    if any(type(v) is not int for v in _require_list(value, where)):
        raise AspolyError(f"artifact field '{where}' is not a list of integer vertex ids")
    if len(set(value)) != len(value):
        raise AspolyError(f"artifact field '{where}' repeats a vertex id")


def _require_facets(value, where: str) -> None:
    for i, facet in enumerate(_require_list(value, where)):
        _require_ids(facet, f"{where}[{i}]")


def _asp_from_json(entry) -> ASPComplex:
    _require(entry, ("d", "n", "s", "ball", "special_facet"), "complex")
    for key in ("d", "n", "s"):
        if type(entry[key]) is not int:
            raise AspolyError(f"artifact field 'complex.{key}' is not an integer")
    _require(entry["ball"], ("facets",), "complex.ball")
    _require_facets(entry["ball"]["facets"], "complex.ball.facets")
    _require_ids(entry["special_facet"], "complex.special_facet")
    asp = ASPComplex.from_json(entry)
    if asp.ball.n_facets != len(entry["ball"]["facets"]):
        raise AspolyError("artifact field 'complex.ball.facets' lists a facet twice")
    return asp


def _points_from_json(entry, where: str) -> PointConfig:
    """Points with ids 1..n in order and finite rational coordinates, each parsed once."""
    _require(entry, ("d", "points"), where)
    if type(entry["d"]) is not int or entry["d"] < 1:
        raise AspolyError(f"artifact field '{where}.d' is not a positive integer")
    points = []
    for i, point in enumerate(_require_list(entry["points"], f"{where}.points")):
        at = f"{where}.points[{i}]"
        _require(point, ("id", "coords"), at)
        if type(point["id"]) is not int:
            raise AspolyError(f"artifact field '{at}.id' is not an integer: {point['id']!r}")
        coords = []
        for k, x in enumerate(_require_list(point["coords"], f"{at}.coords")):
            # A float is inexact, Fraction reads any Unicode digit in a string,
            # and it expands a decimal exponent in full: "1e10000000" is 11 bytes.
            try:
                if not (type(x) is int or type(x) is str and x.isascii() and "e" not in x.lower()):
                    raise TypeError
                coords.append(Fraction(x))
            except (TypeError, ValueError, ZeroDivisionError):
                raise AspolyError(
                    f"artifact field '{at}.coords[{k}]' is not a finite rational: {x!r}"
                ) from None
        points.append((point["id"], coords))
    for i, (pid, _) in enumerate(points, start=1):
        if pid != i:
            raise AspolyError(f"point ids must be 1..n in order, got {pid} at {i}")
    return PointConfig.from_rationals(entry["d"], (coords for _, coords in points))


def _facets_from_json(data) -> list[FacetDescriptor]:
    """The stored hull facets: integer vertex ids and the plane (offset, *normal), JSON integers."""
    _require(data, ("facets",), "")
    facets = []
    for i, entry in enumerate(_require_list(data["facets"], "facets")):
        at = f"facets[{i}]"
        _require(entry, ("vertices", "normal", "offset"), at)
        _require_ids(entry["vertices"], f"{at}.vertices")
        raw = [*_require_list(entry["normal"], f"{at}.normal"), entry["offset"]]
        if not all(type(a) is int for a in raw):  # the first bad entry is named, offset last
            k = next(k for k, a in enumerate(raw) if type(a) is not int)
            field = f"normal[{k}]" if k < len(raw) - 1 else "offset"
            raise AspolyError(f"artifact field '{at}.{field}' is not an integer: {raw[k]!r}")
        facets.append(FacetDescriptor(frozenset(entry["vertices"]), (raw[-1], *raw[:-1])))
    return facets


@dataclass(frozen=True)
class Artifact:
    """A loaded artifact: its complex, its certified hull (artifacts with points) and its kind."""

    asp: ASPComplex
    geometry: ASPGeometry | None = None
    kind: str = "unknown"

    @cached_property
    def stacked(self) -> ASPGeometry:
        """The hull of the points with one vertex stacked beyond the special facet."""
        return stack_over_special(self.geometry)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_artifact(data, unsafe_large: bool) -> Artifact:
    """An artifact from its parsed JSON, refused past the d/n caps unless unsafe_large.

    Its kind, if given, is one of KINDS, and its complex is validated
    (validate_asp, through special_boundary).  With points, its stored
    facets are first checked against them and against the complex
    (hull.certified_geometry, which validates last) and become the
    artifact's geometry.
    """
    _require(data, ("complex",), "")
    kind = data.get("kind", "unknown")
    if "kind" in data and kind not in KINDS:
        raise AspolyError(f"artifact field 'kind' is not one of {KINDS}: {kind!r}")
    asp = _asp_from_json(data["complex"])
    _check_caps(asp.params.d, asp.params.n, unsafe_large)
    if "points" not in data:
        asp.special_boundary  # validate_asp
        return Artifact(asp, kind=kind)
    config = _points_from_json(data["points"], "points")
    return Artifact(asp, certified_geometry(config, asp, _facets_from_json(data)), kind)


# Every check takes an artifact and a seed and returns (pass, detail).
# pass is None when the check does not apply; detail then says why.
CheckResult = tuple[bool | None, str]


def check_bounds(art: Artifact, seed: int = 0) -> CheckResult:
    report = check_asp_bounds(art.asp.f_polytope(), art.asp.params)
    bad = [v.index for v in report.verdicts if not (v.lower_ok and v.upper_ok)]
    return (not bad, "violations at indices " + str(bad) if bad else "sandwich holds")


def check_ds(art: Artifact, seed: int = 0) -> CheckResult:
    h_ball = h_from_f(f_vector(art.asp.ball))
    g_bd = g_from_h(h_from_f(f_vector(art.asp.special_boundary)))
    defect = dehn_sommerville_defect(h_ball, g_bd)
    return (all(x == 0 for x in defect), f"defect {list(defect)}")


def check_gale(art: Artifact, seed: int = 0) -> CheckResult:
    if art.kind != "cyclic-asp":
        return (None, "gale check applies to cyclic-asp artifacts only")
    predicted = almost_cyclic_facets(art.asp.params)
    ok = {frozenset(f) for f in predicted} == set(art.asp.boundary_sphere_facets())
    return (ok, "facet families agree" if ok else "facet families differ")


def check_ridge(art: Artifact, seed: int = 0) -> CheckResult:
    f_facet = f_vector(art.asp.special_boundary)
    defect = ridge_identity_defect(art.asp.f_polytope(), f_facet)
    return (defect == 0, f"defect {defect}")


def stacking_identity(cert: ShellingCertificate, asp: ASPComplex) -> tuple[HVector, bool]:
    """Check a shelling of Q, the hull stacked beyond the special facet of asp.

    Returns h(Q) read off the shelling and whether h_k(Q) = h_k(P) +
    h_{k-1}(B) for every k, with P the ball of asp and B the boundary of
    its special facet F.  Q's faces are never counted, and no check is
    lost.  stack_over_special builds Q's facets as P's facets plus R + y,
    one for each ridge R = G & F of F; validate_asp, run at every load and
    every build, makes those ridges exactly the facets of B.  So f_k(Q) =
    f_k(P) + f_{k-1}(B), and h, linear in f, shifts the same way.  Any
    shelling's restriction-face h equals h from f, so a comparison with h
    from Q's own f-vector would reach the same value by enumeration.
    """
    hq = h_from_shelling(cert)
    hp = h_from_f(f_vector(asp.ball))
    hf = h_from_f(f_vector(asp.special_boundary))
    return hq, all(hq.h(k) == hp.h(k) + hf.h(k - 1) for k in range(asp.params.d + 1))


def check_shelling(art: Artifact, seed: int = 0) -> CheckResult:
    if art.geometry is None:
        return (None, "shelling check needs point data in the artifact")
    hq, ok = stacking_identity(line_shelling(art.stacked, seed), art.asp)
    return (ok, f"h(Q)={list(hq.entries)}")


def check_rigidity(art: Artifact, seed: int = 0) -> CheckResult:
    asp = art.asp
    skel = one_skeleton(asp.ball)
    report = sample_generic(skel, asp.params.d, seed=seed)
    g2 = g2_of_skeleton(asp.params.n, skel.n_edges, asp.params.d)
    if g2 < 0 and report.stress_free_certified:
        detail = f"stress_dim=0, g2={g2} < 0: too few edges to be rigid, stress-free certified"
        return (True, detail)
    if not report.rigid_certified:
        return (False, "rank certificate not reached (inconclusive)")
    ok = report.stress_dim == g2
    return (ok, f"stress_dim={report.stress_dim}, g2={g2}")


def check_minimizer(art: Artifact, seed: int = 0) -> CheckResult:
    asp = art.asp
    if asp.params.d < 4:
        return (None, "minimizer recognition needs d >= 4")
    verdict = recognize_minimizer(asp)
    extremal = asp.f_polytope().entries == f_almost_stacked(asp.params).entries
    ok = verdict.is_minimizer == extremal
    return (ok, f"is_minimizer={verdict.is_minimizer}, regime={verdict.regime}")


def check_keylemma(art: Artifact, seed: int = 0) -> CheckResult:
    """The key lemma for every vertex v of the special facet, in sorted order.

    key_lemma_certificate searches Q's complex alone, so the check applies
    to every artifact; each certificate's prefix defects must be
    nonnegative.  The search is greedy and one-sided: a stuck one is
    inconclusive, reported as check_rigidity reports a missed rank
    certificate.
    """
    y = art.asp.params.n + 1
    vs = sorted(art.asp.special_facet)
    least = []
    for v in vs:
        cert = key_lemma_certificate(art.asp, v)
        if cert is not None:
            least.append(min(min(row) for row in key_shelling_defects(cert, y, v)))
    detail = f"certified {len(least)}/{len(vs)}"
    if least:
        detail += f", least defect {min(least)}"
    if least and min(least) < 0:
        return (False, detail)
    if len(least) < len(vs):
        return (False, detail + " (inconclusive)")
    return (True, detail)


CHECKS = {
    "bounds": check_bounds,
    "ds": check_ds,
    "gale": check_gale,
    "ridge": check_ridge,
    "shelling": check_shelling,
    "rigidity": check_rigidity,
    "minimizer": check_minimizer,
    "keylemma": check_keylemma,
}

# The checks "all" runs: every one but keylemma, which runs only when named.
# On the benchmark's five verify artifacts (in process, best of 5, Python
# 3.11 on 2 cores) its searches took 43 ms against 19 ms for the five
# whole verify runs of the other seven, and past the caps the search grows
# about quadratically in Q's facets.
ALL_CHECKS = tuple(name for name in CHECKS if name != "keylemma")


def cmd_verify(args) -> int:
    """Run the requested checks once all are known; 'all' runs those of ALL_CHECKS that apply."""
    requested = ALL_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    unknown = [c for c in requested if c not in CHECKS]
    if unknown:
        raise AspolyError(f"unknown checks {unknown}; valid: {tuple(CHECKS)}")
    art = _load_artifact(_read_json(args.input), args.unsafe_large)
    results = {}
    for name in requested:
        ok, detail = CHECKS[name](art, args.seed)
        if ok is not None or args.checks != "all":
            results[name] = (bool(ok), detail)
    all_pass = all(ok for ok, _ in results.values())
    payload = {
        "checks": {k: {"pass": ok, "detail": txt} for k, (ok, txt) in results.items()},
        "all_pass": all_pass,
    }
    _emit(payload, args.out)
    return 0 if all_pass else 1


def parse_range(text: str, flag: str) -> range:
    """A value "v" or an inclusive range "a..b" with a <= b, given to this flag."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        values = range(0)
    if not values:
        raise AspolyError(f"{flag} must be v or a..b with a <= b, got {text}")
    return values


def _table_cell(cell: tuple[int, int, int]) -> dict:
    d, s, n = cell
    p = ASPParams(d, n, s)
    lo = f_almost_stacked(p)
    hi = f_almost_cyclic(p)
    # Every minimizer has f-vector lo; its ball lacks the special facet.
    hb = h_from_f(FVector(d, (*lo.entries[:-1], lo.entries[-1] - 1)))
    return {
        "d": d,
        "s": s,
        "n": n,
        "f_stacked": " ".join(map(str, lo.entries)),
        "f_cyclic": " ".join(map(str, hi.entries)),
        "h_ball": " ".join(map(str, hb.entries)),
        "bounds_ok": all(a <= b for a, b in zip(lo.entries, hi.entries)),
        "extremes_touch": lo.entries == hi.entries,
    }


def cmd_table(args) -> int:
    if args.n_span < 1:
        raise AspolyError(f"--n-span must be at least 1, got {args.n_span}")
    ds, ss = parse_range(args.d, "--d"), parse_range(args.s, "--s")
    cells = []
    for d in ds:
        for s in ss:
            for n in range(d + s + 1, d + s + 1 + args.n_span):
                _check_caps(d, n, args.unsafe_large)
                cells.append((d, s, n))
    rows = [_table_cell(cell) for cell in cells]
    if args.format == "json":
        _emit(rows, args.out)
        return 0
    import csv

    buf = StringIO()
    fields = ["d", "s", "n", "f_stacked", "f_cyclic", "h_ball", "bounds_ok", "extremes_touch"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_rigidity(args) -> int:
    """An artifact's ball skeleton, loaded with no caps, or a raw graph file."""
    data = _read_json(args.input)
    _require(data, (), "")
    if "complex" in data:
        asp = _load_artifact(data, unsafe_large=True).asp
        graph = one_skeleton(asp.ball)
        dim = asp.params.d if args.dim is None else args.dim
    else:
        for key in ("vertices", "edges"):
            if key not in data:
                raise AspolyError(f"graph file is missing '{key}'")
        _require_ids(data["vertices"], "vertices")
        if not data["vertices"]:
            raise AspolyError("graph file has no vertices")
        _require_facets(data["edges"], "edges")
        graph = Graph.from_edges(data["vertices"], data["edges"])
        if args.dim is None:
            raise AspolyError("--dim is required for raw graph input")
        dim = args.dim
    report = sample_generic(graph, dim, trials=args.trials, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0


def cmd_shelling(args) -> int:
    if args.count < 1:
        raise AspolyError(f"--count must be at least 1, got {args.count}")
    art = _load_artifact(_read_json(args.input), args.unsafe_large)
    if art.geometry is None:
        raise AspolyError("shelling needs an artifact with point data (cyclic-asp)")
    runs = []
    for seed in range(args.seed, args.seed + args.count):
        cert = line_shelling(art.stacked, seed)
        hq, matches_f = stacking_identity(cert, art.asp)
        runs.append(
            {
                "seed": seed,
                "h": list(hq.entries),
                "order": [sorted(f) for f in cert.order],
                "matches_f": matches_f,
            }
        )
    all_pass = all(run["matches_f"] for run in runs)
    _emit({"runs": runs, "all_pass": all_pass}, args.out)
    return 0 if all_pass else 1


def cmd_recognize(args) -> int:
    verdict = recognize_minimizer(_load_artifact(_read_json(args.input), args.unsafe_large).asp)
    _emit(verdict.to_json(), args.out)
    return 0


# The subcommands, in the order usage and help list them: handler and help line.
COMMANDS = {
    "construct": (cmd_construct, "build an instance and write artifacts"),
    "facets": (cmd_facets, "enumerate hull facets exactly"),
    "gale": (cmd_gale, "predict facets combinatorially"),
    "verify": (cmd_verify, "run checks against an artifact"),
    "table": (cmd_table, "grid summary of extremal f-vectors"),
    "rigidity": (cmd_rigidity, "generic rigidity report for a graph"),
    "shelling": (cmd_shelling, "seeded line shellings of the stacked hull"),
    "recognize": (cmd_recognize, "structural minimizer recognition"),
}


def _command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """p with the arguments and the handler of command `name`."""
    p.set_defaults(func=COMMANDS[name][0])

    def common(params=False, seed=False):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--unsafe-large", action="store_true", help="lift d/n caps")
        if params:
            p.add_argument("--d", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--s", type=int, required=True)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    if name == "construct":
        p.add_argument("kind", choices=KINDS)
        p.add_argument("--style", choices=["stack", "hstack"], default="stack")
        common(params=True, seed=True)
    elif name == "facets":
        p.add_argument("--input", default=None, help="PointConfig JSON")
        p.add_argument("--d", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--s", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--unsafe-large", action="store_true")
    elif name == "gale":
        p.add_argument("--interior-tuples", action="store_true")
        common(params=True)
    elif name == "verify":
        p.add_argument("--input", required=True)
        p.add_argument(
            "--checks", default="all", help="comma list, or 'all': every check but keylemma"
        )
        common(seed=True)
    elif name == "table":
        p.add_argument("--d", required=True, help="value or a..b range")
        p.add_argument("--s", required=True, help="value or a..b range")
        p.add_argument("--n-span", type=int, default=3, help="n runs d+s+1 .. d+s+span")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--unsafe-large", action="store_true")
    elif name == "rigidity":
        p.add_argument("action", nargs="?", default="report", choices=["report"])
        p.add_argument("--input", required=True, help="graph JSON or artifact JSON")
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
    elif name == "shelling":
        p.add_argument("--input", required=True)
        p.add_argument("--count", type=int, default=3)
        common(seed=True)
    else:  # recognize
        p.add_argument("--input", required=True)
        common()
    return p


@cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of one command, or of all of them for None; built once per process and command.

    A command's parser, named "aspoly <command>", prints its subparser's texts
    in the full parser, which is built only for top-level help and usage errors.
    """
    if command is not None:
        return _command(argparse.ArgumentParser(prog=f"aspoly {command}"), command)
    about = "Construct and verify almost simplicial polytopes."
    top = argparse.ArgumentParser(prog="aspoly", description=about)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help) in COMMANDS.items():
        _command(sub.add_parser(name, help=help), name)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args, extra = _parser(command).parse_known_args(argv[1:] if command else argv)
    if extra:  # refused as parse_args refuses them, with the top-level usage
        _parser(None).error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (AspolyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
