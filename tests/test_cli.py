"""End-to-end command surface: artifacts, checks, tables, exit codes."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from aspoly import cli, complexes
from aspoly.cli import main
from aspoly.complexes import SimplicialComplex, boundary_of_ball, validate_asp
from aspoly.enumerative import ASPParams
from aspoly.errors import AspolyError
from aspoly.hull import asp_geometry
from aspoly.rigidity import sample_generic
from aspoly.stackgen import random_minimizer, recognize_minimizer


# `table --d 3..4 --s 1 --n-span 2` output, one format each.
TABLE_BYTES = {
    "csv": (
        "d,s,n,f_stacked,f_cyclic,h_ball,bounds_ok,extremes_touch\n"
        "3,1,5,1 5 8 5,1 5 8 5,1 2 1 0,True,True\n"
        "3,1,6,1 6 11 7,1 6 11 7,1 3 2 0,True,True\n"
        "4,1,6,1 6 14 15 7,1 6 14 15 7,1 2 2 1 0,True,True\n"
        "4,1,7,1 7 18 21 10,1 7 20 25 12,1 3 3 2 0,True,False\n"
    ),
    "json": (
        '[{"bounds_ok":true,"d":3,"extremes_touch":true,"f_cyclic":"1 5 8 5",'
        '"f_stacked":"1 5 8 5","h_ball":"1 2 1 0","n":5,"s":1},'
        '{"bounds_ok":true,"d":3,"extremes_touch":true,"f_cyclic":"1 6 11 7",'
        '"f_stacked":"1 6 11 7","h_ball":"1 3 2 0","n":6,"s":1},'
        '{"bounds_ok":true,"d":4,"extremes_touch":true,"f_cyclic":"1 6 14 15 7",'
        '"f_stacked":"1 6 14 15 7","h_ball":"1 2 2 1 0","n":6,"s":1},'
        '{"bounds_ok":true,"d":4,"extremes_touch":false,"f_cyclic":"1 7 20 25 12",'
        '"f_stacked":"1 7 18 21 10","h_ball":"1 3 3 2 0","n":7,"s":1}]\n'
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_artifact(capsys, tmp_path, *argv):
    path = tmp_path / "artifact.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 0, err
    return path, json.loads(path.read_text())


class TestConstruct:
    def test_cyclic_frozen_f(self, capsys):
        code, out, _ = run(
            capsys, "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["f_polytope"] == [1, 8, 25, 32, 15]
        assert data["points"]["d"] == 4
        assert len(data["facets"]) == 15

    def test_cyclic_dimension_three(self, capsys):
        code, out, _ = run(
            capsys, "construct", "cyclic-asp", "--d", "3", "--n", "6", "--s", "1"
        )
        assert code == 0
        assert json.loads(out)["f_polytope"] == [1, 6, 11, 7]

    def test_stacked_frozen_f(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "stacked-asp",
            "--d", "4", "--n", "8", "--s", "2", "--seed", "7",
        )
        assert code == 0
        assert json.loads(out)["f_polytope"] == [1, 8, 22, 26, 12]

    def test_seeded_output_byte_identical(self, capsys):
        args = ("construct", "stacked-asp", "--d", "5", "--n", "9", "--s", "2",
                "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_cap_refusal(self, capsys):
        code, _, err = run(
            capsys, "construct", "cyclic-asp", "--d", "7", "--n", "13", "--s", "2"
        )
        assert code == 2
        assert "caps" in err


class TestVerify:
    def test_all_checks_pass_on_cyclic(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"]
        for name in ("bounds", "ds", "gale", "ridge", "shelling", "rigidity", "minimizer"):
            assert report["checks"][name]["pass"], name

    def test_all_checks_pass_on_stacked(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "4", "--n", "9", "--s", "1",
        )
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_injected_bounds_violation_fails(self, capsys, tmp_path):
        # Dropping a ball facet breaks the complex, so the artifact is
        # refused at load; built in process (Artifact does not validate),
        # the same complex fails the bounds check.
        path, data = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        data["complex"]["ball"]["facets"] = data["complex"]["ball"]["facets"][1:]
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--input", str(path), "--checks", "bounds")
        assert (code, out) == (2, "")
        assert err == (
            "error: boundary of the ball is not the induced complex on the special facet\n"
        )
        ok, detail = cli.check_bounds(cli.Artifact(cli._asp_from_json(data["complex"])))
        assert not ok
        assert "violations at indices" in detail

    def test_subset_of_checks(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "5", "--n", "9", "--s", "2",
        )
        code, out, _ = run(
            capsys, "verify", "--input", str(path), "--checks", "bounds,ds"
        )
        assert code == 0
        assert set(json.loads(out)["checks"]) == {"bounds", "ds"}

    def test_unknown_check_is_usage_error(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        code, _, err = run(capsys, "verify", "--input", str(path), "--checks", "nope")
        assert code == 2 and "unknown checks" in err

    def test_cap_edge_n16(self, capsys, tmp_path):
        # construct accepts n = 16, so verify must work on it too; the
        # shelling check stacks a 17th point over the special facet.
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "16", "--s", "1",
        )
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 0, err
        report = json.loads(out)
        assert report["all_pass"]
        assert report["checks"]["shelling"]["pass"]

    @pytest.mark.parametrize(
        "kind,d,n,s",
        [
            ("cyclic-asp", 3, 9, 1),
            ("cyclic-asp", 3, 8, 1),
            ("cyclic-asp", 3, 9, 2),
            ("stacked-asp", 3, 9, 1),
        ],
    )
    def test_dimension_three_with_excess(self, capsys, tmp_path, kind, d, n, s):
        # The ball's skeleton has 3n - 6 - s edges, so g2 = -s < 0: it
        # cannot be rigid, and the rigidity check certifies it stress-free.
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", kind, "--d", str(d), "--n", str(n), "--s", str(s), "--seed", "1",
        )
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 0, err
        report = json.loads(out)
        assert report["all_pass"]
        assert report["checks"]["rigidity"] == {
            "detail": f"stress_dim=0, g2={-s} < 0: too few edges to be rigid, "
            "stress-free certified",
            "pass": True,
        }

    def test_dimension_three_simplicial_detail(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "3", "--n", "9", "--s", "0",
        )
        code, out, _ = run(capsys, "verify", "--input", str(path), "--checks", "rigidity")
        assert code == 0
        assert json.loads(out)["checks"]["rigidity"]["detail"] == "stress_dim=0, g2=0"

    def test_missed_stress_free_certificate_is_inconclusive(
        self, capsys, tmp_path, monkeypatch
    ):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "3", "--n", "9", "--s", "1",
        )

        def unlucky(graph, d, seed=0):
            report = sample_generic(graph, d, seed=seed)
            return dataclasses.replace(
                report,
                best_rank=report.best_rank - 1,
                stress_dim=1,
                stress_free_certified=False,
            )

        monkeypatch.setattr(cli, "sample_generic", unlucky)
        code, out, _ = run(capsys, "verify", "--input", str(path), "--checks", "rigidity")
        assert code == 1
        assert json.loads(out)["checks"]["rigidity"] == {
            "detail": "rank certificate not reached (inconclusive)",
            "pass": False,
        }

    def test_missing_complex_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "path, name",
        [
            (("complex", "ball"), "complex.ball"),
            (("complex", "special_facet"), "complex.special_facet"),
            (("complex", "d"), "complex.d"),
            (("complex", "n"), "complex.n"),
            (("complex", "s"), "complex.s"),
            (("complex", "ball", "facets"), "complex.ball.facets"),
            (("points", "d"), "points.d"),
            (("points", "points"), "points.points"),
            (("points", "points", 3, "id"), "points.points[3].id"),
            (("points", "points", 3, "coords"), "points.points[3].coords"),
            (("facets",), "facets"),
            (("facets", 2, "normal"), "facets[2].normal"),
        ],
    )
    def test_missing_key_is_named(self, capsys, tmp_path, path, name):
        _, artifact = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        entry = artifact
        for key in path[:-1]:
            entry = entry[key]
        del entry[path[-1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(artifact))
        for command in ("verify", "shelling", "recognize"):
            code, out, err = run(capsys, command, "--input", str(bad))
            assert code == 2 and out == ""
            assert err == f"error: artifact is missing '{name}'; rebuild it with construct\n"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (
                ("complex", "ball", "facets"),
                None,
                "artifact field 'complex.ball.facets' is not a list",
            ),
            (
                ("points", "points", 0, "coords", 0),
                "1/0",
                "artifact field 'points.points[0].coords[0]' is not a finite rational: '1/0'",
            ),
            (
                ("points", "points", 2, "coords", 1),
                "abc",
                "artifact field 'points.points[2].coords[1]' is not a finite rational: 'abc'",
            ),
            (
                ("complex", "special_facet", 1),
                "2",
                "artifact field 'complex.special_facet' is not a list of integer vertex ids",
            ),
            (("complex", "d"), "4", "artifact field 'complex.d' is not an integer"),
            (("points", "d"), 0, "artifact field 'points.d' is not a positive integer"),
            (
                ("facets", 3, "normal", 1),
                "1/2",
                "artifact field 'facets[3].normal[1]' is not an integer: '1/2'",
            ),
            (
                ("facets", 0, "offset"),
                7,
                "artifact field 'facets[0].offset' is not an integer: 7",
            ),
            (
                ("points", "points", 0, "id"),
                True,
                "artifact field 'points.points[0].id' is not an integer: True",
            ),
            (
                ("points", "points", 3, "id"),
                4.0,
                "artifact field 'points.points[3].id' is not an integer: 4.0",
            ),
            (
                ("points", "points", 1, "coords", 2),
                False,
                "artifact field 'points.points[1].coords[2]' is not a finite rational: False",
            ),
        ],
        ids=[
            "null-facets", "zero-denominator", "non-numeric", "string-id", "string-d",
            "zero-points-d", "half-normal", "bare-offset", "bool-point-id", "float-point-id",
            "bool-coordinate",
        ],
    )
    def test_malformed_field_is_named(self, capsys, tmp_path, path, value, message):
        _, artifact = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        entry = artifact
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(artifact))
        for command in ("verify", "shelling", "recognize"):
            code, out, err = run(capsys, command, "--input", str(bad))
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_entry_that_is_not_an_object(self, capsys, tmp_path):
        _, artifact = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        artifact["points"]["points"][0] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(artifact))
        code, out, err = run(capsys, "verify", "--input", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: artifact entry 'points.points[0]' is not a JSON object\n"

    def test_rigidity_names_missing_key(self, capsys, tmp_path):
        _, artifact = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        del artifact["complex"]["ball"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(artifact))
        code, _, err = run(capsys, "rigidity", "report", "--input", str(bad))
        assert code == 2 and "'complex.ball'" in err

    def test_unparseable_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "command, data, message",
        [
            pytest.param(
                command, data, "artifact file is not a JSON object", id=f"{command}-{kind}"
            )
            for command in ("verify", "recognize", "shelling", "rigidity")
            for kind, data in (("number", 5), ("string", "complex"))
        ]
        + [
            pytest.param(
                "rigidity",
                {"vertices": [1, 2, "x"], "edges": [[1, 2]]},
                "artifact field 'vertices' is not a list of integer vertex ids",
                id="rigidity-string-vertex",
            ),
            pytest.param(
                "rigidity",
                {"vertices": [1.5, 2], "edges": []},
                "artifact field 'vertices' is not a list of integer vertex ids",
                id="rigidity-float-vertex",
            ),
            pytest.param(
                "rigidity",
                {"vertices": [1, 2], "edges": [[1, 2.0]]},
                "artifact field 'edges[0]' is not a list of integer vertex ids",
                id="rigidity-float-edge-end",
            ),
            pytest.param(
                "rigidity",
                {"edges": [[1, 2]]},
                "graph file is missing 'vertices'",
                id="rigidity-no-vertices",
            ),
            pytest.param(
                "rigidity",
                {"vertices": [1, 2]},
                "graph file is missing 'edges'",
                id="rigidity-no-edges",
            ),
        ],
    )
    def test_malformed_input_file_is_refused(self, capsys, tmp_path, command, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        dim = ["--dim", "2"] if command == "rigidity" else []
        code, out, err = run(capsys, command, "--input", str(path), *dim)
        assert (code, out, err) == (2, "", f"error: {message}\n")


ARTIFACTS = {
    "cyclic": ("cyclic-asp", "--d", "4", "--n", "8", "--s", "2"),
    "stacked": ("stacked-asp", "--d", "4", "--n", "8", "--s", "2", "--seed", "7"),
    "cyclic-d3": ("cyclic-asp", "--d", "3", "--n", "9", "--s", "1"),
}

# (exit code, first 16 hex digits of the SHA-256 of stdout).  The stacked
# gale and shelling requests and the d = 3 minimizer request do not apply
# and fail with a reason.
FROZEN_VERIFY = {
    ("cyclic", "all"): (0, "a18ac563812b4c7c"),
    ("cyclic", "bounds"): (0, "ccd3d38b7888e95a"),
    ("cyclic", "ds"): (0, "e2ce847e946ae511"),
    ("cyclic", "gale"): (0, "9b3672462cef313a"),
    ("cyclic", "ridge"): (0, "60be0df0213b9cdc"),
    ("cyclic", "shelling"): (0, "c71b43228670808b"),
    ("cyclic", "rigidity"): (0, "55bab5945cd33e79"),
    ("cyclic", "minimizer"): (0, "e95870bf4202f0d0"),
    ("stacked", "all"): (0, "c8903f5d7da08085"),
    ("stacked", "bounds"): (0, "ccd3d38b7888e95a"),
    ("stacked", "ds"): (0, "e2ce847e946ae511"),
    ("stacked", "gale"): (1, "de768040a227ac44"),
    ("stacked", "ridge"): (0, "60be0df0213b9cdc"),
    ("stacked", "shelling"): (1, "16414e1bcb03a358"),
    ("stacked", "rigidity"): (0, "7c2fb941960157df"),
    ("stacked", "minimizer"): (0, "e08bdb03a0444d7a"),
    ("cyclic-d3", "minimizer"): (1, "88017cf0d451145a"),
}


# (d, s, n) of every cyclic artifact with d 3..6, s 0..3 and n from
# d+s+1 to min(d+s+4, 16).
CYCLIC_GRID = [
    (d, s, n)
    for d in range(3, 7)
    for s in range(4)
    for n in range(d + s + 1, min(d + s + 4, 16) + 1)
]
FROZEN_CYCLIC_GRID = "8f3480590ad0c703332f400d20255491b7217a685cf2246b447795adea448e82"

# The same (d, s, n) cells as stacked artifacts, the style alternating
# from cell to cell and the construction seed the cell's index.
STACKED_GRID = [
    (d, s, n, ("stack", "hstack")[i % 2], i) for i, (d, s, n) in enumerate(CYCLIC_GRID)
]
FROZEN_STACKED_GRID = "65c6172daf1cceaf00a4aa2eb42923d1754bb7e00d2989968d068e008c64f373"
FROZEN_CONSTRUCT = "a28ce556b12cad40cabd103dbc6d6d6d3635829fac7456fc700de1dd7bf2227a"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestFrozenOutputs:
    @pytest.mark.parametrize("artifact,checks", sorted(FROZEN_VERIFY))
    def test_verify(self, capsys, tmp_path, artifact, checks):
        path, _ = make_artifact(capsys, tmp_path, "construct", *ARTIFACTS[artifact])
        code, out, _ = run(capsys, "verify", "--input", str(path), "--checks", checks)
        assert (code, digest(out)) == FROZEN_VERIFY[artifact, checks], out

    def test_shelling(self, capsys, tmp_path):
        path, _ = make_artifact(capsys, tmp_path, "construct", *ARTIFACTS["cyclic"])
        code, out, _ = run(capsys, "shelling", "--input", str(path), "--count", "3")
        assert (code, digest(out)) == (0, "3f3365bcedd9fc8a")

    def test_cyclic_grid(self, capsys, tmp_path):
        # verify --seed 5 and shelling --count 2 on every cyclic artifact of
        # CYCLIC_GRID: one SHA-256 over each exit code and stdout, in order.
        h = hashlib.sha256()
        for d, s, n in CYCLIC_GRID:
            path, _ = make_artifact(
                capsys, tmp_path,
                "construct", "cyclic-asp", "--d", str(d), "--n", str(n), "--s", str(s),
            )
            for argv in (("verify", "--seed", "5"), ("shelling", "--count", "2")):
                code, out, _ = run(capsys, argv[0], "--input", str(path), *argv[1:])
                h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == FROZEN_CYCLIC_GRID

    def test_stacked_grid(self, capsys, tmp_path):
        # verify --seed 5, recognize and rigidity report on every stacked
        # artifact of STACKED_GRID: one SHA-256 over each exit code and
        # stdout, in order.  recognize refuses d = 3 with exit 2.
        h = hashlib.sha256()
        for d, s, n, style, seed in STACKED_GRID:
            path, _ = make_artifact(
                capsys, tmp_path,
                "construct", "stacked-asp", "--d", str(d), "--n", str(n), "--s", str(s),
                "--style", style, "--seed", str(seed),
            )
            for argv in (("verify", "--seed", "5"), ("recognize",), ("rigidity", "report")):
                code, out, _ = run(capsys, *argv, "--input", str(path))
                h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == FROZEN_STACKED_GRID

    def test_construct_grid(self, capsys):
        # The artifacts themselves: construct's stdout for every cell of
        # CYCLIC_GRID, then of STACKED_GRID in both styles at the cell's
        # seed, one SHA-256 over them in order.
        h = hashlib.sha256()
        argvs = [("cyclic-asp", d, n, s) for d, s, n in CYCLIC_GRID] + [
            ("stacked-asp", d, n, s, "--style", style, "--seed", seed)
            for d, s, n, _, seed in STACKED_GRID
            for style in ("stack", "hstack")
        ]
        for kind, d, n, s, *rest in argvs:
            code, out, err = run(
                capsys, "construct", kind, "--d", str(d), "--n", str(n), "--s", str(s),
                *map(str, rest),
            )
            assert code == 0, err
            h.update(out.encode())
        assert h.hexdigest() == FROZEN_CONSTRUCT


def run_quiet(*argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr).

    argparse's own exit (a usage error, --help) counts as the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def constructed(*argv) -> str:
    """The JSON text construct writes for argv, built once per argv."""
    code, out, err = run_quiet("construct", *argv)
    assert code == 0, err
    return out


# Cyclic artifacts the tampering test draws from: small, with and without
# excess, d = 3 included.
TAMPER_CELLS = [(3, 7, 1), (4, 8, 2), (4, 9, 0), (5, 10, 1)]


@st.composite
def tampered_artifacts(draw):
    """A constructed cyclic artifact with one of its points, facets or complex corrupted."""
    d, n, s = draw(st.sampled_from(TAMPER_CELLS))
    params = ("--d", str(d), "--n", str(n), "--s", str(s))
    art = json.loads(constructed("cyclic-asp", *params))
    facets, points = art["facets"], art["points"]["points"]
    i = draw(st.integers(0, len(facets) - 1))
    how = draw(st.sampled_from(
        ["normal", "double", "drop", "duplicate", "swap", "midpoint", "stacked"]
    ))
    if how == "normal":
        k, step = draw(st.integers(0, d - 1)), draw(st.sampled_from([-1, 1]))
        facets[i]["normal"][k] = f"{Fraction(facets[i]['normal'][k]) + step}/1"
    elif how == "double":
        facets[i]["offset"] = f"{2 * Fraction(facets[i]['offset'])}/1"
        facets[i]["normal"] = [f"{2 * Fraction(a)}/1" for a in facets[i]["normal"]]
    elif how == "drop":
        del facets[i]
    elif how == "duplicate":
        facets.insert(draw(st.integers(0, len(facets))), copy.deepcopy(facets[i]))
    elif how == "swap":
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        points[a]["coords"], points[b]["coords"] = points[b]["coords"], points[a]["coords"]
    elif how == "midpoint":
        a, b, c = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        points[c]["coords"] = [
            str((Fraction(x) + Fraction(y)) / 2)
            for x, y in zip(points[a]["coords"], points[b]["coords"])
        ]
    else:
        seed = str(draw(st.integers(0, 50)))
        stacked = json.loads(constructed("stacked-asp", *params, "--seed", seed))["complex"]
        same = {frozenset(f) for f in stacked["ball"]["facets"]} == {
            frozenset(f) for f in art["complex"]["ball"]["facets"]
        }
        assume(not same)
        art["complex"] = stacked
    return how, art


class TestStoredHull:
    def test_loaded_geometry_matches_enumeration(self, capsys, tmp_path):
        # The enumerated hull is the oracle for the certified one, field by
        # field, and the boundary kept at load is the ball's boundary.
        for d, s, n in CYCLIC_GRID:
            path, _ = make_artifact(
                capsys, tmp_path,
                "construct", "cyclic-asp", "--d", str(d), "--n", str(n), "--s", str(s),
            )
            art = cli._load_artifact(SimpleNamespace(input=str(path), unsafe_large=False))
            oracle = asp_geometry(art.geometry.config, sorted(art.asp.special_facet))
            for field in ("config", "facets", "special", "ball"):
                assert getattr(art.geometry, field) == getattr(oracle, field), (d, s, n, field)
            assert art.asp.special_boundary == boundary_of_ball(art.asp.ball)

    def test_one_boundary_per_artifact(self, capsys, tmp_path, monkeypatch):
        # Validating the complex at load builds the ball's boundary once, and
        # every check reads that one (ASPComplex.special_boundary).
        built = []

        def counted(complex_):
            built.append(complex_)
            return boundary_of_ball(complex_)

        monkeypatch.setattr(complexes, "boundary_of_ball", counted)
        for artifact, checks in (
            ("cyclic", "all"),
            ("cyclic", "ds,ridge,shelling"),
            ("stacked", "all"),
            ("stacked", "ds,ridge"),
        ):
            path, data = make_artifact(capsys, tmp_path, "construct", *ARTIFACTS[artifact])
            ball = SimplicialComplex.from_json(data["complex"]["ball"])
            built.clear()
            code, _, err = run(capsys, "verify", "--input", str(path), "--checks", checks)
            assert code == 0, err
            assert built.count(ball) == 1, (artifact, checks)

    @settings(max_examples=60, deadline=None)
    @given(tampered_artifacts())
    def test_tampered_artifact_is_refused_at_load(self, case):
        how, art = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tampered.json"
            path.write_text(json.dumps(art))
            for command in ("verify", "shelling", "recognize"):
                code, out, err = run_quiet(command, "--input", str(path))
                assert (code, out) == (2, ""), (how, command, err)
                assert err.startswith("error: ") and err.count("\n") == 1, (how, err)


# The defects reproduced on the stacked (4, 8, 2) seed-7 artifact, each
# with the message validate_asp refuses it with.
STACKED_DEFECTS = {
    "ball facet dropped": (
        lambda c: c["ball"]["facets"].pop(0),
        "boundary of the ball is not the induced complex on the special facet",
    ),
    "special facet cut to 5 vertices": (
        lambda c: c["special_facet"].pop(),
        "special facet has 5 vertices, expected 6",
    ),
    "triangulation facet dropped": (
        lambda c: c["f_triangulation"]["facets"].pop(0),
        "triangulation boundary does not match the facet boundary",
    ),
}

# Commands that load a stacked artifact's complex.
LOADERS = (
    ("verify", "--checks", "bounds"),
    ("verify", "--checks", "ds,ridge"),
    ("verify", "--checks", "all"),
    ("recognize",),
    ("rigidity",),
)

# Stacked artifacts the tampering test draws from; d >= 4, so recognize
# applies to every valid complex.
STACKED_TAMPER_CELLS = [(4, 8, 2), (4, 9, 0), (5, 9, 1), (5, 10, 2)]


@st.composite
def tampered_stacked_artifacts(draw):
    """A constructed stacked artifact with its complex changed in one place."""
    d, n, s = draw(st.sampled_from(STACKED_TAMPER_CELLS))
    style, seed = draw(st.sampled_from(["stack", "hstack"])), draw(st.integers(0, 20))
    art = json.loads(constructed(
        "stacked-asp", "--d", str(d), "--n", str(n), "--s", str(s),
        "--style", style, "--seed", str(seed),
    ))
    c = art["complex"]
    facets, special = c["ball"]["facets"], c["special_facet"]
    how = draw(st.sampled_from(
        ["drop", "add", "vertex", "shrink", "grow", "s", "n", "triangulation"]
    ))
    if how == "drop":
        del facets[draw(st.integers(0, len(facets) - 1))]
    elif how == "add":
        facets.append(draw(st.lists(st.integers(1, n), min_size=d, max_size=d, unique=True)))
    elif how == "vertex":
        facets[draw(st.integers(0, len(facets) - 1))][draw(st.integers(0, d - 1))] = draw(
            st.integers(1, n + 1)
        )
    elif how == "shrink":
        del special[draw(st.integers(0, len(special) - 1))]
    elif how == "grow":
        special.append(draw(st.integers(1, n + 1)))
    elif how in ("s", "n"):
        c[how] += draw(st.sampled_from([-1, 1]))
    else:
        tri = c["f_triangulation"]["facets"]
        del tri[draw(st.integers(0, len(tri) - 1))]
    return how, art


def invalid_in_process(entry) -> bool:
    """Whether building the complex and validating it raises."""
    try:
        validate_asp(cli._asp_from_json(entry))
    except (AspolyError, ValueError):  # what main turns into exit 2
        return True
    return False


class TestStackedArtifactLoad:
    @pytest.mark.parametrize("defect", sorted(STACKED_DEFECTS))
    def test_reproduced_defect_is_refused_at_load(self, tmp_path, defect):
        tamper, message = STACKED_DEFECTS[defect]
        art = json.loads(constructed(*ARTIFACTS["stacked"]))
        tamper(art["complex"])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(art))
        for argv in LOADERS:
            assert run_quiet(*argv, "--input", str(path)) == (2, "", f"error: {message}\n"), argv

    @settings(max_examples=80, deadline=None)
    @given(tampered_stacked_artifacts())
    def test_refused_exactly_when_the_complex_is_invalid(self, case):
        how, art = case
        invalid = invalid_in_process(art["complex"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tampered.json"
            path.write_text(json.dumps(art))
            for argv in LOADERS:
                code, out, err = run_quiet(*argv, "--input", str(path))
                assert (code == 2) == invalid, (how, argv, code, err)
                if invalid:
                    assert out == "", (how, argv)
                    assert err.startswith("error: ") and err.count("\n") == 1, (how, argv, err)


class TestRelabelledArtifact:
    """A stacked artifact whose ids go through an increasing map onto
    negative ids and ids above 2**64 is recognized with the relabelled verdict."""

    @pytest.mark.parametrize("cell", STACKED_TAMPER_CELLS)
    @pytest.mark.parametrize("style", ["stack", "hstack"])
    def test_recognize_relabels_the_verdict(self, cell, style):
        d, n, s = cell
        art = json.loads(constructed(
            "stacked-asp", "--d", str(d), "--n", str(n), "--s", str(s), "--style", style,
        ))

        def f(v):
            return (v - 4) * 2**66

        c = art["complex"]
        for facets in (c["ball"]["facets"], c["f_triangulation"]["facets"]):
            facets[:] = [[f(v) for v in g] for g in facets]
        c["special_facet"] = [f(v) for v in c["special_facet"]]
        assert min(c["special_facet"]) < 0 and max(map(max, c["ball"]["facets"])) > 2**64
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "relabelled.json"
            path.write_text(json.dumps(art))
            code, out, err = run_quiet("recognize", "--input", str(path))
        assert code == 0, err
        asp = random_minimizer(ASPParams(d, n, s), 0, style=style)
        expected = recognize_minimizer(asp).to_json()
        for report in expected["factors"]:
            report["vertices"] = [f(v) for v in report["vertices"]]
        assert json.loads(out) == expected


class TestParser:
    def test_one_parser_gives_the_bytes_of_fresh_ones(self, tmp_path):
        # main builds its parser once per process; reusing it must not change
        # any output, usage errors and help included.
        path = str(tmp_path / "stacked.json")
        argvs = [
            ("construct", *ARTIFACTS["stacked"], "--out", path),
            ("verify", "--input", path, "--checks", "bounds,ds"),
            ("gale", "--d", "4", "--n", "8", "--s", "2"),
            ("verify", "--input", path, "--bogus"),
            ("verify", "--input", path, "--checks", "nope"),
            ("recognize", "--input", path),
            ("table", "--d", "3", "--s", "0", "--n-span", "1"),
            ("rigidity", "--help"),
            (),
        ]
        cli._parser.cache_clear()
        warm = [run_quiet(*argv) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run_quiet(*argv))
        assert fresh == warm
        assert [code for code, _, _ in warm] == [0, 0, 0, 2, 2, 0, 0, 0, 2]


class TestGaleAndFacets:
    def test_gale_counts(self, capsys):
        code, out, _ = run(
            capsys, "gale", "--d", "4", "--n", "8", "--s", "2", "--interior-tuples"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 15
        assert data["simplex_count_formula"] == 14
        assert len(data["interior_tuples"]) == 6
        assert data["special_block"] == [1, 2, 3, 4, 5, 6]

    def test_facets_matches_gale(self, capsys):
        code, out, _ = run(capsys, "facets", "--d", "4", "--n", "8", "--s", "2")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 15 and data["simplex_count"] == 14

    def test_facets_from_point_file(self, capsys, tmp_path):
        _, artifact = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "3", "--n", "6", "--s", "1",
        )
        pts = tmp_path / "points.json"
        pts.write_text(json.dumps(artifact["points"]))
        code, out, _ = run(capsys, "facets", "--input", str(pts))
        assert code == 0
        assert json.loads(out)["count"] == 7

    def test_facets_needs_some_input(self, capsys):
        code, _, err = run(capsys, "facets")
        assert code == 2

    @pytest.mark.parametrize(
        "points",
        [
            {"d": "x", "points": []},
            {"d": 0, "points": [{"id": 1, "coords": []}]},
            {"d": True, "points": [{"id": 1, "coords": [0]}, {"id": 2, "coords": [1]}]},
        ],
        ids=["string", "zero", "bool"],
    )
    def test_facets_refuses_bad_dimension(self, tmp_path, points):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points))
        assert run_quiet("facets", "--input", str(path)) == (
            2, "", "error: artifact field 'input.d' is not a positive integer\n"
        )

    @pytest.mark.parametrize(
        "points, message",
        [
            (
                {"d": 1, "points": [{"id": True, "coords": [False]}, {"id": 2, "coords": [True]}]},
                "artifact field 'input.points[0].id' is not an integer: True",
            ),
            (
                {"d": 1, "points": [{"id": 1.0, "coords": [0]}, {"id": 2, "coords": [1]}]},
                "artifact field 'input.points[0].id' is not an integer: 1.0",
            ),
            (
                {"d": 1, "points": [{"id": 1, "coords": [0]}, {"id": 2, "coords": [True]}]},
                "artifact field 'input.points[1].coords[0]' is not a finite rational: True",
            ),
        ],
        ids=["bool-id", "float-id", "bool-coordinate"],
    )
    def test_facets_refuses_non_integer_ids_and_boolean_coordinates(
        self, tmp_path, points, message
    ):
        # JSON true passed as the id 1 and the coordinate 1, and 1.0 as the id 1.
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points))
        assert run_quiet("facets", "--input", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "points, message",
        [
            (
                {"d": 1, "points": [{"id": i, "coords": [i]} for i in (2, 1, 3)]},
                "point ids must be 1..n in order, got 2 at 1",
            ),
            (
                {"d": 3, "points": [{"id": 1, "coords": [0, 1]}, {"id": 2, "coords": [1, 0, 0]}]},
                "point 1 has 2 coordinates, not 3",
            ),
        ],
        ids=["id-order", "coordinate-count"],
    )
    def test_facets_refuses_misnumbered_or_misshapen_points(self, tmp_path, points, message):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points))
        assert run_quiet("facets", "--input", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda pts: pts.insert(0, pts.pop(1)),
                "point ids must be 1..n in order, got 2 at 1",
            ),
            (lambda pts: pts[0]["coords"].pop(), "point 1 has 3 coordinates, not 4"),
        ],
        ids=["id-order", "coordinate-count"],
    )
    def test_artifact_points_misnumbered_or_misshapen(self, capsys, tmp_path, edit, message):
        _, artifact = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        edit(artifact["points"]["points"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(artifact))
        for command in ("verify", "shelling", "recognize"):
            code, out, err = run(capsys, command, "--input", str(bad))
            assert (code, out, err) == (2, "", f"error: {message}\n")


class TestTable:
    def test_row_count_and_order(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "3..4", "--s", "0..1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 13
        assert lines[0].startswith("d,s,n,")
        first = lines[1].split(",")
        assert first[:3] == ["3", "0", "4"]

    def test_rows_respect_bounds(self, capsys):
        code, out, _ = run(
            capsys, "table", "--d", "4", "--s", "0..2", "--format", "json"
        )
        rows = json.loads(out)
        assert all(r["bounds_ok"] for r in rows)

    def test_s_zero_classical_counts(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "3", "--s", "0", "--format", "json")
        rows = json.loads(out)
        for row in rows:
            n = row["n"]
            assert row["f_cyclic"] == f"1 {n} {3 * n - 6} {2 * n - 4}"
            assert row["extremes_touch"]

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "table", "--d", "3..5", "--s", "0..1")
        _, b, _ = run(capsys, "table", "--d", "3..5", "--s", "0..1")
        assert a == b

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_matches_stdout_frozen(self, capsys, tmp_path, fmt):
        argv = ["table", "--d", "3..4", "--s", "1", "--n-span", "2", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / f"table.{fmt}"
        code, to_stdout, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and to_stdout == ""
        assert path.read_text() == out == TABLE_BYTES[fmt]


class TestRigidityCommand:
    def test_raw_graph(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [1, 2, 3, 4],
                    "edges": [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [2, 4]],
                }
            )
        )
        code, out, _ = run(capsys, "rigidity", "report", "--input", str(path), "--dim", "2")
        assert code == 0
        report = json.loads(out)
        assert report["stress_dim"] == 1 and report["rigid_certified"]

    def test_raw_graph_requires_dim(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}))
        code, _, err = run(capsys, "rigidity", "--input", str(path))
        assert code == 2

    def test_artifact_skeleton(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        code, out, _ = run(capsys, "rigidity", "--input", str(path))
        report = json.loads(out)
        assert report["stress_dim"] == 3 and report["d"] == 4


class TestShellingAndRecognize:
    def test_shelling_runs(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        code, out, _ = run(capsys, "shelling", "--input", str(path), "--count", "2")
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] and len(data["runs"]) == 2
        assert data["runs"][0]["h"] == [1, 5, 10, 5, 1]

    def test_shelling_cap_edge_n16(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "16", "--s", "1",
        )
        code, out, err = run(capsys, "shelling", "--input", str(path), "--count", "2")
        assert code == 0, err
        data = json.loads(out)
        assert data["all_pass"] and len(data["runs"]) == 2
        assert all(len(r["order"]) == 107 for r in data["runs"])
        assert data["runs"][0]["h"] == [1, 13, 79, 13, 1]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_shelling_refuses_no_runs(self, capsys, tmp_path, count):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        code, out, err = run(capsys, "shelling", "--input", str(path), "--count", count)
        assert (code, out, err) == (2, "", f"error: --count must be at least 1, got {count}\n")

    def test_shelling_needs_points(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "4", "--n", "8", "--s", "2",
        )
        code, _, err = run(capsys, "shelling", "--input", str(path))
        assert code == 2

    def test_recognize_stacked(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "stacked-asp", "--d", "5", "--n", "9", "--s", "2",
        )
        code, out, _ = run(capsys, "recognize", "--input", str(path))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["is_minimizer"] and verdict["regime"] == "dGT4"

    def test_recognize_dimension_three_rejected(self, capsys, tmp_path):
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "3", "--n", "6", "--s", "1",
        )
        code, _, err = run(capsys, "recognize", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["shelling", "--count", "1"], ["recognize"]],
        ids=["verify", "shelling", "recognize"],
    )
    def test_artifact_past_caps(self, capsys, tmp_path, argv):
        # An artifact construct makes only with --unsafe-large is refused by
        # the commands that read it unless they get the flag too.
        path, _ = make_artifact(
            capsys, tmp_path,
            "construct", "cyclic-asp", "--d", "4", "--n", "17", "--s", "1", "--unsafe-large",
        )
        code, _, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and "exceeds caps d<=6, n<=16" in err and "--unsafe-large" in err
        code, _, err = run(capsys, *argv, "--input", str(path), "--unsafe-large")
        assert code == 0, err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
