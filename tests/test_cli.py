import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import titskit.cli as cli
from titskit import intrinsic
from titskit.cli import main
from titskit.geometry import arrangement_to_json

from conftest import get_trio


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_charpoly_braid4(capsys):
    code, out, err = run(capsys, ["charpoly", "--family", "braid", "--n", "4"])
    assert code == 0
    assert out == "t^3 - 6t^2 + 11t - 6\n"
    assert err == ""


def test_zaslavsky_braid4(capsys):
    code, out, _ = run(capsys, ["zaslavsky", "--family", "braid", "--n", "4"])
    assert code == 0
    assert "chambers 24 (chi predicts 24)" in out
    assert "PASS zaslavsky-chambers" in out


def test_json_report_schema(capsys):
    code, rep = run_json(capsys, ["charpoly", "--family", "braid", "--n", "4"])
    assert code == 0
    assert set(rep) == {
        "command",
        "fingerprint",
        "results",
        "checks",
        "ok",
        "timings",
        "seeds",
    }
    assert rep["command"] == "charpoly"
    assert rep["ok"] is True
    assert rep["results"]["charpoly"] == "t^3 - 6t^2 + 11t - 6"
    assert set(rep["timings"]) == {"build_s", "total_s"}


def test_fingerprint_is_stable(capsys):
    _, a = run_json(capsys, ["faces", "--family", "braid", "--n", "3"])
    _, b = run_json(capsys, ["flats", "--family", "braid", "--n", "3"])
    assert a["fingerprint"] == b["fingerprint"]
    _, c = run_json(capsys, ["faces", "--family", "braid", "--n", "4"])
    assert c["fingerprint"] != a["fingerprint"]


def test_fingerprint_is_sha256_of_the_canonical_json():
    """The interpreter's own SHA-256 gives hashlib's digest, and braid 3
    keeps the fingerprint it has always had."""
    import hashlib

    arr, _, _ = get_trio("braid3")
    blob = json.dumps(arrangement_to_json(arr), sort_keys=True).encode()
    assert arr.fingerprint() == hashlib.sha256(blob).hexdigest()[:16]
    assert arr.fingerprint() == "3d9ab4c618b7a625"


def test_faces_and_flats_results(capsys):
    code, rep = run_json(capsys, ["faces", "--family", "braid", "--n", "3"])
    assert code == 0
    assert rep["results"]["count"] == 13
    assert rep["results"]["counts_by_dim"] == {"1": 1, "2": 6, "3": 6}
    code, rep = run_json(capsys, ["flats", "--family", "braid", "--n", "3"])
    assert rep["results"]["count"] == 5
    assert rep["results"]["charpoly"] == "t^2 - 3t + 2"


def test_element_output(capsys):
    code, out, _ = run(
        capsys, ["element", "takeuchi", "--family", "coordinate", "--n", "2"]
    )
    assert code == 0
    assert out.splitlines()[0] == "takeuchi element (characteristic for -1)"
    assert len(out.splitlines()) == 10  # header + 9 faces
    code, rep = run_json(
        capsys, ["element", "adams", "--family", "braid", "--n", "3"]
    )
    assert code == 0
    assert rep["command"] == "element adams"
    assert rep["results"]["characteristic_for"] == "t (after dividing by t)"


def test_element_intrinsic_reports_profiles(capsys):
    code, rep = run_json(
        capsys, ["element", "intrinsic", "--family", "braid", "--n", "3"]
    )
    assert code == 0
    profiles = rep["results"]["profiles"]
    assert len(profiles) == 13
    assert all(p["method"] == "exact" for p in profiles)
    assert rep["results"]["tolerance"] <= 1e-8


def test_verify_all_braid3(capsys):
    code, rep = run_json(
        capsys, ["verify", "all", "--family", "braid", "--n", "3"]
    )
    assert code == 0 and rep["ok"] is True
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    for expected in [
        "characteristic-adams",
        "characteristic-takeuchi",
        "characteristic-unit",
        "deletion-h0",
        "intrinsic-product",
        "klivans-swartz",
        "kung-s",
        "nu-at-1-vs-unit",
        "nu-at-minus-1-vs-takeuchi",
        "profile-consistency",
        "q-basis",
        "unit-identity",
        "zaslavsky",
    ]:
        assert any(n.startswith(expected) for n in names), expected


# fields of each check besides "name" and "ok", keyed by name prefix; a
# name takes the longest prefix it starts with
_CHECK_FIELDS = {
    "adams-multiplicativity": {"s", "t"},
    "characteristic-": {"parameter"},
    "deletion-h": {"chi", "chi_deleted", "chi_restriction"},
    "intrinsic-product": {"s", "t", "max_deviation", "tolerance"},
    "klivans-swartz": {"estimate", "exact", "deviations"},
    "kung-s": {"lhs", "flat_sum", "pair_sum"},
    "nu-at-": {"max_deviation", "tolerance"},
    "profile-consistency": {"max_deviation"},
    "q-basis": {"flats"},
    "unit-identity": {"faces"},
    "zaslavsky": {"chambers", "essentially_bounded"},
    "zaslavsky-": {"census", "from_chi"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--family", "braid", "--n", "3"],
        ["verify", "all", "--family", "signed-braid", "--n", "3"],
        ["zaslavsky", "--family", "braid", "--n", "3"],
        ["intrinsic", "--exact-only", "--family", "braid", "--n", "3"],
    ],
    ids=["verify-braid3", "verify-signed3", "zaslavsky", "intrinsic-exact"],
)
def test_check_fields(capsys, argv):
    code, rep = run_json(capsys, argv)
    assert code == 0 and rep["checks"]
    for c in rep["checks"]:
        prefix = max(
            (p for p in _CHECK_FIELDS if c["name"].startswith(p)), key=len
        )
        assert set(c) == {"name", "ok"} | _CHECK_FIELDS[prefix], c["name"]


def test_skipped_deletion_carries_its_note(capsys):
    argv = ["verify", "deletion", "--family", "coordinate", "--n", "2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "PASS deletion-h0 (skipped: deletion drops rank)" in out.splitlines()
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["checks"][0]["note"] == "skipped: deletion drops rank"


def test_verify_human_lines(capsys):
    code, out, _ = run(
        capsys, ["verify", "characteristic", "--family", "braid", "--n", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert "PASS characteristic-adams" in lines


def test_verify_kung_parameters(capsys):
    code, rep = run_json(
        capsys,
        ["verify", "kung", "--family", "braid", "--n", "4",
         "--s=-5/3", "--t", "7/2"],
    )
    assert code == 0
    assert rep["checks"][0]["ok"] is True


def test_verify_all_empty_arrangement(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": 2, "hyperplanes": []}))
    code, rep = run_json(capsys, ["verify", "all", "--file", str(path)])
    assert code == 0 and rep["ok"] is True


def test_verify_all_with_a_112_bit_denominator(capsys):
    # a chamber's face projections share a denominator past int64, which
    # put the nearest-point kernel in Python ints; each sign-test row is
    # scaled on its own, so the kernel stays in int64 here
    code, rep = run_json(
        capsys,
        ["verify", "all", "--family", "generic", "--n", "4", "--m", "5",
         "--seed", "2", "--samples", "200"],
    )
    assert code == 0
    assert all(c["ok"] for c in rep["checks"])


def test_reports_do_not_depend_on_asserts(tmp_path):
    # python -O strips assert statements; no check may rely on one
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    triangle = tmp_path / "triangle.json"
    triangle.write_text(
        json.dumps(arrangement_to_json(get_trio("triangle")[0]))
    )
    for args in (["--family", "braid", "--n", "3"], ["--file", str(triangle)]):
        reports = []
        for flags in ([], ["-O"]):
            out = subprocess.run(
                [sys.executable, *flags, "-m", "titskit.cli", "verify", "all",
                 *args, "--json"],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            rep = json.loads(out)
            del rep["timings"]
            reports.append(rep)
        assert reports[0] == reports[1]
        assert reports[0]["ok"] is True


def test_verify_imports_neither_numpy_nor_hashlib():
    # a run that samples nothing never imports numpy (intrinsic._mc_profile
    # imports it), and the fingerprint takes the interpreter's own SHA-256,
    # not hashlib's OpenSSL binding: both are set-up time and memory
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "\n".join([
        "import contextlib, io, sys",
        "import titskit",
        "from titskit import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify', 'all', '--family', 'braid', '--n', '4',"
        " '--json'])",
        "print(code, sorted({'numpy', 'hashlib'} & set(sys.modules)))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    # CPython 3.12 renamed _sha256 to _sha2, and the fingerprint then falls
    # back to hashlib
    expected = [] if importlib.util.find_spec("_sha256") else ["hashlib"]
    assert out.split(" ", 1) == ["0", f"{expected}\n"]


def test_library_builds_no_tuple_from_a_generator():
    # see the titskit package docstring: tuple(<generator>) and
    # f(*<generator>) leave CPython's tuple free lists full
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "titskit"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            named_tuple = isinstance(node.func, ast.Name) and node.func.id == "tuple"
            for arg in node.args:
                starred = isinstance(arg, ast.Starred)
                value = arg.value if starred else arg
                if isinstance(value, ast.GeneratorExp) and (starred or named_tuple):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_library_holds_no_assert():
    # the library's checks are explicit raises, so they hold under python -O
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "titskit"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_library_imports_are_used():
    # every name a module imports is read in it; __init__.py re-exports
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "titskit"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_integer_normal_form_lives_in_linalg():
    # scaling to integers and dividing by the gcd are linalg's alone: no
    # other module imports gcd from math or calls common_denominator
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "titskit"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # an imported name, a bare name, or one read as module.name
            names = [a.name for a in getattr(node, "names", [])]
            names += [getattr(node, "id", None), getattr(node, "attr", None)]
            for name in {"gcd", "common_denominator"}.intersection(names):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_failing_check_exits_1(capsys, monkeypatch):
    def fake(arr, faces, lattice, args):
        return {}, [{"name": "forced", "ok": False}], ["boom"], {}

    monkeypatch.setitem(cli._HANDLERS, "zaslavsky", fake)
    code, out, err = run(capsys, ["zaslavsky", "--family", "braid", "--n", "3"])
    assert code == 1
    assert "FAIL forced" in out
    assert "FAILED" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    list_file = tmp_path / "list.json"
    list_file.write_text("[1, 2]")
    count_file = tmp_path / "count.json"
    count_file.write_text('{"dim": 2, "hyperplanes": 5}')
    dim_file = tmp_path / "dim.json"
    dim_file.write_text('{"dim": "two", "hyperplanes": []}')
    cases = [
        ["charpoly", "--family", "braid"],  # missing --n
        ["charpoly"],  # no source
        ["charpoly", "--family", "braid", "--n", "3", "--file", "x.json"],
        ["charpoly", "--family", "rainbow", "--n", "3"],
        ["element", "adams", "--family", "coordinate", "--n", "2"],
        ["charpoly", "--file", "/nonexistent/arr.json"],
        ["verify", "deletion", "--family", "braid", "--n", "3",
         "--hyperplane", "9"],
        ["verify", "all", "--family", "braid", "--n", "3",
         "--hyperplane", "-1"],
        ["verify", "kung", "--family", "braid", "--n", "3",
         "--hyperplane", "1"],
        ["verify", "characteristic", "--family", "braid", "--n", "3",
         "--hyperplane", "0"],
        ["verify", "all", "--family", "braid", "--n", "4", "--samples", "0"],
        ["intrinsic", "--family", "braid", "--n", "3", "--samples", "-5"],
        ["intrinsic", "--family", "coordinate", "--n", "4", "--seed", "-1"],
        ["intrinsic", "--family", "braid", "--n", "4", "--seed", "-1"],
        ["charpoly", "--family", "generic", "--n", "2", "--m", "3",
         "--seed", "-1"],
        ["verify", "kung", "--family", "braid", "--n", "3", "--s", "abc"],
        ["verify", "kung", "--family", "braid", "--n", "3", "--s", "1/0"],
        ["verify", "kung", "--family", "braid", "--n", "3", "--t", "x/2"],
        ["charpoly", "--family", "generic", "--n", "1", "--m", "60"],
        ["charpoly", "--family", "generic", "--n", "2", "--m", "-1"],
        ["charpoly", "--family", "generic", "--n", "0", "--m", "3"],
        ["charpoly", "--family", "generic", "--n", "-2", "--m", "2"],
        ["charpoly", "--file", str(list_file)],
        ["charpoly", "--file", str(count_file)],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()
    # a malformed file is named, with the field at fault
    for path, field in (
        (list_file, "expected an object with 'dim' and 'hyperplanes'"),
        (count_file, "'hyperplanes' must be a list of objects"),
        (dim_file, "'dim' must be an integer"),
    ):
        with pytest.raises(SystemExit):
            main(["charpoly", "--file", str(path)])
        assert f"error: {path}: {field}" in capsys.readouterr().err


def test_fractional_or_boolean_dim_is_rejected(capsys, tmp_path):
    # int() would run dim 2.7 as 2 and dim true as 1
    for raw in ("2.7", "true", "-1.5"):
        path = tmp_path / "dim.json"
        path.write_text('{"dim": %s, "hyperplanes": [{"normal": [1, 0]}]}' % raw)
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "--file", str(path)])
        assert exc.value.code == 2, raw
        assert f"error: {path}: 'dim' must be an integer" in capsys.readouterr().err
    # integers and integer strings still read
    for raw in ("2", '"2"', "2.0"):
        path = tmp_path / "dim.json"
        path.write_text('{"dim": %s, "hyperplanes": [{"normal": [1, 0]}]}' % raw)
        assert main(["charpoly", "--file", str(path)]) == 0, raw
        capsys.readouterr()


@pytest.mark.parametrize("command", [["verify", "all"], ["intrinsic"]])
def test_each_chamber_is_sampled_once(capsys, monkeypatch, command):
    # the chambers are the only cones that can need Monte Carlo;
    # Klivans-Swartz must read their profiles, not sample them again.
    # braid4 chambers have essential dimension 3, so none is sampled;
    # coord4 chambers are orthants of essential dimension 4
    sampled = []
    mc_profile = intrinsic._mc_profile

    def counting(cone, samples, seed):
        sampled.append(cone)
        return mc_profile(cone, samples, seed)

    monkeypatch.setattr(intrinsic, "_mc_profile", counting)
    for name, family, sampled_cones in (
        ("braid4", "braid", 0),
        ("coord4", "coordinate", 16),
    ):
        _, faces, lat = get_trio(name)
        expected = intrinsic.klivans_swartz_charpoly(
            faces, lat, samples=2000, seed=3
        ).estimate
        sampled.clear()
        code, rep = run_json(
            capsys,
            command + ["--family", family, "--n", "4", "--samples", "2000",
                       "--seed", "3"],
        )
        assert code == 0
        assert len(sampled) == sampled_cones
        ks = next(c for c in rep["checks"] if c["name"] == "klivans-swartz")
        assert ks["estimate"] == list(expected)


def test_intrinsic_exact_only_braid4(capsys):
    code, rep = run_json(
        capsys,
        ["intrinsic", "--family", "braid", "--n", "4", "--exact-only"],
    )
    assert code == 0
    rows = rep["results"]["profiles"]
    assert {r["method"] for r in rows} == {"exact"}
    assert rep["results"]["skipped"] == []
    ks = rep["results"]["klivans_swartz"]
    assert ks["ok"] and max(ks["deviations"]) < 1e-12
    # coord4 chambers have essential dimension 4 and need sampling
    code, rep = run_json(
        capsys,
        ["intrinsic", "--family", "coordinate", "--n", "4", "--exact-only"],
    )
    assert code == 0
    rows = rep["results"]["profiles"]
    assert {r["method"] for r in rows} == {"exact", "unavailable"}
    assert len(rep["results"]["skipped"]) == 16
    assert rep["results"]["klivans_swartz"] is None


def test_seeds_reported_only_when_sampled(capsys):
    # every braid3 cone is exact, and Kung's identity profiles no cone
    for argv in (
        ["intrinsic", "--family", "braid", "--n", "3", "--exact-only"],
        ["verify", "kung", "--family", "braid", "--n", "3"],
    ):
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert rep["seeds"] == {}
    # coord4 chambers are orthants of essential dimension 4
    code, rep = run_json(
        capsys,
        ["intrinsic", "--family", "coordinate", "--n", "4", "--samples",
         "2000", "--seed", "5"],
    )
    assert code == 0
    assert rep["seeds"] == {"samples": 2000, "seed": 5}


def test_intrinsic_exact_braid3(capsys):
    code, out, _ = run(
        capsys, ["intrinsic", "--family", "braid", "--n", "3", "--exact-only"]
    )
    assert code == 0
    assert "chi from chamber volumes: (2, -3, 1)" in out
    assert "PASS klivans-swartz" in out


def test_generic_family_uses_seed(capsys):
    _, a = run_json(
        capsys,
        ["flats", "--family", "generic", "--n", "2", "--m", "3", "--seed", "7"],
    )
    _, b = run_json(
        capsys,
        ["flats", "--family", "generic", "--n", "2", "--m", "3", "--seed", "7"],
    )
    assert a["fingerprint"] == b["fingerprint"]
    assert a["results"]["charpoly"] == "t^2 - 3t + 3"


# different commands, with parse errors and parser.error exits between them
REPEATED = [
    ["charpoly", "--family", "braid", "--n", "4"],
    ["verify", "kung", "--family", "braid", "--n", "3"],
    ["faces", "--family", "braid", "--n", "3", "--seed", "-1"],
    ["zaslavsky", "--family", "coordinate", "--n", "2"],
    ["verify", "kung", "--family", "braid", "--n", "3", "--hyperplane", "0"],
    ["verify", "deletion", "--family", "braid", "--n", "3", "--hyperplane", "1"],
    ["element", "bogus", "--family", "braid", "--n", "3"],
    ["flats", "--family", "braid"],
    ["intrinsic", "--family", "coordinate", "--n", "2", "--exact-only"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repeated_main_calls_match_fresh_parsers(capsys):
    # main builds its parser once per process; every call then parses and
    # fails as with a parser of its own
    cached = [_outcome(capsys, argv) for argv in REPEATED]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in REPEATED:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 2, 0, 2, 2, 0]
    assert "--seed must be non-negative" in cached[2][2]
    assert "invalid choice: 'bogus'" in cached[6][2]
