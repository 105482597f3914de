import json

import pytest

import titskit.cli as cli
from titskit import intrinsic
from titskit.cli import main

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


def test_failing_check_exits_1(capsys, monkeypatch):
    def fake(arr, faces, lattice, args):
        return {}, [{"name": "forced", "ok": False}], ["boom"]

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
        ["verify", "all", "--family", "braid", "--n", "4", "--samples", "0"],
        ["intrinsic", "--family", "braid", "--n", "3", "--samples", "-5"],
        ["verify", "kung", "--family", "braid", "--n", "3", "--s", "abc"],
        ["verify", "kung", "--family", "braid", "--n", "3", "--s", "1/0"],
        ["verify", "kung", "--family", "braid", "--n", "3", "--t", "x/2"],
        ["charpoly", "--family", "generic", "--n", "1", "--m", "60"],
        ["charpoly", "--family", "generic", "--n", "2", "--m", "-1"],
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
