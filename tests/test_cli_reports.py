"""Pinned `--json` reports: each command below, on each named arrangement,
must reproduce its stored report in `data/cli_reports.json` apart from the
wall-clock `timings`.

Every command here is exact or samples nothing (`verify all` and
`intrinsic` profile every cone of these arrangements in closed form), so
no report depends on numpy's random stream.  After an intended change of
output, re-pin by running this file as a script from the repository root,
`PYTHONPATH=src python tests/test_cli_reports.py`, and record why.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from titskit.cli import main

DATA = Path(__file__).parent / "data"
PINNED = DATA / "cli_reports.json"

SOURCES = {
    "braid3": ["--family", "braid", "--n", "3"],
    "braid4": ["--family", "braid", "--n", "4"],
    "signed3": ["--family", "signed-braid", "--n", "3"],
    "coord4": ["--family", "coordinate", "--n", "4"],
    "generic(3,4,11)": ["--family", "generic", "--n", "3", "--m", "4",
                        "--seed", "11"],
    "triangle": ["--file", str(DATA / "triangle.json")],
}
COMMANDS = (
    "faces",
    "flats",
    "zaslavsky",
    "element takeuchi",
    "verify characteristic",
    "verify kung",
    "verify deletion",
)
CASES = [f"{name} {command}" for name in SOURCES for command in COMMANDS] + [
    "braid3 element adams",
    "braid4 element adams",
    "signed3 element adams",
    "coord4 element coordinate",
    "braid4 verify all",
    "generic(3,4,11) verify all",
    "signed3 verify all",
    "triangle verify all",
    "braid4 intrinsic",
    "signed3 intrinsic",
    "generic(3,4,11) intrinsic",
    "braid4 verify product --s 1/2 --t -3",
    "signed3 verify product --s 1/2 --t -3",
    "generic(3,4,11) verify product --s 1/2 --t -3",
    "triangle verify product --s 1/2 --t -3",
    "braid4 element unit",
    "triangle element unit",
    "braid4 element intrinsic",
    "signed3 element intrinsic",
    "triangle element intrinsic",
    "coord4 intrinsic --exact-only",
    "braid4 verify deletion --hyperplane 2",
    "coord4 verify kung --s=-5/3 --t 7/2",
    "braid3 verify all",
]


def report(case):
    """The `--json` report of one case, without its timings."""
    name, command = case.split(" ", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        main([*command.split(), *SOURCES[name], "--json"])
    rep = json.loads(out.getvalue())
    del rep["timings"]
    return rep


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


def test_no_pinned_case_samples(pinned):
    # a sampled report would pin numpy's random stream
    assert all(pinned[case]["seeds"] == {} for case in CASES)


@pytest.mark.parametrize("case", CASES)
def test_json_report_matches_pinned(case, pinned):
    assert report(case) == pinned[case]


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps({case: report(case) for case in CASES}, indent=1) + "\n"
    )
