"""Differential tests: the Monte Carlo kernel's sign tests on Moreau cells
against the nearest-point kernel in `oracles`, sample for sample, on random
small integer cones and at the command line."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit import intrinsic
from titskit.cli import main
from titskit.geometry import HomogeneousCone
from titskit.linalg import matrix_rank

from oracles import mc_profile_nearest

KINDS = ("solid", "equalities", "lineality", "zero", "no-inequalities")


@st.composite
def cones(draw, kind):
    """Cones in R^2..R^5 with entries in [-3, 3].  Solid cones have one to
    six inequalities, each positive at (1, ..., 1); cones with equalities
    have one or two of them and up to five inequalities; lineality cones
    never use the last coordinate; zero cones are {0}, from rows spanning
    the space and the negative of their sum; the rest have equalities
    only, so they are subspaces."""
    dim = draw(st.integers(2, 5))
    used = dim - 1 if kind == "lineality" else dim
    row = st.lists(st.integers(-3, 3), min_size=used, max_size=used).map(
        lambda a: tuple(a) + (0,) * (dim - used)
    )
    eqs, ineqs = [], []
    if kind == "solid":
        ineqs = draw(
            st.lists(row.filter(lambda a: sum(a) > 0), min_size=1, max_size=6)
        )
    elif kind == "equalities":
        eqs = draw(st.lists(row, min_size=1, max_size=2))
        ineqs = draw(st.lists(row, max_size=5))
    elif kind == "lineality":
        ineqs = draw(st.lists(row, min_size=1, max_size=6))
    elif kind == "zero":
        ineqs = draw(
            st.lists(row, min_size=dim, max_size=dim + 2).filter(
                lambda rows: matrix_rank(rows) == dim
            )
        )
        ineqs.append(tuple(-sum(col) for col in zip(*ineqs)))
    else:
        eqs = draw(st.lists(row, max_size=3))
    return HomogeneousCone(
        dim=dim, equalities=tuple(eqs), inequalities=tuple(ineqs)
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_mc_kernel_matches_nearest_point_oracle(kind, data):
    cone = data.draw(cones(kind))
    seed = data.draw(st.integers(0, 1000))
    profile = intrinsic._mc_profile(cone, 300, seed)
    assert profile == mc_profile_nearest(cone, 300, seed)
    if kind == "zero":
        assert profile[0] == 1.0


def test_cli_report_is_unchanged_under_the_oracle(capsys, monkeypatch):
    # every coord4 chamber is an orthant of essential dimension 4, so each
    # of the 16 is sampled
    argv = ["intrinsic", "--family", "coordinate", "--n", "4",
            "--samples", "2000", "--seed", "5", "--json"]
    reports = []
    for kernel in (intrinsic._mc_profile, mc_profile_nearest):
        monkeypatch.setattr(intrinsic, "_mc_profile", kernel)
        assert main(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        del rep["timings"]
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["seeds"] == {"samples": 2000, "seed": 5}
