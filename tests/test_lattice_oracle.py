"""Differential tests: the flat lattice built from the zero sets and
dimensions of the faces against the rank-based construction in `oracles`,
for the full arrangement and for every deletion, on random small rational
arrangements of each kind."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit.geometry import enumerate_faces
from titskit.lattice import FlatLattice, build_lattice, deletion_lattice

from oracles import build_lattice_rank, deletion_lattice_rank
from test_enumeration_oracle import KINDS, arrangements


def _assert_same_flats(lat, oracle):
    assert lat.flats == oracle.flats  # closure, dim, rank and order
    assert lat.d == oracle.d  # the oracle's d is the lineality dimension
    assert [lat.mobius(x, lat.top) for x in range(len(lat))] == [
        oracle.mobius(x, oracle.top) for x in range(len(oracle))
    ]


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_lattice_matches_rank_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    oracle = build_lattice_rank(arr, faces)
    _assert_same_flats(lat, oracle)
    assert lat.face_support == oracle.face_support
    # a deletion's flat dims must not depend on the order of the faces
    reordered = FlatLattice(
        arr, lat.flats, dict(reversed(lat.face_support.items()))
    )
    for h in range(arr.m):
        sub, dlat = deletion_lattice(arr, lat, h)
        oracle_sub, oracle_dlat = deletion_lattice_rank(arr, oracle, h)
        assert sub.hyperplanes == oracle_sub.hyperplanes
        _assert_same_flats(dlat, oracle_dlat)
        rebuilt = build_lattice(sub, enumerate_faces(sub))
        assert dlat.face_support == rebuilt.face_support
        assert deletion_lattice(arr, reordered, h)[1].flats == dlat.flats
