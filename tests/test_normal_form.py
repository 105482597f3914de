"""Differential tests: the integer normal form in `titskit.linalg` (rows
scaled to integers by their denominators' lcm and divided by their gcd)
against `oracles.canonicalize_gcd`, `oracles.line_gcd` and
`oracles.primitive_gcd`, each with its own gcd, on rows of ints and
Fractions with zeros, negatives, single entries and entries past 2^64; and
the hyperplanes and fingerprints of the family arrangements, generic
draws, the triangle file and a rational file, pinned and against the
arrangements built with the oracle's canonical form."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit import geometry
from titskit.elements import (
    braid_arrangement,
    coordinate_arrangement,
    generic_arrangement,
    signed_braid_arrangement,
)
from titskit.geometry import (
    ZeroNormal,
    arrangement_from_json,
    canonicalize,
    load_arrangement,
)
from titskit.linalg import _integer_row, _line, _primitive

from oracles import canonicalize_gcd, common_denominator, line_gcd, primitive_gcd

_SETTINGS = settings(
    derandomize=True, deadline=None, database=None, max_examples=300
)

# small entries (zero among them) and entries past 2^64, of either sign
_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
_fractions = st.builds(Fraction, _ints, st.integers(1, 2**70) | st.integers(1, 6))
_entries = st.one_of(_ints, _fractions)
_int_rows = st.lists(_ints, min_size=1, max_size=5)
_rows = st.lists(_entries, min_size=1, max_size=5)


def _types(row):
    return [type(c) for c in row]


@_SETTINGS
@given(normal=_rows, offset=_entries)
def test_canonicalize_matches_oracle(normal, offset):
    if not any(normal):
        for form in (canonicalize, canonicalize_gcd):
            with pytest.raises(ZeroNormal):
                form(normal, offset)
        return
    h, expected = canonicalize(normal, offset), canonicalize_gcd(normal, offset)
    assert h.normal == expected.normal and h.offset == expected.offset
    assert _types(h.normal) == _types(expected.normal)
    assert type(h.offset) is type(expected.offset) is Fraction


@pytest.mark.parametrize(
    "normal", [(0,), (0, 0, 0), (Fraction(0), 0), (Fraction(0, 7),)]
)
def test_zero_normal_raises(normal):
    with pytest.raises(ZeroNormal):
        canonicalize(normal, 1)


@_SETTINGS
@given(row=_int_rows.filter(any))
def test_line_matches_oracle(row):
    line = _line(row)
    assert line == line_gcd(row) and type(line) is tuple
    assert _types(line) == [int] * len(row)


@_SETTINGS
@given(row=_int_rows)
def test_primitive_matches_oracle(row):
    p = _primitive(row)
    assert p == primitive_gcd(row) and type(p) is tuple
    assert _types(p) == [int] * len(row)


@_SETTINGS
@given(row=_rows)
def test_integer_row_is_the_row_over_its_common_denominator(row):
    ints, den = _integer_row(row)
    assert den == common_denominator(row)
    assert ints == [int(Fraction(c) * den) for c in row]
    assert _types(ints) == [int] * len(row)


_RATIONAL = {
    "dim": 3,
    "hyperplanes": [
        {"normal": ["1/2", "-3/4", "0"], "offset": "5/6"},
        {"normal": ["-2/3", "0", "4/9"], "offset": "7/5"},
        {"normal": ["0", "-9/7", "3"], "offset": "-1/3"},
        {"normal": ["-6", "10", "-14"], "offset": "-22/7"},
    ],
}

# fingerprints from the canonical form before linalg held it
_FINGERPRINTS = {
    ("braid", 1): "630f870c6849b6cf",
    ("braid", 2): "34faf021dba43cf2",
    ("braid", 3): "3d9ab4c618b7a625",
    ("braid", 4): "f79ad89b9913df9b",
    ("braid", 5): "eb443a9f526496fc",
    ("braid", 6): "f82ea706454f6193",
    ("signed", 1): "7417229ebb20a19e",
    ("signed", 2): "b212b39075a58177",
    ("signed", 3): "a7452d60b4a7c68c",
    ("signed", 4): "bde345b144b7b357",
    ("signed", 5): "4d44f64b7a662706",
    ("signed", 6): "16aa12df6ec84531",
    ("coord", 1): "7417229ebb20a19e",
    ("coord", 2): "338b4604f114f61b",
    ("coord", 3): "252ef2b0ac3c0a0b",
    ("coord", 4): "a01bb40e0e153657",
    ("coord", 5): "a55f64a5bf4fc3be",
    ("coord", 6): "464a1d1f6dff5f65",
    ("generic", 2, 3, 0): "a3e462b1f7a21c8b",
    ("generic", 3, 6, 1): "ce2aa56adfce475c",
    ("generic", 4, 8, 1): "e9dc2029570f91b3",
    ("generic", 3, 4, 11): "55ef95cd0eeb1f36",
    ("generic", 4, 5, 2): "e18165e06c089c35",
    ("generic", 2, 5, 7): "e70709574bfd5328",
    ("triangle",): "f50b513158872c8d",
    ("rational",): "f87f70be1fff3dd5",
}

_TRIANGLE = Path(__file__).resolve().parent / "data" / "triangle.json"
_BUILD = {
    "braid": braid_arrangement,
    "signed": signed_braid_arrangement,
    "coord": coordinate_arrangement,
    "generic": generic_arrangement,
    "triangle": lambda: load_arrangement(_TRIANGLE),
    "rational": lambda: arrangement_from_json(_RATIONAL),
}


@pytest.mark.parametrize("case", list(_FINGERPRINTS), ids=str)
def test_arrangements_keep_hyperplanes_and_fingerprints(case, monkeypatch):
    arr = _BUILD[case[0]](*case[1:])
    assert arr.fingerprint() == _FINGERPRINTS[case]
    # the same rows through the oracle's canonical form
    monkeypatch.setattr(geometry, "canonicalize", canonicalize_gcd)
    expected = _BUILD[case[0]](*case[1:])
    assert arr.hyperplanes == expected.hyperplanes
    for h, e in zip(arr.hyperplanes, expected.hyperplanes):
        assert _types(h.normal) == _types(e.normal)
        assert type(h.offset) is type(e.offset) is Fraction
