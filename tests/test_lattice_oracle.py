"""Differential tests: the flat lattice built from the zero sets and
dimensions of the faces against the rank-based construction in `oracles`,
its order, joins and Mobius function against the cubic scans there, and
its characters against a scan of the element per flat, for the full
arrangement and for every deletion, on random small rational arrangements
of each kind; every deletion's lattice, read off the flats, against the
one built from the images of the faces; the deletion-restriction check
through one restriction map against the two-map check in `oracles`, for
every hyperplane; the chambers of the Takeuchi and unit elements
pushed forward to each deletion against their support sums; the support
of every face against its zero set, with NotAFace for sign vectors that
are not faces; gradedness against the cover scan in `oracles` on flats
with one rank moved; and the Mobius columns a deletion check builds."""

from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titskit import elements
from titskit.elements import verify_deletion_restriction
from titskit.geometry import NotAFace, enumerate_faces
from titskit.lattice import (
    Flat,
    FlatLattice,
    UngradedLattice,
    build_lattice,
    deletion_lattice,
)
from titskit.tits import (
    is_characteristic,
    pushforward,
    support_sum,
    takeuchi_element,
    unit_element,
)

from oracles import (
    build_lattice_rank,
    characters_scan,
    deletion_lattice_images,
    deletion_lattice_rank,
    mobius_table,
    validate_graded,
    verify_deletion_restriction_two_maps,
    zero_set,
)
from test_enumeration_oracle import KINDS, arrangements


def _assert_same_flats(lat, oracle, faces):
    assert lat.flats == oracle.flats  # closure, dim, rank and order
    assert lat.d == oracle.d  # the oracle's d is the lineality dimension
    assert [lat.mobius(x, lat.top) for x in range(len(lat))] == [
        oracle.mobius(x, oracle.top) for x in range(len(oracle))
    ]
    flats = lat.flats
    n = len(flats)
    validate_graded(flats)
    assert {
        (y, x): lat.mobius(y, x) for y in range(n) for x in lat.above(y)
    } == mobius_table(flats)
    assert {
        (y, x): mu for y in range(n) for x, mu in lat.mobius_row(y).items()
    } == mobius_table(flats)
    contains = [[flats[y].closure >= flats[x].closure for x in range(n)]
                for y in range(n)]
    assert [[lat.leq(y, x) for x in range(n)] for y in range(n)] == contains
    for x in range(n):
        assert lat.below(x) == [y for y in range(n) if contains[y][x]]
        assert lat.above(x) == [y for y in range(n) if contains[x][y]]
        for y in range(n):
            meet = flats[x].closure & flats[y].closure
            assert lat.join(x, y) == lat.index_of(meet)
    for w, t in ((unit_element(faces), Fraction(1)),
                 (takeuchi_element(faces), Fraction(-1))):
        expected = tuple(
            (x, chi, t ** f.rank, abs(chi - t ** f.rank))
            for x, (f, chi) in enumerate(zip(flats, characters_scan(flats, w)))
        )
        assert is_characteristic(lat, w, t).entries == expected


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_lattice_matches_rank_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    oracle = build_lattice_rank(arr, faces)
    _assert_same_flats(lat, oracle, faces)
    for f in faces:
        assert lat.support(f.signs) == oracle.support(f.signs)
    # a deletion reads the flats alone, not the face map
    bare = FlatLattice(arr, lat.flats)
    for h in range(arr.m):
        fmap, dlat = deletion_lattice(arr, lat, h)
        sub = fmap.target
        oracle_sub, oracle_dlat = deletion_lattice_rank(arr, oracle, h)
        assert sub.hyperplanes == oracle_sub.hyperplanes
        sub_faces = enumerate_faces(sub)
        _assert_same_flats(dlat, oracle_dlat, sub_faces)
        rebuilt = build_lattice(sub, sub_faces)
        # the deletion resolves each of its faces by its zero set
        for f in sub_faces:
            assert dlat.support(f.signs) == rebuilt.support(f.signs)
        assert deletion_lattice(arr, bare, h)[1].flats == dlat.flats


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_deletion_lattice_matches_face_image_oracle(kind, data):
    """Every deletion's lattice, read off the flats, against the one built
    from the images of every face and the one built by rank; also from a
    lattice without a face map, which the face-image build cannot use."""
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    bare = FlatLattice(arr, lat.flats)
    assert bare.faces is None
    by_rank_full = build_lattice_rank(arr, faces)
    for h in range(arr.m):
        fmap, dlat = deletion_lattice(arr, lat, h)
        image_map, by_images, images = deletion_lattice_images(arr, lat, h)
        _, by_rank = deletion_lattice_rank(arr, by_rank_full, h)
        assert fmap.indices == image_map.indices
        for oracle in (by_images, by_rank):
            assert dlat.flats == oracle.flats  # closure, dim, rank and order
            assert dlat.d == oracle.d
            assert dlat.rank_top() == oracle.rank_top()
            assert [dlat.mobius(x, dlat.top) for x in range(len(dlat))] == [
                oracle.mobius(x, oracle.top) for x in range(len(oracle))
            ]
            assert dlat.charpoly() == oracle.charpoly()
        rebuilt = build_lattice(fmap.target, enumerate_faces(fmap.target))
        assert set(images) == set(rebuilt.faces.sign_vectors())
        for signs in rebuilt.faces.sign_vectors():
            x = rebuilt.support(signs)
            assert dlat.support(signs) == x
            assert images[signs] == x
        from_bare = deletion_lattice(arr, bare, h)[1]
        assert from_bare.flats == dlat.flats
        for signs in rebuilt.faces.sign_vectors():
            assert from_bare.support(signs) == rebuilt.support(signs)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_deletion_restriction_matches_two_map_oracle(kind, data):
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    oracle = build_lattice_rank(arr, faces)
    for h in range(arr.m):
        rep = verify_deletion_restriction(arr, faces, lat, h)
        old = verify_deletion_restriction_two_maps(arr, faces, lat, h)
        for field in fields(rep):
            assert getattr(rep, field.name) == getattr(old, field.name)
        assert rep.ok == old.ok
        fmap, _ = deletion_lattice(arr, lat, h)
        assert fmap.indices == tuple(i for i in range(arr.m) if i != h)
        assert (fmap.target.hyperplanes
                == deletion_lattice_rank(arr, oracle, h)[0].hyperplanes)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_deletion_pushforward_matches_support_sums(kind, data):
    # the chambers of the image of w under the deletion map are the faces
    # of A with no zero off h: those supported at the top flat or at {h}
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    for h in range(arr.m):
        fmap, dlat = deletion_lattice(arr, lat, h)
        flat_h = lat.index_of(frozenset({h}))
        for w, t in ((takeuchi_element(faces), -1), (unit_element(faces), 1)):
            image = pushforward(fmap, w)
            chambers = sum(c for signs, c in image.coeffs.items() if all(signs))
            assert chambers == (
                support_sum(lat, w, lat.top) + support_sum(lat, w, flat_h)
            )
            if dlat.rank_top() == lat.rank_top():
                assert chambers == dlat.charpoly()(t)


def _zero_set_map(lat):
    """The oracle support: a sign vector to the flat whose closure is its
    zero set, read from the flats alone."""
    index = {f.closure: i for i, f in enumerate(lat.flats)}
    return lambda signs: index[zero_set(signs)]


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_support_matches_zero_set_oracle(kind, data):
    """support sends every face to the flat of its zero set: on the lattice
    of the faces (through the face set's packed keys), on the same flats
    without the face set, and on every deletion's lattice."""
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    bare = FlatLattice(arr, lat.flats)
    assert lat.faces is faces and bare.faces is None
    for one in (lat, bare):
        oracle = _zero_set_map(one)
        for signs in faces.sign_vectors():
            assert one.support(signs) == oracle(signs)
    for h in range(arr.m):
        fmap, dlat = deletion_lattice(arr, lat, h)
        oracle = _zero_set_map(dlat)
        for signs in enumerate_faces(fmap.target).sign_vectors():
            assert dlat.support(signs) == oracle(signs)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_support_rejects_sign_vectors_that_are_not_faces(kind, data):
    """On the lattice of the faces, each one-entry mutation of a face that
    is not a face, and each sign vector one entry too long or too short,
    raises NotAFace; a mutation that is a face maps by its zero set."""
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    oracle = _zero_set_map(lat)
    signs = data.draw(st.sampled_from(faces.sign_vectors()))
    wrong_length = [signs + (s,) for s in (-1, 0, 1)] + [signs[:-1]] * bool(signs)
    for j in range(arr.m):
        for s in {-1, 0, 1} - {signs[j]}:
            mutated = signs[:j] + (s,) + signs[j + 1:]
            if mutated in faces:
                assert lat.support(mutated) == oracle(mutated)
                continue
            with pytest.raises(NotAFace, match="is not a face"):
                lat.support(mutated)
    for bad in wrong_length:
        with pytest.raises(NotAFace, match="is not a face"):
            lat.support(bad)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_ungraded_exactly_when_cover_oracle_raises(kind, data):
    """The flats of an arrangement with one rank moved: FlatLattice raises
    UngradedLattice exactly when `validate_graded` does, on the same first
    cover and with the same message."""
    arr = data.draw(arrangements(kind))
    flats = list(build_lattice(arr, enumerate_faces(arr)).flats)
    i = data.draw(st.integers(0, len(flats) - 1))
    shift = data.draw(st.sampled_from((-2, -1, 1, 2)))
    f = flats[i]
    flats[i] = Flat(closure=f.closure, dim=f.dim + shift, rank=f.rank + shift)
    try:
        validate_graded(flats)
    except UngradedLattice as expected:
        with pytest.raises(UngradedLattice) as raised:
            FlatLattice(arr, flats)
        assert str(raised.value) == str(expected)
    else:
        FlatLattice(arr, flats)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(data=st.data())
def test_deletion_check_builds_one_column_per_deletion_lattice(kind, data):
    """verify_deletion_restriction reads chi(A minus H) from one Mobius
    column of the deletion's lattice, the top one, and builds each column
    of the full lattice once: the top and the flats {h}."""
    arr = data.draw(arrangements(kind))
    faces = enumerate_faces(arr)
    lat = build_lattice(arr, faces)
    built, deletions = Counter(), []
    column = FlatLattice._column

    def counted(self, x):
        built[id(self), x] += x not in self._columns
        return column(self, x)

    def recorded(*args):
        fmap, dlat = deletion_lattice(*args)
        deletions.append(dlat)
        return fmap, dlat

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FlatLattice, "_column", counted)
        mp.setattr(elements, "deletion_lattice", recorded)
        for h in range(arr.m):
            verify_deletion_restriction(arr, faces, lat, h)
    assert len(deletions) == arr.m
    for dlat in deletions:
        assert {x: n for (i, x), n in built.items() if i == id(dlat)} == {
            dlat.top: 1
        }
    wanted = {x for h in range(arr.m) for x in (lat.top, lat.index_of({h}))}
    assert {x: n for (i, x), n in built.items() if i == id(lat)} == dict.fromkeys(
        wanted, 1
    )
