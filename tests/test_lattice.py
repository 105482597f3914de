import itertools
from fractions import Fraction

import pytest

from titskit.elements import braid_arrangement
from titskit.geometry import ArrangementMismatch, enumerate_faces
from titskit.lattice import (
    Flat,
    FlatLattice,
    IndexOutOfRange,
    NotComparable,
    UngradedLattice,
    build_lattice,
    charpoly_over,
    charpoly_under,
    deletion_lattice,
    subarrangement_map,
    support_closure,
)
from titskit.scalars import Poly, T
from titskit.tits import tits_product

from conftest import STANDARD, get_trio
from oracles import witness_support_closure


@pytest.mark.parametrize(
    "name,count",
    [
        ("braid3", 5),
        ("braid4", 15),
        ("coord2", 4),
        ("signed2", 6),
        ("triangle", 7),
        ("parallel", 3),
        ("parallel+", 6),
        ("empty2", 1),
    ],
)
def test_flat_counts(name, count):
    _, _, lat = get_trio(name)
    assert len(lat) == count


def test_braid3_structure():
    arr, faces, lat = get_trio("braid3")
    assert lat.d == 1
    assert lat.rank_top() == 2
    center = lat.index_of(frozenset({0, 1, 2}))
    assert lat.flat(center).rank == 0
    walls = [lat.index_of(frozenset({i})) for i in range(3)]
    for w in walls:
        assert lat.flat(w).rank == 1
        assert lat.leq(center, w) and lat.leq(w, lat.top)
        assert lat.mobius(w, lat.top) == -1
    assert lat.mobius(center, lat.top) == 2
    assert lat.mobius(lat.top, lat.top) == 1
    # two walls join to the top, meet nothing in between
    assert lat.join(walls[0], walls[1]) == lat.top
    assert lat.join(center, walls[0]) == walls[0]
    with pytest.raises(NotComparable):
        lat.mobius(walls[0], walls[1])


def test_support_of_faces():
    arr, faces, lat = get_trio("braid3")
    chamber = faces.face((-1, -1, -1))
    assert lat.flat(lat.support_index(chamber)) == lat.flat(lat.top)
    center = faces.face((0, 0, 0))
    assert lat.flat(lat.support_index(center)).closure == frozenset({0, 1, 2})
    wall = faces.face((0, -1, -1))
    assert lat.flat(lat.support_index(wall)).closure == frozenset({0})
    assert support_closure(arr, wall) == frozenset({0})


@pytest.mark.parametrize("name", STANDARD)
def test_support_closure_is_zero_set(name):
    arr, faces, _ = get_trio(name)
    for f in faces:
        assert support_closure(arr, f) == witness_support_closure(arr, f)


@pytest.mark.parametrize(
    "name,chi",
    [
        ("braid2", (-1, 1)),
        ("braid3", (2, -3, 1)),
        ("braid4", (-6, 11, -6, 1)),
        ("coord2", (1, -2, 1)),
        ("signed2", (3, -4, 1)),
        ("triangle", (3, -3, 1)),
        ("parallel", (-2, 1)),
        ("parallel+", (2, -3, 1)),
        ("empty2", (1,)),
    ],
)
def test_characteristic_polynomials(name, chi):
    _, _, lat = get_trio(name)
    assert lat.charpoly() == Poly([Fraction(c) for c in chi])


def test_charpoly_monic_of_degree_rank():
    for name in STANDARD:
        _, _, lat = get_trio(name)
        chi = lat.charpoly()
        r = lat.rank_top()
        assert chi.degree == r
        assert chi.coefficient(r) == 1


def test_mobius_alternates_in_sign():
    for name in STANDARD:
        _, _, lat = get_trio(name)
        r = lat.rank_top()
        for x in range(len(lat)):
            mu = lat.mobius(x, lat.top)
            k = r - lat.flat(x).rank
            assert mu != 0
            assert (mu > 0) == (k % 2 == 0)


def test_charpoly_under_and_over():
    _, _, lat = get_trio("braid3")
    wall = lat.index_of(frozenset({0}))
    assert charpoly_under(lat, wall) == T - 1
    assert charpoly_over(lat, wall) == T - 1
    center = lat.index_of(frozenset({0, 1, 2}))
    assert charpoly_under(lat, center) == Poly((1,))
    assert charpoly_over(lat, center) == lat.charpoly()
    assert charpoly_over(lat, lat.top) == Poly((1,))
    assert charpoly_under(lat, lat.top) == lat.charpoly()


def test_under_over_at_affine_vertex():
    # a vertex is minimal in the containment order: nothing sits under it,
    # while the interval over it sees the two lines passing through it
    _, _, lat = get_trio("triangle")
    vertex = lat.index_of(frozenset({0, 1}))
    assert charpoly_under(lat, vertex) == Poly((1,))
    assert charpoly_over(lat, vertex) == (T - 1) ** 2


def test_join_via_closure_intersection():
    _, _, lat = get_trio("triangle")
    for x in range(len(lat)):
        for y in range(len(lat)):
            j = lat.join(x, y)
            cx, cy = lat.flat(x).closure, lat.flat(y).closure
            assert lat.flat(j).closure == cx & cy
            assert lat.leq(x, j) and lat.leq(y, j)


def test_support_multiplicative_over_product():
    for name in ["braid3", "triangle"]:
        _, faces, lat = get_trio(name)
        signs = faces.sign_vectors()
        for f in signs:
            for g in signs:
                fg = tits_product(faces, f, g)
                sf = lat.face_support[f]
                sg = lat.face_support[g]
                assert lat.face_support[fg] == lat.join(sf, sg)


def test_subarrangement_morphism():
    arr, faces, _ = get_trio("braid3")
    fmap = subarrangement_map(arr, [0, 1])
    sub_faces = enumerate_faces(fmap.target)
    signs = faces.sign_vectors()
    for f in signs:
        assert fmap(f) in sub_faces
        for g in signs:
            assert fmap(tits_product(faces, f, g)) == tits_product(
                sub_faces, fmap(f), fmap(g)
            )


def test_deletion_lattice_matches_rebuild():
    for name in ["braid3", "triangle", "parallel+", "signed2"]:
        arr, faces, lat = get_trio(name)
        for h in range(arr.m):
            sub, dlat = deletion_lattice(arr, lat, h)
            rebuilt = build_lattice(sub, enumerate_faces(sub))
            assert {f.closure for f in dlat.flats} == {
                f.closure for f in rebuilt.flats
            }
            for f in dlat.flats:
                i = dlat.index_of(f.closure)
                j = rebuilt.index_of(f.closure)
                assert f.rank == rebuilt.flat(j).rank
                assert dlat.mobius(i, dlat.top) == rebuilt.mobius(
                    j, rebuilt.top
                )
            assert dlat.charpoly() == rebuilt.charpoly()
            assert dlat.face_support == rebuilt.face_support


def test_deletion_index_out_of_range():
    arr, _, lat = get_trio("braid3")
    with pytest.raises(IndexOutOfRange):
        deletion_lattice(arr, lat, 3)


def test_build_lattice_rejects_faces_of_another_arrangement():
    arr, faces, _ = get_trio("braid3")
    with pytest.raises(ArrangementMismatch):
        build_lattice(braid_arrangement(3), faces)
    with pytest.raises(ArrangementMismatch):
        build_lattice(arr, list(faces))


def test_ungraded_lattice_rejected():
    arr, _, _ = get_trio("braid3")
    flats = [
        Flat(closure=frozenset({0, 1, 2}), dim=1, rank=0),
        Flat(closure=frozenset(), dim=3, rank=2),
    ]
    with pytest.raises(UngradedLattice):
        FlatLattice(arr, flats)


def test_parallel_pair_has_no_bottom():
    _, _, lat = get_trio("parallel")
    minimal = [
        x
        for x in range(len(lat))
        if all(not lat.leq(y, x) for y in range(len(lat)) if y != x)
    ]
    assert len(minimal) == 2
    assert lat.charpoly() == T - 2
