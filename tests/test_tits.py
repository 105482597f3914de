import random
from fractions import Fraction

import numpy
import pytest

from titskit.elements import braid_arrangement
from titskit.geometry import ArrangementMismatch, FaceSet, NotAFace
from titskit.lattice import FlatLattice, deletion_lattice, subarrangement_map
from titskit.linalg import matrix_rank, nullspace
from titskit.scalars import Poly, T
from titskit.tits import (
    NotClosed,
    ScalarMismatch,
    TitsElement,
    _deviation,
    basis_element,
    chamber_sum,
    character,
    compose_signs,
    element_to_json,
    flat_multiply,
    is_characteristic,
    multiply,
    pushforward,
    q_basis,
    support_sum,
    takeuchi_element,
    tits_product,
    unit_element,
)

from conftest import STANDARD, get_trio


def test_compose_signs_rule():
    assert compose_signs((1, 0, -1), (0, 1, 1)) == (1, 1, -1)
    assert compose_signs((0, 0), (-1, 1)) == (-1, 1)
    # absorbing on the left once all entries are set
    assert compose_signs((1, -1), (0, 0)) == (1, -1)


def test_product_worked_example():
    # move off the wall x1 = x2 toward the chamber x2 < x3 < x1
    _, faces, _ = get_trio("braid3")
    assert tits_product(faces, (0, -1, -1), (1, 1, -1)) == (1, -1, -1)


def test_product_matches_segment_walk():
    # independent oracle: FG is the face seen when leaving the witness of F
    # straight toward the witness of G
    for name in ["braid3", "triangle"]:
        arr, faces, _ = get_trio(name)
        for f in faces:
            vf = [h.value(f.witness) for h in arr.hyperplanes]
            for g in faces:
                vg = [h.value(g.witness) for h in arr.hyperplanes]
                # small enough that no nonzero value of F changes sign
                step = Fraction(1, 2)
                for a, b in zip(vf, vg):
                    if a != 0:
                        step = min(step, abs(a) / (abs(a - b) + 1) / 2)
                point = tuple(
                    a + step * (b - a)
                    for a, b in zip(f.witness, g.witness)
                )
                assert arr.sign_vector(point) == tits_product(
                    faces, f.signs, g.signs
                )


def test_product_associative_exhaustively():
    for name in ["braid3", "coord2"]:
        _, faces, _ = get_trio(name)
        signs = faces.sign_vectors()
        for f in signs:
            for g in signs:
                fg = tits_product(faces, f, g)
                for h in signs:
                    assert tits_product(
                        faces, fg, h
                    ) == tits_product(faces, f, tits_product(faces, g, h))


def test_product_idempotent_and_absorbing():
    _, faces, _ = get_trio("braid3")
    for f in faces.sign_vectors():
        assert tits_product(faces, f, f) == f
        for c in faces.chambers():
            assert tits_product(faces, c.signs, f) == c.signs


def test_minimal_face_is_left_identity_when_central():
    for name in ["braid3", "signed2", "coord2"]:
        _, faces, _ = get_trio(name)
        zero = (0,) * faces.arr.m
        for f in faces.sign_vectors():
            assert tits_product(faces, zero, f) == f


def test_product_rejects_non_faces():
    arr, faces, _ = get_trio("braid3")
    with pytest.raises(NotAFace):
        tits_product(faces, (1, -1, 1), (0, 0, 0))
    # a key of another length or with another entry is missing from the
    # face set's index, as a non-face is
    zero = basis_element(arr, (0, 0, 0))
    for bad in ((1, -1), (1, -1, 1, 0), (2, 0, 0)):
        w = TitsElement(arr, {bad: Fraction(1)})
        for left, right in ((w, zero), (zero, w)):
            with pytest.raises(NotAFace, match="is not a face"):
                multiply(faces, left, right)


def test_multiply_rejects_keys_that_are_not_faces():
    # (+, -, +) is a sign vector of length 3 that no point realizes
    arr, faces, _ = get_trio("braid3")
    chamber = basis_element(arr, (-1, -1, -1))
    bad = basis_element(arr, (1, -1, 1))
    mixed = chamber + bad.scale(Fraction(2))
    for left, right in ((chamber, bad), (bad, chamber), (bad, bad),
                        (chamber, mixed), (mixed, chamber)):
        with pytest.raises(NotAFace, match=r"\+-\+ is not a face"):
            multiply(faces, left, right)
    for left, right in (((-1, -1, -1), (1, -1, 1)), ((1, -1, 1), (-1, -1, -1))):
        with pytest.raises(NotAFace):
            tits_product(faces, left, right)


def test_products_outside_the_face_set_rejected():
    arr, faces, _ = get_trio("braid3")
    wall, chamber = (0, -1, -1), (1, 1, 1)
    product = compose_signs(wall, chamber)
    partial = FaceSet(arr, [f for f in faces if f.signs != product])
    with pytest.raises(NotClosed, match="missing from the face set"):
        tits_product(partial, wall, chamber)
    with pytest.raises(NotClosed, match="missing from the face set"):
        multiply(
            partial, basis_element(arr, wall), basis_element(arr, chamber)
        )


def test_elements_of_another_arrangement_rejected():
    arr, faces, _ = get_trio("braid3")
    h = basis_element(arr, (0, 0, 0))
    # an equal arrangement built again is still another object
    other = basis_element(braid_arrangement(3), (0, 0, 0))
    with pytest.raises(ArrangementMismatch):
        h + other
    with pytest.raises(ArrangementMismatch):
        multiply(faces, h, other)
    with pytest.raises(ArrangementMismatch):
        pushforward(subarrangement_map(arr, [0, 1]), other)


def test_element_arithmetic_and_zero_dropping():
    arr, faces, _ = get_trio("braid3")
    h = basis_element(arr, (0, 0, 0))
    w = h.scale(Fraction(2)) - h.scale(Fraction(2))
    assert len(w) == 0
    u = h + h
    assert u.coeffs[(0, 0, 0)] == 2
    assert u.kind == "rational"
    p = h.map_coeffs(lambda c: c * T)
    assert p.kind == "poly"
    assert p.evaluate(Fraction(3)).coeffs[(0, 0, 0)] == 3


def test_multiply_mixed_kinds_rejected():
    arr, faces, _ = get_trio("braid3")
    h = basis_element(arr, (0, 0, 0))
    p = h.map_coeffs(lambda c: c * T)
    with pytest.raises(ScalarMismatch):
        multiply(faces, h, p)
    f = h.map_coeffs(float)
    for left, right in ((h, f), (f, h)):
        with pytest.raises(ScalarMismatch, match="rational element"):
            multiply(faces, left, right)
    # an empty element has no kind to mismatch
    empty = TitsElement(arr, {(0, 0, 0): 0.0})
    for left, right in ((h, empty), (empty, h)):
        assert multiply(faces, left, right) == TitsElement(arr, {})


def test_rational_products_read_no_kind(monkeypatch):
    # two rational operands cannot mismatch, so neither kind is read
    _, faces, _ = get_trio("braid3")
    reads = []
    kind = TitsElement.kind.fget
    monkeypatch.setattr(TitsElement, "kind",
                        property(lambda w: reads.append(w) or kind(w)))
    tau = takeuchi_element(faces)
    assert multiply(faces, tau, tau) == unit_element(faces)
    assert reads == []
    float_tau = tau.map_coeffs(float)
    multiply(faces, float_tau, float_tau)
    assert len(reads) == 2


def test_unsupported_scalars_raise_with_an_empty_operand():
    arr, faces, _ = get_trio("braid3")
    empty = TitsElement(arr, {})
    for bad in ("1", numpy.int64(1)):
        w = TitsElement(arr, {(0, 0, 0): bad})
        for left, right in ((w, empty), (empty, w)):
            with pytest.raises(TypeError, match="unsupported scalar"):
                multiply(faces, left, right)


def test_deviation_is_the_largest_float_difference():
    arr, _, _ = get_trio("braid3")
    a = TitsElement(arr, {(0, 0, 0): 0.1, (1, 1, 1): 0.2})
    b = TitsElement(arr, {(0, 0, 0): Fraction(1, 3),
                          (-1, -1, -1): Fraction(7, 3)})
    # a key only in the exact target still reads as a float
    dev = _deviation(a, b)
    assert type(dev) is float and dev == float(Fraction(7, 3))
    assert _deviation(a, a.scale(2.0)) == 0.2
    assert type(_deviation(a, a)) is float and _deviation(a, a) == 0.0


def _random_element(arr, faces, rng, kmax=3):
    coeffs = {}
    signs = faces.sign_vectors()
    for s in rng.sample(signs, k=min(len(signs), rng.randint(1, kmax + 2))):
        coeffs[s] = Fraction(rng.randint(-3, 3))
    return TitsElement(arr, coeffs)


def test_characters_are_multiplicative():
    rng = random.Random(0)
    for name in ["braid3", "triangle", "parallel+"]:
        arr, faces, lat = get_trio(name)
        for _ in range(10):
            w = _random_element(arr, faces, rng)
            v = _random_element(arr, faces, rng)
            wv = multiply(faces, w, v)
            for x in range(len(lat)):
                assert character(lat, wv, x) == character(
                    lat, w, x
                ) * character(lat, v, x)


def test_character_counts_supports_below():
    _, faces, lat = get_trio("braid3")
    tau = takeuchi_element(faces)
    # at the top every face contributes its coefficient
    assert character(lat, tau, lat.top) == sum(tau.coeffs.values())
    wall = lat.index_of(frozenset({0}))
    # faces supported at or under the wall: the center and the two walls
    assert character(lat, tau, wall) == Fraction(-1)


def test_characters_reject_sign_vectors_that_are_not_faces():
    # a lattice built from the faces holds every face, so a miss is not one
    arr, faces, lat = get_trio("braid3")
    bad = basis_element(arr, (1, -1, 1))
    mixed = takeuchi_element(faces) + bad
    for w in (bad, mixed):
        for query in (
            lambda: character(lat, w, lat.top),
            lambda: support_sum(lat, w, lat.top),
            lambda: chamber_sum(lat, w),
            lambda: is_characteristic(lat, w, Fraction(-1)),
        ):
            with pytest.raises(NotAFace, match=r"\+-\+ is not a face"):
                query()
    with pytest.raises(NotAFace, match=r"\+-\+ is not a face"):
        lat.support((1, -1, 1))
    # the same flats with no face map, and a deletion's lattice, map any
    # sign vector of length m by its zero set
    bare = FlatLattice(arr, lat.flats)
    assert character(bare, bad, bare.top) == 1
    assert support_sum(bare, bad, bare.top) == 1
    fmap, dlat = deletion_lattice(arr, lat, 0)
    image = basis_element(fmap.target, (1, -1))
    assert character(dlat, image, dlat.top) == 1


def test_sign_vectors_of_the_wrong_length_are_not_faces():
    arr, faces, lat = get_trio("braid3")
    fmap, dlat = deletion_lattice(arr, lat, 0)
    bare = FlatLattice(arr, lat.flats)
    for lattice in (lat, bare, dlat):
        m = lattice.arr.m
        for signs in ((), (0,) * (m - 1), (1,) * (m - 1), (1,) * (m + 1)):
            with pytest.raises(NotAFace, match="is not a face"):
                lattice.support(signs)
        w = basis_element(lattice.arr, (1,) * (m - 1))
        with pytest.raises(NotAFace):
            character(lattice, w, lattice.top)
        with pytest.raises(NotAFace):
            is_characteristic(lattice, w, Fraction(1))
    for signs in ((1, 1), (1, 1, 1, 1), (0, 0, 0, 0)):
        with pytest.raises(NotAFace, match="is not a face"):
            pushforward(fmap, basis_element(arr, signs))


def test_unit_element_is_two_sided_identity():
    for name in STANDARD:
        arr, faces, _ = get_trio(name)
        u = unit_element(faces)
        for f in faces.sign_vectors():
            h = basis_element(arr, f)
            assert multiply(faces, u, h) == h
            assert multiply(faces, h, u) == h


def test_unit_and_takeuchi_are_characteristic():
    for name in STANDARD:
        _, faces, lat = get_trio(name)
        assert is_characteristic(lat, unit_element(faces), Fraction(1)).ok
        assert is_characteristic(
            lat, takeuchi_element(faces), Fraction(-1)
        ).ok


def test_characteristic_entries_follow_the_parameter_type():
    # matched entries come from a table per lattice and parameter; 1,
    # Fraction(1) and 1.0 are equal and hash alike, yet each report holds
    # powers of its own parameter, as a fresh t ** rank would be
    _, faces, lat = get_trio("braid3")
    u = unit_element(faces)
    for t in (1, Fraction(1), 1.0, 1, Poly((1,))):
        rep = is_characteristic(lat, u, t)
        assert rep.ok
        for x, chi, expected, dev in rep.entries:
            assert type(chi) is type(expected) is type(t ** lat.flat(x).rank)
            assert expected == t ** lat.flat(x).rank and dev == 0
    assert is_characteristic(lat, u, 1).entries[0] is is_characteristic(
        lat, u, 1
    ).entries[0]
    # Poly((1,)) == 1 and they hash alike, yet the table keys on the type too
    assert {key[0] for key in lat._matched} == {int, Fraction, float, Poly}


def test_takeuchi_squares_to_unit():
    for name in ["braid3", "coord2", "triangle", "parallel"]:
        _, faces, _ = get_trio(name)
        tau = takeuchi_element(faces)
        assert multiply(faces, tau, tau) == unit_element(faces)


def test_characteristic_violations_reported():
    _, faces, lat = get_trio("braid3")
    rep = is_characteristic(lat, takeuchi_element(faces), Fraction(1))
    assert not rep.ok
    assert rep.violations()
    flat_idx, chi, expected, dev = rep.violations()[0]
    assert chi != expected and dev > 0


def test_all_matched_reports_share_their_entries():
    _, faces, lat = get_trio("braid3")
    first = is_characteristic(lat, unit_element(faces), Fraction(1))
    second = is_characteristic(lat, unit_element(faces), Fraction(1))
    assert first.ok and second.ok
    assert first.entries is second.entries
    assert first.entries == tuple(
        (x, Fraction(1), Fraction(1), 0) for x in range(len(lat))
    )


def test_report_with_a_mismatch_gets_its_own_entries():
    _, faces, lat = get_trio("braid3")
    shared = is_characteristic(lat, unit_element(faces), Fraction(1)).entries
    rep = is_characteristic(lat, takeuchi_element(faces), Fraction(1))
    assert not rep.ok and rep.entries is not shared
    assert type(rep.entries) is tuple and len(rep.entries) == len(shared)
    for entry, match in zip(rep.entries, shared):
        x, chi, expected, dev = entry
        assert expected == match[2]
        assert entry is match if dev == 0 else dev == abs(chi - expected) > 0
    assert rep.violations() == [e for e in rep.entries if e[3] != 0] != []


def test_chamber_and_support_sums_evaluate_chi():
    for name in STANDARD:
        _, faces, lat = get_trio(name)
        chi = lat.charpoly()
        assert chamber_sum(lat, takeuchi_element(faces)) == chi(Fraction(-1))
        assert chamber_sum(lat, unit_element(faces)) == chi(Fraction(1))
        tau = takeuchi_element(faces)
        total = sum(
            support_sum(lat, tau, x) for x in range(len(lat))
        )
        assert total == character(lat, tau, lat.top)


def test_q_basis_orthogonal_idempotents():
    for name in ["braid3", "triangle", "parallel", "coord2"]:
        _, _, lat = get_trio(name)
        q = q_basis(lat)
        for x, qx in q.items():
            for y, qy in q.items():
                prod = flat_multiply(lat, qx, qy)
                assert prod == (qx if x == y else {})
        # the rows are the lattice's own Mobius rows, so they are read-only,
        # and so is the one mapping that every call returns
        with pytest.raises(TypeError):
            q[lat.top][lat.top] = 0
        with pytest.raises(TypeError):
            q[lat.top] = {}
        assert q_basis(lat) is q
        # completeness: the sum acts as the unit of the flat algebra
        total = {}
        for qx in q.values():
            for k, c in qx.items():
                total[k] = total.get(k, Fraction(0)) + c
        total = {k: c for k, c in total.items() if c != 0}
        for y in range(len(lat)):
            assert flat_multiply(lat, total, {y: Fraction(1)}) == {
                y: Fraction(1)
            }


def test_q_basis_on_bottomless_semilattice():
    _, _, lat = get_trio("parallel")
    q = q_basis(lat)
    total = {}
    for qx in q.values():
        for k, c in qx.items():
            total[k] = total.get(k, Fraction(0)) + c
    # two minimal flats force a three-term unit
    assert {k: c for k, c in total.items() if c != 0} == {
        0: Fraction(1),
        1: Fraction(1),
        lat.top: Fraction(-1),
    }


def test_h_basis_from_q_basis():
    _, _, lat = get_trio("braid3")
    q = q_basis(lat)
    for x in range(len(lat)):
        acc = {}
        for y in lat.above(x):
            for k, c in q[y].items():
                acc[k] = acc.get(k, Fraction(0)) + c
        acc = {k: c for k, c in acc.items() if c != 0}
        assert acc == {x: Fraction(1)}


def test_character_matrix_rank_and_kernel():
    for name in ["braid3", "triangle"]:
        arr, faces, lat = get_trio(name)
        signs = faces.sign_vectors()
        rows = [
            [
                Fraction(1)
                if lat.leq(lat.support(s), x)
                else Fraction(0)
                for s in signs
            ]
            for x in range(len(lat))
        ]
        assert matrix_rank(rows) == len(lat)
        kernel = nullspace(rows, len(signs))
        assert len(kernel) == len(signs) - len(lat)
        # characteristic elements are unique only modulo this kernel
        u = unit_element(faces)
        bumped = dict(u.coeffs)
        for s, c in zip(signs, kernel[0]):
            bumped[s] = bumped.get(s, Fraction(0)) + c
        assert is_characteristic(lat, TitsElement(arr, bumped), Fraction(1)).ok


def test_same_support_difference_is_nilpotent():
    _, faces, lat = get_trio("braid3")
    arr = faces.arr
    chambers = faces.chambers()
    diff = basis_element(arr, chambers[0].signs) - basis_element(
        arr, chambers[1].signs
    )
    for x in range(len(lat)):
        assert character(lat, diff, x) == 0
    assert len(diff) == 2
    assert multiply(faces, diff, diff).coeffs == {}


def test_pushforward_collects_coefficients():
    arr, faces, _ = get_trio("braid3")
    fmap = subarrangement_map(arr, [0, 1])
    tau = takeuchi_element(faces)
    image = pushforward(fmap, tau)
    # total mass is preserved
    assert sum(image.coeffs.values()) == sum(tau.coeffs.values())
    # two faces of the braid map onto the sign pattern (0, 0)
    assert image.coeffs[(0, 0)] == sum(
        c for s, c in tau.coeffs.items() if (s[0], s[1]) == (0, 0)
    )


def test_element_json_shape():
    arr, faces, _ = get_trio("braid3")
    u = unit_element(faces)
    data = element_to_json(u)
    assert all(set(d) == {"sign_vector", "coeff"} for d in data)
    assert sorted(d["sign_vector"] for d in data) == [
        d["sign_vector"] for d in data
    ]
