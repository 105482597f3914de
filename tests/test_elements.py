import json
import random
from fractions import Fraction

import pytest

from titskit.elements import (
    GenericDegenerate,
    WrongFamily,
    adams_a,
    adams_a_normalized,
    adams_b,
    braid_arrangement,
    build_family,
    coordinate_arrangement,
    coordinate_element,
    generic_arrangement,
    in_general_position,
    signed_braid_arrangement,
    verify_deletion_restriction,
    verify_kung,
    zaslavsky_counts,
)
from titskit.geometry import (
    ArrangementMismatch,
    DuplicateHyperplane,
    enumerate_faces,
    load_arrangement,
)
from titskit.intrinsic import (
    intrinsic_element,
    klivans_swartz_charpoly,
    klivans_swartz_from_profiles,
)
from titskit.lattice import (
    FlatLattice,
    IndexOutOfRange,
    build_lattice,
    deletion_lattice,
)
from titskit.scalars import Poly, T, binom_poly
from titskit.tits import (
    chamber_sum,
    character,
    is_characteristic,
    multiply,
    support_sum,
    takeuchi_element,
)

from conftest import STANDARD, get_trio


def test_braid_builder():
    for n in range(2, 6):
        arr = braid_arrangement(n)
        assert arr.dim == n
        assert arr.m == n * (n - 1) // 2
        assert arr.kind == "braid"
    h = braid_arrangement(3).hyperplanes
    assert [x.normal for x in h] == [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    assert all(x.offset == 0 for x in h)


def test_signed_braid_builder():
    arr = signed_braid_arrangement(2)
    assert arr.m == 4 and arr.kind == "signed-braid"
    assert [h.normal for h in arr.hyperplanes] == [
        (1, -1),
        (1, 1),
        (1, 0),
        (0, 1),
    ]
    assert signed_braid_arrangement(3).m == 9
    assert signed_braid_arrangement(1).m == 1


def test_coordinate_builder():
    arr = coordinate_arrangement(3)
    assert arr.m == 3 and arr.kind == "coordinate"
    assert [h.normal for h in arr.hyperplanes] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_family_ranks():
    assert get_trio("braid4")[2].rank_top() == 3
    assert get_trio("signed2")[2].rank_top() == 2
    assert get_trio("coord3")[2].rank_top() == 3


def test_generic_arrangement_reproducible_and_general():
    a = generic_arrangement(2, 3, seed=7)
    b = generic_arrangement(2, 3, seed=7)
    assert a.fingerprint() == b.fingerprint()
    assert in_general_position(a)
    c = generic_arrangement(3, 4, seed=11)
    assert in_general_position(c)
    assert c.m == 4 and c.dim == 3


def test_generic_arrangement_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        generic_arrangement(3, 4, seed=-11)


def test_generic_arrangement_gives_up():
    with pytest.raises(GenericDegenerate):
        generic_arrangement(2, 3, seed=0, max_tries=0)


def test_general_position_predicate():
    assert not in_general_position(get_trio("braid3")[0])
    assert not in_general_position(get_trio("parallel")[0])
    assert in_general_position(get_trio("triangle")[0])


def test_build_family_dispatch_and_errors(tmp_path):
    assert build_family("braid", n=3).kind == "braid"
    assert build_family("generic", n=2, m=3, seed=7).m == 3
    with pytest.raises(ValueError):
        build_family("braid")
    with pytest.raises(ValueError):
        build_family("rainbow", n=2)
    path = tmp_path / "arr.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "hyperplanes": [
                    {"normal": ["1", "0"], "offset": "0"},
                    {"normal": ["1", "1"], "offset": "1/2"},
                ],
            }
        )
    )
    arr = load_arrangement(str(path))
    assert arr.m == 2
    assert arr.hyperplanes[1].offset == Fraction(1, 2)
    bad = tmp_path / "dup.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 2,
                "hyperplanes": [
                    {"normal": ["1", "0"], "offset": "0"},
                    {"normal": ["-2", "0"], "offset": "0"},
                ],
            }
        )
    )
    with pytest.raises(DuplicateHyperplane):
        load_arrangement(str(bad))


def test_adams_braid2_coefficients():
    _, faces, _ = get_trio("braid2")
    alpha = adams_a(faces)
    assert alpha.coeffs[(0,)] == T
    half = Fraction(1, 2)
    assert alpha.coeffs[(1,)] == Poly((0, -half, half))
    assert alpha.coeffs[(-1,)] == Poly((0, -half, half))
    norm = adams_a_normalized(faces)
    assert norm.coeffs[(0,)] == Poly((1,))
    assert norm.coeffs[(1,)] == Poly((-half, half))


def test_adams_requires_braid():
    _, faces, _ = get_trio("coord2")
    with pytest.raises(WrongFamily):
        adams_a(faces)
    with pytest.raises(WrongFamily):
        adams_b(get_trio("braid3")[1])
    with pytest.raises(WrongFamily):
        coordinate_element(get_trio("braid3")[1])


@pytest.mark.parametrize("name", ["braid2", "braid3", "braid4"])
def test_normalized_adams_is_characteristic(name):
    _, faces, lat = get_trio(name)
    assert is_characteristic(lat, adams_a_normalized(faces), T).ok


@pytest.mark.parametrize("name", ["signed1", "signed2"])
def test_signed_adams_is_characteristic(name):
    _, faces, lat = get_trio(name)
    assert is_characteristic(lat, adams_b(faces), Poly((1, 2))).ok


@pytest.mark.parametrize("name", ["coord1", "coord2", "coord3"])
def test_coordinate_element_is_characteristic(name):
    _, faces, lat = get_trio(name)
    assert is_characteristic(lat, coordinate_element(faces), T).ok


def test_coordinate_element_support():
    _, faces, _ = get_trio("coord2")
    gamma = coordinate_element(faces)
    assert gamma.coeffs[(0, 0)] == Poly((1,))
    assert gamma.coeffs[(1, 0)] == T - 1
    assert gamma.coeffs[(1, 1)] == (T - 1) ** 2
    assert set(gamma.coeffs) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_adams_multiplicative_at_rational_grid():
    for name in ["braid2", "braid3"]:
        _, faces, lat = get_trio(name)
        alpha = adams_a(faces)
        deg = lat.rank_top() + 1
        points = [Fraction(k - 2, 1) + Fraction(1, 3) for k in range(deg + 1)]
        for s in points:
            for t in points:
                lhs = multiply(faces, alpha.evaluate(s), alpha.evaluate(t))
                assert lhs == alpha.evaluate(s * t)


def test_chamber_sum_recovers_charpoly_composition():
    _, faces, lat = get_trio("braid3")
    assert chamber_sum(lat, adams_a_normalized(faces)) == lat.charpoly()
    _, sfaces, slat = get_trio("signed2")
    assert chamber_sum(slat, adams_b(sfaces)) == slat.charpoly()(Poly((1, 2)))


def test_zaslavsky_on_all_arrangements():
    for name in STANDARD:
        _, faces, lat = get_trio(name)
        rep = zaslavsky_counts(faces, lat)
        assert rep.ok, name
    rep = zaslavsky_counts(*get_trio("braid4")[1:])
    assert rep.chambers_census == 24 and rep.bounded_census == 0
    rep = zaslavsky_counts(*get_trio("triangle")[1:])
    assert rep.chambers_census == 7 and rep.bounded_census == 1


def test_deletion_restriction_everywhere():
    for name in STANDARD:
        arr, faces, lat = get_trio(name)
        for h in range(arr.m):
            rep = verify_deletion_restriction(arr, faces, lat, h)
            if rep.rank_ok:
                assert rep.identity_ok and rep.transport_ok, (name, h)
            assert rep.chi_full == lat.charpoly()


def test_deletion_restriction_index_out_of_range():
    arr, faces, lat = get_trio("braid3")
    for h in (arr.m, -1):
        with pytest.raises(IndexOutOfRange):
            verify_deletion_restriction(arr, faces, lat, h)


@pytest.mark.parametrize("name", ["braid4", "parallel+"])
def test_deletion_restriction_on_two_lattices_of_one_face_set(name):
    # the same flats with every rank listed backwards and no face map: the
    # flat indices differ, so cached support sums must follow the lattice
    # (on parallel+ the hyperplanes' support sums differ)
    arr, faces, lat = get_trio(name)
    ranks = sorted({f.rank for f in lat.flats})
    flipped = FlatLattice(arr, [
        f for r in ranks for f in reversed([g for g in lat.flats if g.rank == r])
    ])
    assert flipped.flats != lat.flats
    for h in range(arr.m):
        for a, b in ((lat, flipped), (flipped, lat)):
            rep = verify_deletion_restriction(arr, faces, a, h)
            assert rep == verify_deletion_restriction(arr, faces, b, h)
            assert rep.ok or not rep.rank_ok


# each call mixes braid3 (arrangement b3, faces f3, lattice l3, Takeuchi
# element tau3, profiles nu3) with braid4's lattice l4 or with the coord3
# arrangement c3; unchecked, each returned a wrong answer or raised a bare
# IndexError
MISMATCHED = {
    "zaslavsky_counts": (zaslavsky_counts, "f3 l4"),
    "deletion-arrangement": (verify_deletion_restriction, "c3 f3 l3 h0"),
    "deletion-lattice": (verify_deletion_restriction, "b3 f3 l4 h0"),
    "deletion_lattice": (deletion_lattice, "c3 l3 h0"),
    "intrinsic_element": (intrinsic_element, "c3 f3"),
    "klivans_swartz_charpoly": (klivans_swartz_charpoly, "f3 l4"),
    "klivans_swartz_from_profiles": (klivans_swartz_from_profiles, "f3 l4 nu3"),
    "character": (character, "l4 tau3 top4"),
    "support_sum": (support_sum, "l4 tau3 top4"),
    "chamber_sum": (chamber_sum, "l4 tau3"),
    "is_characteristic": (is_characteristic, "l4 tau3 minus1"),
}


@pytest.mark.parametrize("call", MISMATCHED)
def test_inputs_of_two_arrangements_rejected(call):
    b3, f3, l3 = get_trio("braid3")
    l4 = get_trio("braid4")[2]
    args = {
        "b3": b3, "f3": f3, "l3": l3, "l4": l4, "c3": get_trio("coord3")[0],
        "tau3": takeuchi_element(f3), "nu3": intrinsic_element(b3, f3).profiles,
        "top4": l4.top, "h0": 0, "minus1": Fraction(-1),
    }
    fn, names = MISMATCHED[call]
    with pytest.raises(ArrangementMismatch):
        fn(*[args[name] for name in names.split()])


def test_deletion_rank_drop_reported():
    arr, faces, lat = get_trio("coord1")
    rep = verify_deletion_restriction(arr, faces, lat, 0)
    assert not rep.rank_ok
    assert rep.chi_deleted == Poly((1,))


def test_kung_at_random_rational_pairs():
    rng = random.Random(42)
    for name in STANDARD:
        _, _, lat = get_trio(name)
        for _ in range(5):
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            rep = verify_kung(lat, s, t)
            assert rep.ok, (name, s, t)
            assert rep.lhs == lat.charpoly()(s * t)


def test_kung_spot_value():
    _, _, lat = get_trio("braid3")
    rep = verify_kung(lat, Fraction(2), Fraction(3))
    assert rep.lhs == Fraction(20)
    assert rep.flat_sum == Fraction(20) and rep.pair_sum == Fraction(20)
