from fractions import Fraction

import pytest

from titskit.elements import (
    braid_arrangement,
    coordinate_arrangement,
    generic_arrangement,
    signed_braid_arrangement,
)
from titskit.geometry import enumerate_faces, make_arrangement
from titskit.lattice import build_lattice


def _triangle():
    # three affine lines in general position: x = 0, y = 0, x + y = 1
    return make_arrangement(
        2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)], kind="triangle"
    )


def _parallel_pair():
    return make_arrangement(2, [((1, 0), 0), ((1, 0), 1)], kind="parallel")


def _parallel_plus_transversal():
    return make_arrangement(
        2,
        [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)],
        kind="parallel-plus",
    )


_BUILDERS = {
    "braid2": lambda: braid_arrangement(2),
    "braid3": lambda: braid_arrangement(3),
    "braid4": lambda: braid_arrangement(4),
    "braid5": lambda: braid_arrangement(5),
    "signed1": lambda: signed_braid_arrangement(1),
    "signed2": lambda: signed_braid_arrangement(2),
    "signed3": lambda: signed_braid_arrangement(3),
    "coord1": lambda: coordinate_arrangement(1),
    "coord2": lambda: coordinate_arrangement(2),
    "coord3": lambda: coordinate_arrangement(3),
    "coord4": lambda: coordinate_arrangement(4),
    "coord5": lambda: coordinate_arrangement(5),
    "coord6": lambda: coordinate_arrangement(6),
    "triangle": _triangle,
    "parallel": _parallel_pair,
    "parallel+": _parallel_plus_transversal,
    "generic23": lambda: generic_arrangement(2, 3, seed=7),
    "generic34": lambda: generic_arrangement(3, 4, seed=11),
    "empty2": lambda: make_arrangement(2, []),
}

# arrangements every global identity is checked on; braid5/signed3/coord5
# stay out to keep the default suite quick (the acceptance tests add them)
STANDARD = [
    "braid2",
    "braid3",
    "braid4",
    "signed1",
    "signed2",
    "coord1",
    "coord2",
    "coord3",
    "triangle",
    "parallel",
    "parallel+",
    "generic23",
    "generic34",
    "empty2",
]

_CACHE = {}


def get_trio(name):
    if name not in _CACHE:
        arr = _BUILDERS[name]()
        faces = enumerate_faces(arr)
        lattice = build_lattice(arr, faces)
        _CACHE[name] = (arr, faces, lattice)
    return _CACHE[name]


@pytest.fixture(scope="session")
def trio():
    return get_trio
