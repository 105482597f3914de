"""Exact computations in the face and flat algebras of real hyperplane
arrangements: face enumeration over the rationals, the intersection
lattice with its Moebius function and characteristic polynomial,
characteristic elements (unit, Takeuchi, Adams, coordinate, intrinsic),
and conic intrinsic volumes with exact and Monte Carlo evaluation.

Tuples are built from lists, tuple([...]) and f(*[...]), not generators:
CPython 3.11 sizes a generator's tuple by resizing, bypassing the free
list its size is later returned to, which then fills up and stays full.
"""

from .geometry import (
    Arrangement,
    ArrangementMismatch,
    DuplicateHyperplane,
    Face,
    FaceSet,
    HomogeneousCone,
    Hyperplane,
    NotAFace,
    WitnessMismatch,
    ZeroNormal,
    arrangement_from_json,
    arrangement_to_json,
    canonicalize,
    enumerate_faces,
    lineality_space,
    load_arrangement,
    make_arrangement,
    recession_cone,
    signs_to_str,
    str_to_signs,
)
from .lattice import (
    Flat,
    FlatLattice,
    IndexOutOfRange,
    NotAFlat,
    NotComparable,
    SubarrangementMap,
    UngradedLattice,
    build_lattice,
    charpoly_over,
    charpoly_under,
    deletion_lattice,
    subarrangement_map,
)
from .scalars import Poly, T, binom_poly, poly_str
from .tits import (
    CharacteristicReport,
    NotClosed,
    ScalarMismatch,
    TitsElement,
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
from .elements import (
    DeletionReport,
    GenericDegenerate,
    KungReport,
    WrongFamily,
    ZaslavskyReport,
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
from .intrinsic import (
    ConeFace,
    ConicVolumeProfile,
    IntrinsicElement,
    KlivansSwartzReport,
    PolygonMismatch,
    ProductReport,
    cone_faces,
    conic_intrinsic_volumes,
    face_intrinsic_volumes,
    intrinsic_element,
    klivans_swartz_charpoly,
    klivans_swartz_from_profiles,
    try_exact_profile,
    verify_intrinsic_product,
)

__version__ = "0.1.0"
