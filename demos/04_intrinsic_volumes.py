"""Conic intrinsic volumes, exactly and by sampling.

v_k of a cone is the Gaussian probability that the nearest point of the
cone lies on a k-dimensional face.  Cones of essential dimension at most 3
come out in closed form from the angles between their extreme rays
(Girard's theorem and McMullen's angle sums); higher ones use the seeded
integer Monte Carlo path, which force_mc selects for any cone: each sample
is given its face by exact sign tests on that face's Moreau cell (its
nearest point is P_F x in the relative interior of F, its residual in the
normal cone at F), with no distance computed.  Summing
chamber profiles recovers the characteristic polynomial coefficient by
coefficient (Klivans-Swartz).
"""

import math

from titskit import (
    build_family,
    build_lattice,
    conic_intrinsic_volumes,
    enumerate_faces,
    face_intrinsic_volumes,
    intrinsic_element,
    klivans_swartz_charpoly,
    poly_str,
    recession_cone,
)

arr = build_family("braid", n=4)
faces = enumerate_faces(arr)
lattice = build_lattice(arr, faces)

# the two edge types of the rank-3 braid cone carry dihedral angles
# arccos(sqrt(3)/3) and arccos(1/3); four short plus two long edges fill
# the circle: 4x + 2y = 1
short = faces.face(arr.sign_vector((0, 0, 1, 2)))
long_ = faces.face(arr.sign_vector((0, 1, 1, 2)))
x = face_intrinsic_volumes(arr, short).values[3]
y = face_intrinsic_volumes(arr, long_).values[3]
print(f"x = {x:.6f}  (arccos(sqrt(3)/3)/2pi = "
      f"{math.acos(math.sqrt(3) / 3) / (2 * math.pi):.6f})")
print(f"y = {y:.6f}  (arccos(1/3)/2pi = "
      f"{math.acos(1 / 3) / (2 * math.pi):.6f})")
print(f"4x + 2y = {4 * x + 2 * y:.6f}")

# a chamber cone has essential dimension 3: a spherical triangle, exact;
# the sampler, forced on the same cone, agrees within its half-width
target = (0, 6 / 24, 11 / 24, 6 / 24, 1 / 24)
chamber = faces.face(arr.sign_vector((0, 1, 2, 3)))
cone = recession_cone(arr, chamber)
exact = conic_intrinsic_volumes(cone)
mc = conic_intrinsic_volumes(cone, samples=200000, seed=0, force_mc=True)
print("chamber profile, exact   :", tuple(round(v, 4) for v in exact.values))
print("chamber profile, sampled :", tuple(round(v, 4) for v in mc.values),
      f"+- {mc.half_width[0]:.4f}")
print("target                   : (0, 1/4, 11/24, 1/4, 1/24)")
assert exact.method == "exact"
assert all(abs(a - b) < 1e-12 for a, b in zip(exact.values, target))
assert all(
    abs(a - b) <= h for a, b, h in zip(mc.values, target, mc.half_width)
)

# every chamber is exact, so Klivans-Swartz needs no samples
rep = klivans_swartz_charpoly(faces, lattice)
print("chi from volumes:", tuple(round(v, 12) for v in rep.estimate))
print("chi exact       :", rep.exact, "->", poly_str(lattice.charpoly()))
assert max(rep.deviations) < 1e-12

# the intrinsic element packages every face profile into a single
# characteristic element; at t = 1 it degenerates to the unit
arr3 = build_family("braid", n=3)
f3 = enumerate_faces(arr3)
nu = intrinsic_element(arr3, f3)
print("braid3 nu_t coefficients by dimension:")
seen = set()
for f in f3:
    c = nu.element.coeffs[f.signs]
    key = (f.dim, tuple(round(v, 6) for v in c.coeffs))
    if key in seen:
        continue
    seen.add(key)
    print(f"  dim {f.dim}: {poly_str(c)}")
