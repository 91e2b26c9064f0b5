"""Covering radii and deep holes of twisted codes.

The exhaustive route visits the vectors in increasing rank weight, grouped into
cosets by syndrome, until every coset is reached; the distance from any vector
to the code is the minimum rank weight in its coset.  For the one-twist t = 0 family the radius is exactly
n - k, and two explicit polynomial families hit it.
"""

import random

from twistgab import (
    CodeSpec,
    covering_bounds,
    covering_radius_exhaustive,
    deep_hole_family,
    deep_hole_via_extension,
    default_tower,
    distance_to_code,
    is_deep_hole,
)
from twistgab.covering import contains

t = default_tower(2, 1, 4)
w = 2
alpha = tuple(t.pow_(w, i) for i in range(4))

spec = CodeSpec(t, alpha, 2, 0, ((0, w),))
report = covering_radius_exhaustive(spec)
print(f"one twist, t=0, [n,k] = [4,2]: rho = {report.rho} (bounds "
      f"[{report.lower_bound}, {report.upper_bound}])")
print(f"{report.maximal_coset_count} of {report.coset_count} cosets attain the radius")
print("sample deep hole:", report.deep_holes[0])

# both evaluation families hit the covering radius for every g and f
rng = random.Random(0)
for flavor in ("x^[k]", "x^[h]"):
    u = deep_hole_family(spec, g=w, flavor=flavor, f_coeffs=[rng.randrange(16) for _ in range(2)])
    print(f"family {flavor}: distance {distance_to_code(spec, list(u))} -> deep hole:",
          is_deep_hole(spec, list(u), report))

# deep hole <=> stacking the vector under G gives an MRD extension
hits = 0
for _ in range(200):
    u = [t.random_element(rng) for _ in range(4)]
    if contains(spec, u):
        continue
    assert deep_hole_via_extension(spec, u) == is_deep_hole(spec, u, report)
    hits += int(is_deep_hole(spec, u, report))
print(f"\nextension test agreed with the distance test on 200 samples "
      f"({hits} deep holes among them)")

# two twists with exponents (0, 1): the radius may drop by one
spec2 = CodeSpec(t, alpha, 1, 0, ((0, w), (1, t.pow_(w, 3))))
rep2 = covering_radius_exhaustive(spec2)
print(f"\ntwo twists, [4,1]: rho = {rep2.rho}, theorem bounds {covering_bounds(spec2)}")

# over budget the report degrades to theorem bounds, never to a guess
from twistgab import Budgets

tight = covering_radius_exhaustive(spec, Budgets(ambient=100))
print("with a tiny ambient budget:", tight.rho, "->",
      f"bounds only [{tight.lower_bound}, {tight.upper_bound}]")
