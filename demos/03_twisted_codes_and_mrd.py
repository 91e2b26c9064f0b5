"""Twisted Gabidulin codes and three independent MRD verdicts.

A twist adds eta_j * f_h * x^[k+t_j] monomials to every message polynomial;
whether the code stays MRD depends entirely on where the eta land relative to
the forbidden sets.  Here we sweep every eta over F_16 and watch three
completely different tests agree, then classify the Hamming-metric behaviour.
"""

from twistgab import (
    CodeSpec,
    KSubsetTable,
    classify,
    default_tower,
    forbidden_eta_set_one_twist,
    generator_matrix,
    hamming_class_via_omega,
    is_mrd_subspace_criterion,
    min_rank_distance,
    omega_one,
)

t = default_tower(2, 1, 4)
w = 2
alpha = tuple(t.pow_(w, i) for i in range(4))  # n = 4 evaluation points

# the plain Gabidulin code is the zero-twist case and is always MRD
gab = CodeSpec(t, alpha, 2)
print("Gabidulin [4,2]:", classify(gab))

# one twist at position h = 0 with exponent k + t = 2
spec = CodeSpec(t, alpha, 2, 0, ((0, w),))
print("\ntwisted generator matrix:")
print(generator_matrix(spec))

# route 1: exhaustive minimum rank distance over message classes
# route 2: rank(V G^T) = k over all 35 subspace representatives
# route 3: eta^(-1) avoids the minor-ratio forbidden set
ratio_set = forbidden_eta_set_one_twist(t, alpha, 2, 0, 0)
o1 = omega_one(KSubsetTable(t, alpha, 2), 0, 0)
print(f"\nforbidden ratio set has {len(ratio_set.entries)} values; "
      f"Omega_1 has {len(o1.entries)}")

print("\n eta | d_R | d_H | MRD(3 routes) | class")
for eta in t.nonzero_elements():
    s = CodeSpec(t, alpha, 2, 0, ((0, eta),))
    rep = min_rank_distance(s)
    routes = (rep.is_mrd, is_mrd_subspace_criterion(s), (t.inv(eta),) not in ratio_set)
    assert len(set(routes)) == 1, "routes must agree"
    label = hamming_class_via_omega(s).label
    print(f"  {eta:2d} |  {rep.d_rank}  |  {rep.d_hamming}  | {routes[0]!s:13} | {label}")

# at q = 2 the norm onto F_2 is identically 1 on nonzero elements, so the
# classical norm obstruction rules out MRD for every eta in this sweep;
# over F_9 the same family does produce MRD codes:
t9 = default_tower(3, 1, 2)
alpha9 = (1, 3)
mrd9 = [eta for eta in t9.nonzero_elements()
        if min_rank_distance(CodeSpec(t9, alpha9, 1, 0, ((0, eta),))).is_mrd]
print(f"\nover F_9 (k=1, one twist): {len(mrd9)} of 8 etas give MRD codes: {mrd9}")
