"""Three guaranteed-MRD constructions, re-verified by the subspace criterion.

All of them pin the evaluation points inside a proper subfield F_(q^s) and
choose twist scalars that no F_(q^s)-combination can pull back into F_(q^s):
nested subfield chains, scalar multiples of one outside element, and general
1-sum-product-free tuples.  Each goes through ``construct_chain_mrd``, which
checks the hypotheses of its ``SubfieldChain`` mode.
"""

from twistgab import (
    SubfieldChain,
    construct_chain_mrd,
    default_tower,
    is_mrd_subspace_criterion,
    sum_product_free_test,
)

t = default_tower(2, 1, 8)  # F_256, with F_16 = F_(2^4) as the working subfield
S = 4

# four F_2-independent points inside F_16
alpha = []
for x in t.subfield_elements(S):
    if x and t.fq_rank(alpha + [x]) == len(alpha) + 1:
        alpha.append(x)
    if len(alpha) == 4:
        break
alpha = tuple(alpha)
print("evaluation points (inside F_16):", alpha)

eta_out = next(x for x in t.nonzero_elements() if not t.subfield_membership(x, S))
print("first element outside F_16:", eta_out)

# 1) nested chain, one twist: eta anywhere outside F_(q^s)
spec1, _ = construct_chain_mrd(t, SubfieldChain.nested([S], [eta_out]), alpha, 2, 0, [0])
print("\nchain, 1 twist   -> MRD:", is_mrd_subspace_criterion(spec1))

# 2) scalar multiples, two twists: eta_2 = b * eta_1 with b in F_16^*
b = t.subfield_elements(S)[7]
spec2, _ = construct_chain_mrd(
    t, SubfieldChain.scalar_multiple(S, eta_out, [b]), alpha, 2, 0, [0, 1]
)
print("scalar, 2 twists -> MRD:", is_mrd_subspace_criterion(spec2))

# 3) sum-product-free triple, three twists at k = 1
sub = t.subfield_elements(S)
etas = [eta_out, t.mul(sub[2], eta_out), t.mul(sub[9], eta_out)]
print("\n1-sum-product free over F_16:", sum_product_free_test(t, etas, S))
spec3, _ = construct_chain_mrd(
    t, SubfieldChain.sum_product_free(S, etas), alpha, 1, 0, [0, 1, 2]
)
print("spf, 3 twists    -> MRD:", is_mrd_subspace_criterion(spec3))

# a deeper nested chain needs room for two proper levels: F_16 < F_256 < F_65536
t16 = default_tower(2, 1, 16)
alpha16 = []
for x in t16.subfield_elements(4):
    if x and t16.fq_rank(alpha16 + [x]) == len(alpha16) + 1:
        alpha16.append(x)
    if len(alpha16) == 4:
        break
eta1 = next(x for x in t16.subfield_elements(8) if not t16.subfield_membership(x, 4))
eta2 = next(x for x in t16.nonzero_elements() if not t16.subfield_membership(x, 8))
spec4, _ = construct_chain_mrd(
    t16, SubfieldChain.nested([4, 8], [eta1, eta2]), tuple(alpha16), 2, 0, [0, 1]
)
print("\nnested chain over F_(2^16), 2 twists -> MRD:",
      is_mrd_subspace_criterion(spec4))
