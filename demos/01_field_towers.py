"""Tour of the field tower: F_p <= F_q <= F_(q^m) arithmetic.

Elements are plain integers packing the little-endian coordinate vector over
F_q, so 0 is zero, 1 is one, and 2 is the class of y (the generator of the
power basis) whenever e = 1.
"""

from twistgab import FieldTower, TowerParams, default_tower

# F_16 = F_2[y]/(y^4 + y + 1), picked and verified automatically
t = default_tower(2, 1, 4)
print("tower:", t)
print("top modulus (little-endian):", t.top_modulus)

w = 2  # the class of y
print("\npowers of w:", [t.pow_(w, i) for i in range(6)])
print("w * w^14 =", t.mul(w, t.pow_(w, 14)), "(w has multiplicative order 15)")

# the Frobenius x -> x^q and its iterates
print("\nfrobenius orbit of w:", [t.frobenius(w, i) for i in range(5)])
print("F_2 is fixed:", [t.frobenius(x, 1) for x in (0, 1)])

# norm onto F_q: always lands in the base field
print("\nnorms of nonzero elements:", sorted({t.norm(x) for x in t.nonzero_elements()}))

# subfield lattice: F_2 < F_4 < F_16
print("F_4 inside F_16:", t.subfield_elements(2))
print("w in F_4?", t.subfield_membership(w, 2), "   w^5 in F_4?", t.subfield_membership(t.pow_(w, 5), 2))

# rank weight: dimension of the F_q-span of the components
vec = [1, w, t.add(1, w), 0]
print("\nrank weight of [1, w, 1+w, 0]:", t.fq_rank(vec), "(third entry is dependent)")
print("rank weight of the power basis:", t.fq_rank([t.pow_(w, i) for i in range(4)]))

# a tower with a non-prime base field: F_4 = F_2[x]/(x^2+x+1), then F_16 over F_4
t4 = FieldTower(TowerParams(p=2, e=2, m=2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1)))
print("\nF_4 -> F_16 tower:", t4)
x = 2  # the F_4 generator: F_q digits embed as themselves
print("norm onto F_4 of the class of y:", t4.norm(t4.from_coords([0, 1])))
print("rank over F_4 of [1, x]:", t4.fq_rank([1, x]), "(both lie in F_4: dependent)")
