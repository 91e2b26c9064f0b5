import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inv_euclid, mul_raw, tower_from
from twistgab.errors import ConsistencyError, FieldConstructionError
from twistgab.fieldtower import (
    _ORDER_LIMIT,
    ELEMENT_DTYPE,
    FieldTower,
    TowerParams,
    default_tower,
    exact_int,
    tower_from_json,
    tower_to_json,
)

W = 2  # index of the class of y in any tower with e = 1


class TestConstruction:
    def test_default_f16(self, f16):
        assert (f16.p, f16.q, f16.m, f16.order) == (2, 2, 4, 16)
        assert f16.top_modulus == (1, 1, 0, 0, 1)  # y^4 + y + 1

    def test_default_f9(self, f9):
        assert f9.top_modulus == (1, 0, 1)  # y^2 + 1, no root mod 3

    def test_f4_tower_irreducibility_by_root_search(self, f4_tower):
        # oracle: y^2 + y + x has no root in F_4 = {0, 1, x, x+1}
        t = f4_tower
        for r in range(4):  # F_q digits are elements as they stand
            val = t.add(t.add(t.mul(r, r), r), 2)
            assert val != 0
        assert t.order == 16 and t.q == 4

    def test_reducible_modulus_names_factor(self):
        with pytest.raises(FieldConstructionError, match="factor"):
            FieldTower(TowerParams(2, 1, 4, top_modulus=(1, 0, 0, 0, 1)))  # y^4+1 = (y+1)^4

    def test_reducible_base_modulus(self):
        with pytest.raises(FieldConstructionError, match="factor"):
            FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 0, 1), top_modulus=(2, 1, 1)))

    @pytest.mark.parametrize("base, match", [
        ((1, 0, 1), r"base_modulus \[1, 0, 1\] is reducible over F_2: factor \[1, 1\]"),
        ((1, 1, 2), "base_modulus must be monic of degree 2"),
        ((1, 1, 1, 0), "base_modulus must be monic of degree 2"),
        ((1, 3, 1), r"base_modulus coefficients must lie in \[0, 2\)"),
    ])
    def test_base_modulus_errors_name_base_modulus(self, base, match):
        # the F_q-level tower checks the base modulus as its own top modulus
        with pytest.raises(FieldConstructionError, match=match):
            FieldTower(TowerParams(2, 2, 2, base_modulus=base))

    def test_odd_p_tower_above_the_old_limit(self, rng):
        # 3^10 = 59049: odd-p towers up to order 65536 build
        t = FieldTower(TowerParams(3, 1, 10))
        assert t.order == 59049
        for _ in range(300):
            a, b = t.random_element(rng), t.random_nonzero(rng)
            assert t.mul(a, b) == mul_raw(t, a, b)
            assert t.inv(b) == inv_euclid(t, b)

    def test_p_not_prime(self):
        with pytest.raises(FieldConstructionError, match="prime"):
            FieldTower(TowerParams(4, 1, 2))

    def test_non_monic_modulus_rejected(self):
        with pytest.raises(FieldConstructionError, match="monic"):
            FieldTower(TowerParams(3, 1, 2, top_modulus=(1, 0, 2)))

    def test_json_roundtrip(self, f16, f4_tower):
        for t in (f16, f4_tower):
            t2 = tower_from_json(tower_to_json(t))
            assert t2.params == t.params


class TestSharedTowers:
    def test_default_tower_is_shared_and_a_field_spec_builds_afresh(self):
        t = default_tower(2, 1, 6)
        assert default_tower(2, 1, 6) is t
        built = [
            tower_from_json({"p": 2, "e": 1, "m": 6}),
            tower_from_json({"p": 2, "e": 1, "m": 6, "top_modulus": list(t.top_modulus)}),
        ]
        assert built[0] is not built[1]
        for u in built:
            assert u is not t
            assert (u._exp, u.generator, u.params) == (t._exp, t.generator, t.params)

    @pytest.mark.parametrize("table", ["_exp_z", "_log_z", "_inv_z"])
    def test_shared_tables_are_read_only(self, table):
        with pytest.raises(ValueError, match="read-only"):
            getattr(default_tower(2, 1, 4), table)[1] = 0

    def test_failed_build_fails_the_same_way_every_time(self):
        obj = {"p": 2, "e": 1, "m": 4, "top_modulus": [1, 0, 0, 0, 1]}  # y^4+1 = (y+1)^4
        messages = []
        for _ in range(2):
            with pytest.raises(FieldConstructionError, match="reducible") as info:
                tower_from_json(obj)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestArithmetic:
    def test_field_axioms_exhaustive_f16(self, f16_any):
        t = f16_any
        xs = list(t.elements())
        for a in xs:
            assert t.add(a, 0) == a and t.mul(a, 1) == a
            assert t.add(a, t.neg(a)) == 0
            if a:
                assert t.mul(a, t.inv(a)) == 1
            for b in xs:
                assert t.add(a, b) == t.add(b, a)
                assert t.sub(t.add(a, b), b) == a
                assert t.mul(a, b) == t.mul(b, a)
                for c in xs:
                    assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
                    assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))

    def test_field_axioms_exhaustive_f9_f4(self, f9, f4_tower):
        for t in (f9, f4_tower):
            xs = list(t.elements())
            for a in xs:
                for b in xs:
                    for c in xs:
                        assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
                        assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
                        assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))

    def test_mul_matches_bootstrap_path(self, f16_any, rng):
        t = f16_any
        for _ in range(300):
            a, b = t.random_element(rng), t.random_element(rng)
            assert t.mul(a, b) == mul_raw(t, a, b)

    def test_inverse_of_zero(self, f16):
        with pytest.raises(ZeroDivisionError):
            f16.inv(0)
        with pytest.raises(ZeroDivisionError):
            inv_euclid(f16, 0)

    def test_inverse_matches_extended_euclid(self, f16_any, f9, f4_tower, f256):
        # two independent routes: log tables vs extended Euclid on polynomials
        for t in (f16_any, f9, f4_tower, f256):
            for a in t.nonzero_elements():
                e = inv_euclid(t, a)
                assert e == t.inv(a)
                assert t.mul(a, e) == 1

    def test_vectorized_ops_match_scalar(self, f16, f9, rng):
        odd = [default_tower(*pem) for pem in ((3, 2, 3), (5, 1, 3), (3, 1, 4), (3, 1, 7))]
        for t in (f16, f9, *odd):
            a = np.array([t.random_element(rng) for _ in range(256)])
            b = np.array([t.random_element(rng) for _ in range(256)])
            assert all(int(x) == t.mul(int(u), int(v)) for x, u, v in zip(t.mul_many(a, b), a, b))
            assert all(int(x) == t.add(int(u), int(v)) for x, u, v in zip(t.add_many(a, b), a, b))
            for i in (0, 1, 2, t.m + 1):
                assert all(int(x) == t.frobenius(int(u), i) for x, u in zip(t.frob_many(a, i), a))

    def test_packed_add_is_componentwise(self, f16, f9, f4_tower, rng):
        # vectors of three elements packed base q^m add component by component
        for t in (f16, f9, f4_tower, default_tower(3, 2, 3), default_tower(5, 1, 3)):
            u, v = ([[t.random_element(rng) for _ in range(3)] for _ in range(64)] for _ in "uv")
            places = t.order ** np.arange(3)
            packed = t.add_many(u @ places, v @ places, 3)
            assert np.array_equal(packed, t.add_many(u, v) @ places)

    @pytest.mark.parametrize("name", ["f16", "f9", "f4_tower", "f256"])
    def test_mul_many_matches_scalar_mul_over_the_whole_table(self, name, request):
        t = request.getfixturevalue(name)
        xs = np.arange(t.order)
        table = t.mul_many(xs[:, None], xs)
        assert table.dtype == np.int64
        assert table.tolist() == [[t.mul(a, b) for b in xs.tolist()] for a in xs.tolist()]
        assert not table[0].any() and not table[:, 0].any()
        # 0-d np.int64 scalars broadcast against arrays, on either side
        for a in (0, 1, t.order - 1):
            assert (t.mul_many(np.int64(a), xs) == table[a]).all()
            assert (t.mul_many(xs, np.int64(a)) == table[:, a]).all()
        assert t.mul_many(np.int64(0), np.int64(t.order - 1)) == 0
        # uint8 F_q digits, as moore.matmul passes a block of digit matrices
        digits = np.arange(t.q, dtype=np.uint8).reshape(-1, 1, 1)
        assert (t.mul_many(digits, xs) == table[: t.q, None, :]).all()

    @pytest.mark.parametrize("name", ["f16", "f9", "f4_tower", "f256"])
    def test_inv_many_matches_inv_and_inv_euclid(self, name, request):
        t = request.getfixturevalue(name)
        inv = t.inv_many(np.arange(t.order))
        assert inv[0] == 0
        expected = [t.inv(a) for a in t.nonzero_elements()]
        assert inv[1:].tolist() == expected == [inv_euclid(t, a) for a in t.nonzero_elements()]


class TestFrobenius:
    def test_zero_fixed(self, f16):
        for i in range(8):
            assert f16.frobenius(0, i) == 0

    def test_base_field_fixed(self, f16, f9, f4_tower):
        for t in (f16, f9, f4_tower):
            for d in range(t.q):
                assert t.frobenius(d, 1) == d

    def test_w_squared_twice_oracle(self, f16):
        # frobenius(w, 2) = w^4, verified by direct polynomial multiplication
        w4 = mul_raw(f16, mul_raw(f16, W, W), mul_raw(f16, W, W))
        assert f16.frobenius(W, 2) == w4 == 3  # w^4 = w + 1 under y^4+y+1

    def test_agrees_with_repeated_qth_powering(self, f16, f9, rng):
        # oracle: iterate x -> x^q with bootstrap multiplication only
        for t in (f16, f9):
            for _ in range(60):
                x = t.random_element(rng)
                i = rng.randrange(2 * t.m)
                acc = x
                for _ in range(i % t.m):
                    powed = acc
                    for _ in range(t.q - 1):
                        powed = mul_raw(t, powed, acc)
                    acc = powed
                assert t.frobenius(x, i) == acc

    def test_order_m(self, f16_any, f4_tower, f9):
        for t in (f16_any, f4_tower, f9):
            for x in t.elements():
                assert t.frobenius(x, t.m) == x

    def test_power_composition(self, f16):
        t = f16
        for i in range(t.m):
            for j in range(t.m):
                for x in t.elements():
                    assert t.frobenius(t.frobenius(x, i), j) == t.frobenius(x, i + j)

    def test_is_automorphism(self, f16_any):
        t = f16_any
        for x in t.elements():
            for y in t.elements():
                assert t.frobenius(t.mul(x, y)) == t.mul(t.frobenius(x), t.frobenius(y))
                assert t.frobenius(t.add(x, y)) == t.add(t.frobenius(x), t.frobenius(y))

    def test_fq_linear(self, f16, rng):
        t = f16
        for _ in range(100):
            lam, a = rng.randrange(t.q), t.random_element(rng)
            assert t.frobenius(t.mul(lam, a)) == t.mul(lam, t.frobenius(a))


class TestNorm:
    def test_trivial_values(self, f16):
        assert f16.norm(1) == 1 and f16.norm(0) == 0

    def test_norm_w_by_direct_exponentiation(self, f16):
        # oracle: w^(1+2+4+8) = w^15 = 1 via repeated raw multiplication
        acc = 1
        for _ in range(15):
            acc = mul_raw(f16, acc, W)
        assert acc == 1
        assert f16.norm(W) == 1

    def test_multiplicative(self, f16_any, f9):
        for t in (f16_any, f9):
            for x in t.elements():
                for y in t.elements():
                    assert t.norm(t.mul(x, y)) == t._sf.mul(t.norm(x), t.norm(y))

    def test_corrupted_table_raises_consistency_error(self):
        t = FieldTower(TowerParams(2, 1, 4))  # fresh: the shared tower stays intact
        t._exp = (t.q, *t._exp[1:])  # every norm in F_16 is exp[0] = 1; now it leaves F_2
        with pytest.raises(ConsistencyError):
            t.norm(W)

    def test_lands_in_and_surjects_onto_fq(self, f16, f9, f4_tower, f256):
        for t in (f16, f9, f4_tower, f256):
            images = {t.norm(x) for x in t.nonzero_elements()}
            assert images == set(range(1, t.q))


class TestSubfields:
    def test_one_in_every_subfield(self, f16):
        for s in (1, 2, 4):
            assert f16.subfield_membership(1, s)

    def test_w_and_w5(self, f16):
        assert not f16.subfield_membership(W, 2)
        assert f16.subfield_membership(f16.pow_(W, 5), 2)

    def test_bad_s(self, f16):
        with pytest.raises(ValueError):
            f16.subfield_membership(W, 3)
        for s in (0, 3):
            with pytest.raises(ValueError, match="not a subfield"):
                f16.subfield_elements(s)

    def test_subfield_sizes(self, f256):
        assert len(f256.subfield_elements(1)) == 2
        assert len(f256.subfield_elements(2)) == 4
        assert len(f256.subfield_elements(4)) == 16

    @pytest.mark.parametrize("pem", [
        (2, 1, 4), (2, 1, 6), (2, 1, 16), (2, 2, 3), (3, 1, 4), (3, 2, 3), (5, 1, 3),
    ], ids=lambda pem: "F_%d^%d^%d" % pem)
    def test_elements_are_the_members(self, pem):
        # the closed form (0 and the powers of one generator) against the
        # Frobenius test on every element
        t = default_tower(*pem)
        for s in (d for d in range(1, t.m + 1) if t.m % d == 0):
            members = tuple(x for x in t.elements() if t.subfield_membership(x, s))
            assert t.subfield_elements(s) == members


class TestRankWeight:
    def test_zero_vector(self, f16):
        assert f16.fq_rank([0, 0, 0]) == 0

    def test_polynomial_basis(self, f16):
        assert f16.fq_rank([1, W, f16.pow_(W, 2), f16.pow_(W, 3)]) == 4

    def test_dependent_component(self, f16):
        assert f16.fq_rank([1, W, f16.add(1, W)]) == 2

    def test_bounded_by_hamming_weight(self, f16, rng):
        for _ in range(200):
            v = [f16.random_element(rng) for _ in range(4)]
            assert f16.fq_rank(v) <= sum(1 for x in v if x)

    def test_scalar_invariance(self, f16, rng):
        t = f16
        for _ in range(200):
            v = [t.random_element(rng) for _ in range(4)]
            lam = t.random_nonzero(rng)
            assert t.fq_rank([t.mul(lam, x) for x in v]) == t.fq_rank(v)

    def test_odd_characteristic_and_e2(self, f9, f4_tower):
        # generic echelon path: q = 3 and q = 4
        assert f9.fq_rank([1, 3]) == 2  # 1 and y
        assert f9.fq_rank([1, 2]) == 1  # 1 and 2 are F_3-dependent
        x = 2  # the F_4 generator, an F_q digit
        assert f4_tower.fq_rank([1, x]) == 1  # x in F_4: dependent over F_q = F_4
        y = f4_tower.from_coords([0, 1])
        assert f4_tower.fq_rank([1, y]) == 2


RANK_TOWERS = {
    "F16": default_tower(2, 1, 4),
    "F16-alt": FieldTower(TowerParams(2, 1, 4, top_modulus=(1, 0, 0, 1, 1))),
    "F9": default_tower(3, 1, 2),
    "F4<=F16": FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))),
    "F4<=F64": default_tower(2, 2, 3),
    "F5^3": default_tower(5, 1, 3),
    "F27": default_tower(3, 1, 3),
    # odd p with e > 1: the F_p-multiples v * x^j of each component at p = 3
    "F9<=F81": default_tower(3, 2, 2),
    # q >= 5: each pivot reduces by its p - 1 non-zero F_p-multiples
    "F7^3": default_tower(7, 1, 3),
    # e = 4: four F_p-multiples of each component
    "F16<=F256": default_tower(2, 4, 2),
}


@st.composite
def low_rank_vectors(draw, t, n):
    """A length-n vector whose components are F_q-combinations of 1..n
    random elements, so rank-deficient vectors are common."""
    basis = draw(st.lists(st.integers(0, t.order - 1), min_size=1, max_size=n))
    vec = []
    for _ in range(n):
        acc = 0
        for b in basis:
            acc = t.add(acc, t.mul(draw(st.integers(0, t.q - 1)), b))
        vec.append(acc)
    return vec


@pytest.mark.parametrize("name", sorted(RANK_TOWERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fq_rank_many_matches_scalar_fq_rank(name, data):
    t = RANK_TOWERS[name]
    n = data.draw(st.integers(1, t.m + 1))
    vecs = data.draw(st.lists(low_rank_vectors(t, n), min_size=1, max_size=8))
    comps = [np.array([v[j] for v in vecs], dtype=np.int64) for j in range(n)]
    assert t.fq_rank_many(comps).tolist() == [t.fq_rank(v) for v in vecs]


# (p, e, m) with p in {2, 3, 5, 7}, e in {1, 2} and order <= 256
SMALL_TOWERS = [
    (p, e, m) for p in (2, 3, 5, 7) for e in (1, 2) for m in range(1, 9) if p ** (e * m) <= 256
]


# towers near the order limit, whose indices use all 16 bits of ELEMENT_DTYPE
BIG_TOWERS = [(2, 1, 16), (3, 1, 10), (2, 4, 4), (251, 1, 2)]


@st.composite
def vector_batches(draw, towers=SMALL_TOWERS):
    """A random tower, (p, e, m) drawn from ``towers``, and a batch of 1..8
    vectors of the same length 1..m+2, whose components are random, zero, a
    repeat of an earlier component or an F_q-multiple of one."""
    p, e, m = draw(st.sampled_from(towers))
    t = tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))
    n = draw(st.integers(1, m + 2))
    vecs = []
    for _ in range(draw(st.integers(1, 8))):
        vec = []
        for i in range(n):
            kind = draw(st.sampled_from(["random", "zero", "repeat", "multiple"][: 4 if i else 2]))
            if kind == "random":
                vec.append(draw(st.integers(0, t.order - 1)))
            elif kind == "zero":
                vec.append(0)
            else:
                u = vec[draw(st.integers(0, i - 1))]
                vec.append(u if kind == "repeat" else t.mul(draw(st.integers(0, t.q - 1)), u))
        vecs.append(vec)
    return t, vecs


@settings(max_examples=80, deadline=None)
@given(case=vector_batches())
def test_fq_rank_many_matches_scalar_fq_rank_over_random_towers(case):
    t, vecs = case
    comps = [np.array([v[j] for v in vecs], dtype=np.int64) for j in range(len(vecs[0]))]
    assert t.fq_rank_many(comps).tolist() == [t.fq_rank(v) for v in vecs]


@settings(max_examples=60, deadline=None)
@given(case=vector_batches(SMALL_TOWERS + BIG_TOWERS))
def test_fq_rank_many_gives_the_same_ranks_on_element_dtype_and_int64(case):
    t, vecs = case
    ranks = [t.fq_rank(v) for v in vecs]
    for dtype in (ELEMENT_DTYPE, np.int64):
        comps = [np.array([v[j] for v in vecs], dtype=dtype) for j in range(len(vecs[0]))]
        assert t.add_many(comps[0], comps[-1]).dtype == dtype  # for every p
        assert t.fq_rank_many(comps).tolist() == ranks


def test_every_index_below_the_order_limit_fits_the_element_dtype():
    # raising the limit past 2^16 fails here instead of wrapping codeword blocks
    assert _ORDER_LIMIT - 1 <= np.iinfo(ELEMENT_DTYPE).max
    t = default_tower(2, 1, 16)
    assert t.order == _ORDER_LIMIT
    top = np.arange(t.order - 2, t.order)
    assert top.astype(ELEMENT_DTYPE).tolist() == top.tolist() == [65534, 65535]


class TestExactInt:
    def test_python_and_numpy_integers_pass_as_int(self):
        for x in (0, 7, -3, np.int64(7), np.uint16(65535), np.int8(-3)):
            got = exact_int(x)
            assert type(got) is int and got == x

    @pytest.mark.parametrize("x", [True, False, np.bool_(True), 0.5, 2.0, np.float64(1.0),
                                   "1", None, [1], np.array([1])])
    def test_bools_floats_and_others_are_refused(self, x):
        with pytest.raises(ValueError, match="expected an integer"):
            exact_int(x)


class TestRepresentationIndependence:
    def test_structure_constants_match_across_moduli(self, f16, f16_alt):
        # norms, subfield sizes and rank behaviour cannot depend on the modulus
        for t in (f16, f16_alt):
            assert sorted(t.norm(x) for x in t.nonzero_elements()) == [1] * 15
            assert len(t.subfield_elements(2)) == 4
        g, ga = f16.generator, f16_alt.generator
        orders = lambda t, g: min(
            i for i in range(1, t.order) if t.pow_(g, i) == 1
        )
        assert orders(f16, g) == orders(f16_alt, ga) == 15


class TestElementJson:
    def test_roundtrip_e1(self, f16, rng):
        for _ in range(30):
            x = f16.random_element(rng)
            assert f16.element_from_json(f16.elements_to_json(x)) == x

    def test_roundtrip_e2(self, f4_tower, rng):
        for _ in range(30):
            x = f4_tower.random_element(rng)
            j = f4_tower.elements_to_json(x)
            assert all(isinstance(c, list) and len(c) == 2 for c in j)
            assert f4_tower.element_from_json(j) == x

    def test_rejects_bad_shapes(self, f16):
        with pytest.raises(ValueError):
            f16.element_from_json([1, 0])
        with pytest.raises(ValueError):
            f16.element_from_json([2, 0, 0, 0])
