"""The two levels of the tower against fixed values and external oracles.

F_q is itself a tower over the table-free prime field, so these tests pin the
default moduli every report depends on, check with sympy that they are
irreducible, check products against sympy's finite-field routines, and
exercise the largest prime field the constructor accepts.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, resultant, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

from oracles import (
    _is_primitive,
    _poly_mul,
    _poly_powmod,
    inv_euclid,
    mul_raw,
    tower_from,
)
from twistgab import fieldtower
from twistgab.errors import FieldConstructionError
from twistgab.fieldtower import FieldTower, TowerParams, default_tower, tower_to_json

# tower_to_json(default_tower(p, e, m)) for every (p, e, m) that the test
# fixtures and the benchmark workloads build (m = 1: the benchmark's F_q
# towers); a change here changes every report over that field
DEFAULT_MODULI = {
    (2, 1, 1): {"e": 1, "m": 1, "p": 2, "top_modulus": [1, 1]},
    (2, 1, 4): {"e": 1, "m": 4, "p": 2, "top_modulus": [1, 1, 0, 0, 1]},
    (2, 1, 5): {"e": 1, "m": 5, "p": 2, "top_modulus": [1, 0, 1, 0, 0, 1]},
    (2, 1, 6): {"e": 1, "m": 6, "p": 2, "top_modulus": [1, 1, 0, 0, 0, 0, 1]},
    (2, 1, 7): {"e": 1, "m": 7, "p": 2, "top_modulus": [1, 1, 0, 0, 0, 0, 0, 1]},
    (2, 1, 8): {"e": 1, "m": 8, "p": 2, "top_modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]},
    (2, 1, 16): {
        "e": 1, "m": 16, "p": 2,
        "top_modulus": [1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    },
    (2, 2, 1): {"base_modulus": [1, 1, 1], "e": 2, "m": 1, "p": 2, "top_modulus": [1, 1]},
    (2, 2, 3): {"base_modulus": [1, 1, 1], "e": 2, "m": 3, "p": 2, "top_modulus": [2, 0, 0, 1]},
    (3, 1, 1): {"e": 1, "m": 1, "p": 3, "top_modulus": [1, 1]},
    (3, 1, 2): {"e": 1, "m": 2, "p": 3, "top_modulus": [1, 0, 1]},
    (3, 1, 4): {"e": 1, "m": 4, "p": 3, "top_modulus": [2, 1, 0, 0, 1]},
    (3, 1, 5): {"e": 1, "m": 5, "p": 3, "top_modulus": [1, 2, 0, 0, 0, 1]},
    (3, 1, 7): {"e": 1, "m": 7, "p": 3, "top_modulus": [2, 0, 1, 0, 0, 0, 0, 1]},
    (3, 2, 1): {"base_modulus": [1, 0, 1], "e": 2, "m": 1, "p": 3, "top_modulus": [1, 1]},
    (3, 2, 3): {"base_modulus": [1, 0, 1], "e": 2, "m": 3, "p": 3, "top_modulus": [3, 1, 0, 1]},
    (5, 1, 1): {"e": 1, "m": 1, "p": 5, "top_modulus": [1, 1]},
    (5, 1, 3): {"e": 1, "m": 3, "p": 5, "top_modulus": [1, 1, 0, 1]},
    (7, 1, 1): {"e": 1, "m": 1, "p": 7, "top_modulus": [1, 1]},
    (7, 1, 3): {"e": 1, "m": 3, "p": 7, "top_modulus": [2, 0, 0, 1]},
}

# default_tower(p, e, m).generator: the first primitive element in counting
# order; with the modulus it fixes every log/antilog table
DEFAULT_GENERATORS = {
    (2, 1, 1): 1, (2, 1, 4): 2, (2, 1, 5): 2, (2, 1, 6): 2, (2, 1, 7): 2,
    (2, 1, 8): 3, (2, 1, 16): 2, (2, 2, 1): 2, (2, 2, 3): 5, (3, 1, 1): 2,
    (3, 1, 2): 4, (3, 1, 4): 3, (3, 1, 5): 3, (3, 1, 7): 5, (3, 2, 1): 4,
    (3, 2, 3): 10, (5, 1, 1): 2, (5, 1, 3): 9, (7, 1, 1): 3, (7, 1, 3): 22,
}


@pytest.mark.parametrize("pem", sorted(DEFAULT_MODULI), ids=lambda pem: "F_%d^%d^%d" % pem)
def test_default_moduli_are_pinned(pem):
    assert tower_to_json(default_tower(*pem)) == DEFAULT_MODULI[pem]


@pytest.mark.parametrize("pem", sorted(DEFAULT_GENERATORS), ids=lambda pem: "F_%d^%d^%d" % pem)
def test_default_generators_are_pinned(pem):
    t = default_tower(*pem)
    assert t.generator == DEFAULT_GENERATORS[pem]
    assert sorted(t._exp) == list(t.nonzero_elements())  # it generates F_(q^m)^*


def _over_fp(modulus, p, e):
    """A modulus over F_q as a polynomial over F_p, big-endian, whose
    irreducibility implies the modulus's own.

    Over F_p (e = 1, or every coefficient in F_p and m coprime to e) this is
    the modulus itself.  Otherwise it is the norm Res_x(base(x), f(x, y)) from
    F_q[y] to F_p[y]: a factorization of f over F_q would factor its norm.
    """
    coeffs, base = modulus["top_modulus"], modulus.get("base_modulus")
    m = len(coeffs) - 1
    if e == 1 or (all(c < p for c in coeffs) and math.gcd(m, e) == 1):
        return [c % p for c in reversed(coeffs)]
    x, y = symbols("x y")
    as_poly = lambda d: sum((d // p**i % p) * x**i for i in range(e))  # an F_q digit
    f = sum(as_poly(c) * y**j for j, c in enumerate(coeffs))
    b = sum(c * x**i for i, c in enumerate(base))
    norm = resultant(Poly(b, x, y, modulus=p), Poly(f, x, y, modulus=p), x)
    return [int(c) % p for c in Poly(norm, y, modulus=p).all_coeffs()]


@pytest.mark.parametrize("pem", sorted(DEFAULT_MODULI), ids=lambda pem: "F_%d^%d^%d" % pem)
def test_default_moduli_are_irreducible(pem):
    p, e, m = pem
    modulus = DEFAULT_MODULI[pem]
    if e > 1:
        assert gf_irreducible_p(list(reversed(modulus["base_modulus"])), p, ZZ)
    fp = _over_fp(modulus, p, e)
    assert len(fp) - 1 in (m, e * m)
    assert gf_irreducible_p(fp, p, ZZ)


def sympy_product(a, b, modulus, p):
    """a * b mod `modulus` over F_p; little-endian coefficient lists."""
    be = lambda cs: [int(c) for c in reversed(cs)]  # sympy is big-endian
    r = gf_rem(gf_mul(be(a), be(b), p, ZZ), be(modulus), p, ZZ)
    r = [int(c) for c in reversed(r)]
    return r + [0] * (len(modulus) - 1 - len(r))


E_GT_1 = {
    "F4<=F16": FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))),
    "F4<=F64": default_tower(2, 2, 3),
    "F9<=F729": default_tower(3, 2, 3),
    "F8<=F64": default_tower(2, 3, 2),
    "F25": default_tower(5, 2, 1),
}

E_EQ_1 = {
    "F16": default_tower(2, 1, 4),
    "F16-alt": FieldTower(TowerParams(2, 1, 4, top_modulus=(1, 0, 0, 1, 1))),
    "F9": default_tower(3, 1, 2),
    "F27": default_tower(3, 1, 3),
    "F5^3": default_tower(5, 1, 3),
    "F81": default_tower(3, 1, 4),
    "F256": default_tower(2, 1, 8),
    "F3^7": default_tower(3, 1, 7),
    "F2^16": default_tower(2, 1, 16),
}


@pytest.mark.parametrize("name", sorted(E_GT_1))
def test_fq_level_products_match_sympy(name):
    # every product of two F_q digits, through the F_q-level tower and through
    # the whole tower, where F_q digits embed as themselves
    t = E_GT_1[name]
    for a, b in itertools.product(range(t.q), repeat=2):
        want = sympy_product(t._sf.coords(a), t._sf.coords(b), t.base_modulus, t.p)
        assert t._sf.coords(t._sf.mul(a, b)) == tuple(want)
        assert t.mul(a, b) == t._sf.mul(a, b)


@pytest.mark.parametrize("name", sorted(E_EQ_1))
def test_whole_field_products_match_sympy(name):
    # e = 1: the coordinates are F_p residues, so sympy sees the whole field;
    # every pair up to order 128, a seeded sample of 4096 pairs above
    t = E_EQ_1[name]
    if t.order <= 128:
        pairs = itertools.product(range(t.order), repeat=2)
    else:
        rng = random.Random(t.order)
        pairs = [(t.random_element(rng), t.random_element(rng)) for _ in range(4096)]
    for a, b in pairs:
        want = sympy_product(t.coords(a), t.coords(b), t.top_modulus, t.p)
        assert t.coords(t.mul(a, b)) == tuple(want)


def test_largest_prime_field_is_modular_arithmetic():
    p = 65521  # the largest prime below the order limit 65536
    t = FieldTower(TowerParams(p, 1, 1))
    rng = random.Random(p)
    for _ in range(2000):
        a, b = rng.randrange(p), rng.randrange(1, p)
        assert t.add(a, b) == (a + b) % p
        assert t.sub(a, b) == (a - b) % p
        assert t.neg(b) == -b % p
        assert t.mul(a, b) == a * b % p
        assert t._sf.mul(a, b) == a * b % p
        assert t.inv(b) == inv_euclid(t, b) == pow(b, -1, p)
        assert b * t.inv(b) % p == 1


# the pinned towers and the largest of each kind: 2^16, 3^10, 9^5 and the prime 65521
TABLE_TOWERS = sorted({*DEFAULT_MODULI, (2, 1, 16), (3, 1, 10), (3, 2, 5), (65521, 1, 1)})


@pytest.mark.parametrize("pem", TABLE_TOWERS, ids=lambda pem: "F_%d^%d^%d" % pem)
def test_log_tables_step_by_the_generator(pem):
    # the stepping loop is the oracle of the doubling build: each power is the
    # table-free product of the one before and the generator, and log inverts
    # exp; every i below 4096, and 2 000 seeded i above
    t = default_tower(*pem)
    n1 = t.order - 1
    steps = list(range(min(n1, 4096)))
    if n1 > 4096:
        steps += random.Random(n1).sample(range(4096, n1), 2000)
    for i in steps:
        assert t._exp[(i + 1) % n1] == mul_raw(t, t._exp[i], t.generator)
        assert t._log[t._exp[i]] == i
    assert len(t._exp) == n1 and len(t._log) == t.order
    assert (t._exp_z[: 2 * n1] == np.tile(t._exp, 2)).all()
    assert (t._inv_z[t._exp_z[1:n1]] == t._exp_z[n1 - 1 : 0 : -1]).all()
    # the zero sentinels: log 0, the exp tail it indexes, and inv 0
    assert t._log[0] == 0 and t._log_z[0] == 2 * n1
    assert len(t._exp_z) == 4 * n1 + 1 and not t._exp_z[2 * n1 :].any()
    assert t._inv_z[0] == 0 and len(t._inv_z) == t.order


def test_a_non_primitive_generator_fails_the_order_check(monkeypatch):
    # y^3 has order 5 in F_16^*: accepted as the generator by an order test
    # that passes it alone (row 0 of M(c) is the digits of c), its powers
    # repeat and the bincount check of the power table refuses them
    y3 = [0, 0, 0, 1]
    monkeypatch.setattr(fieldtower, "_generates", lambda S, p, group: (S[0][..., 0, :] == y3).all(-1))
    with pytest.raises(FieldConstructionError, match="generator order check failed"):
        FieldTower(TowerParams(2, 1, 4, top_modulus=(1, 1, 0, 0, 1)))


# the F_q levels the construction helpers run over: prime fields and F_4
HELPER_FIELDS = {"F_2": fieldtower._PrimeField(2), "F_3": fieldtower._PrimeField(3),
                 "F_4": default_tower(2, 2, 1)}

# the F_q levels of the construction kernel, as the constructor builds them:
# F_p, and the towers F_p <= F_p <= F_q, whose y is the x of F_q
KERNEL_FIELDS = {"F_2": fieldtower._PrimeField(2), "F_3": fieldtower._PrimeField(3),
                 "F_4": default_tower(2, 1, 2), "F_9": default_tower(3, 1, 2)}


@pytest.mark.parametrize("name", sorted(HELPER_FIELDS))
def test_trial_division_finds_the_first_factor_in_counting_order(name):
    # oracle: every monic candidate of degree 1 .. deg/2 in counting order,
    # zero constant terms included; the first that divides is the factor
    field = HELPER_FIELDS[name]
    q = field.order
    rng = random.Random(q)

    def first_factor(poly):
        for d in range(1, (len(poly) - 1) // 2 + 1):
            for tail in range(q**d):
                cand = fieldtower._monic(q, d, tail)
                if not fieldtower._poly_divmod(field, poly, cand)[1]:
                    return tuple(cand)
        return None

    for deg in range(2, 7):
        for _ in range(40):
            poly = [rng.randrange(q) for _ in range(deg)] + [1]
            if rng.random() < 0.25:
                poly[0] = 0  # y divides it
            assert fieldtower._find_factor(field, poly) == first_factor(poly)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_powmod_matches_repeated_products(name):
    # the oracle of the kernel's powers against repeated products
    field = KERNEL_FIELDS[name]
    q = field.order
    mod = list(fieldtower._find_irreducible(field, 3)[0])
    for base in ([0, 1], [1, 1], [q - 1, 0, 1]):
        power = [1]
        for exp in range(40):
            assert _poly_powmod(field, base, exp, mod) == power
            power = fieldtower._poly_divmod(field, _poly_mul(field, power, base), mod)[1]


def test_a_default_modulus_is_checked_once(monkeypatch):
    # the modulus search proves its result irreducible by Rabin's test; the
    # constructor does not test it again
    checked = []
    rabin = fieldtower._rabin

    def spy(field, m, tails, primitive_y=False):
        checked.extend(tuple(fieldtower._monic(field.order, m, int(t))) for t in tails)
        return rabin(field, m, tails, primitive_y)

    monkeypatch.setattr(fieldtower, "_rabin", spy)
    t = FieldTower(TowerParams(2, 1, 6))
    assert checked.count(t.top_modulus) == 1
    checked.clear()
    FieldTower(TowerParams(2, 1, 6, top_modulus=t.top_modulus))
    assert checked == [t.top_modulus]
    # a default base modulus is found and proven by the F_q level's own search
    checked.clear()
    t = FieldTower(TowerParams(2, 2, 3))
    assert checked.count(t.base_modulus) == 1
    assert checked.count(t.top_modulus) == 1


def _tail(poly, q):
    """The tail of a monic polynomial: its low coefficients read base q."""
    return sum(c * q**k for k, c in enumerate(poly[:-1]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rabin_matches_trial_division(data):
    # a block of random monic polynomials of one degree: Rabin's test picks
    # the first one that trial division finds no factor of, and reports
    # whether its y is primitive; with primitive_y, the first that is both
    name = data.draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    field = KERNEL_FIELDS[name]
    q = field.order
    m = data.draw(st.integers(1, 8 if q < 9 else 5))
    polys = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=m, max_size=m).map(lambda cs: cs + [1]),
        min_size=1, max_size=6,
    ))
    tails = np.array([_tail(f, q) for f in polys])
    irreducible = [fieldtower._find_factor(field, f) is None for f in polys]
    primitive = [i and f[0] != 0 and _is_primitive(field, [0, 1], f) for f, i in zip(polys, irreducible)]
    found = fieldtower._rabin(field, m, tails)
    if True in irreducible:
        b = irreducible.index(True)
        assert found[0] == b and found[2] == primitive[b]
        alone = fieldtower._squares(fieldtower._companions(field, m, tails[b : b + 1]), len(found[1]), field.p)
        assert all((Si[0] == Sb).all() for Si, Sb in zip(alone, found[1]))
    else:
        assert found is None
    found = fieldtower._rabin(field, m, tails, primitive_y=True)
    assert (found[0] if found else None) == (primitive.index(True) if True in primitive else None)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_explicit_moduli_are_checked_by_rabin_and_named_by_their_first_factor(data):
    # explicit top and base moduli, reducible and irreducible: the tower
    # builds exactly when trial division finds no factor, and a reducible
    # modulus is named with the first factor in counting order
    p, e = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    q = p**e
    m = data.draw(st.integers(1, 8 if q < 9 else 4))
    base = data.draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)) + [1]
    top = data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)) + [1]
    params = TowerParams(p, e, m, tuple(base) if e > 1 else None, tuple(top))
    if e == 1:
        field = fieldtower._PrimeField(p)
    elif (factor := fieldtower._find_factor(fieldtower._PrimeField(p), base)) is not None:
        with pytest.raises(FieldConstructionError) as info:
            FieldTower(params)
        assert str(info.value) == f"base_modulus {base} is reducible over F_{p}: factor {list(factor)} found"
        return
    else:
        field = FieldTower(TowerParams(p, 1, e, top_modulus=tuple(base)))
    factor = fieldtower._find_factor(field, top)
    if factor is None:
        assert FieldTower(params).top_modulus == tuple(top)
    else:
        with pytest.raises(FieldConstructionError) as info:
            FieldTower(params)
        assert str(info.value) == f"top_modulus {top} is reducible over F_{q}: factor {list(factor)} found"


# (p, e, m) with p in {2, 3, 5, 7}, e in {1, 2} and order <= 4096
KERNEL_TOWERS = [
    (p, e, m) for p in (2, 3, 5, 7) for e in (1, 2) for m in range(1, 13) if p ** (e * m) <= 4096
]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_multiplication_matrices_and_order_test_match_the_scalar_oracles(data):
    # over random towers: M(c) built from X and Y has row k equal to the
    # digits of the table-free product of c and the k-th basis element, and
    # the order test on its squares equals the powmod oracle
    p, e, m = data.draw(st.sampled_from(KERNEL_TOWERS))
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    d, n1 = e * m, t.order - 1
    cs = np.array(data.draw(st.lists(st.integers(1, n1), min_size=1, max_size=8)))
    M = t._matrices(cs)
    digits = lambda x: [x // p**i % p for i in range(d)]
    for c, Mc in zip(cs.tolist(), M.tolist()):
        assert Mc == [digits(mul_raw(t, p**k, c)) for k in range(d)]
    S = fieldtower._squares(M, n1.bit_length(), p)
    assert fieldtower._generates(S, p, n1).tolist() == [
        _is_primitive(t._sf, t._digits_of(c), t.top_modulus) for c in cs.tolist()
    ]


def test_a_built_tower_calls_no_scalar_oracle(monkeypatch):
    # the construction runs on the matrix kernel alone: trial division is
    # the error path's, and the powmod, product and inverse oracles live in
    # the tests
    def refuse(*args):
        raise AssertionError("scalar oracle called")

    for name in ("_poly_powmod", "_is_primitive", "_poly_mul"):
        assert not hasattr(fieldtower, name)
    assert not hasattr(FieldTower, "_mul_raw") and not hasattr(FieldTower, "inv_euclid")
    monkeypatch.setattr(fieldtower, "_find_factor", refuse)
    for pem in [(2, 1, 6), (2, 1, 8), (2, 2, 3), (3, 2, 3), (7, 1, 3), (2, 1, 13), (251, 1, 2)]:
        FieldTower(TowerParams(*pem))
    FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1)))
    FieldTower(TowerParams(3, 1, 4, top_modulus=(2, 0, 0, 1, 1)))


def _scalar_build(t):
    """(base modulus, top modulus, generator, exp, log) of t's (p, e, m) by the
    scalar oracles: moduli by trial division in counting order (primitive y
    above order 4096, by powmod), the generator by powmod, the tables by
    stepping the table-free product."""
    p, e, m, q = t.p, t.e, t.m, t.q
    above = fieldtower._PRIMITIVE_Y_ABOVE

    def first_modulus(field, deg, order):
        for tail in range(1, field.order**deg):
            f = fieldtower._monic(field.order, deg, tail)
            if f[0] and fieldtower._find_factor(field, f) is None and (
                order <= above or _is_primitive(field, [0, 1], f)
            ):
                return tuple(f)

    base = first_modulus(fieldtower._PrimeField(p), e, q) if e > 1 and t.params.base_modulus is None else t.base_modulus
    top = first_modulus(t._sf, m, t.order)
    gen = next(c for c in range(q if m > 1 else 1, t.order)
               if _is_primitive(t._sf, t._digits_of(c), t.top_modulus))
    exp = [1]
    for _ in range(t.order - 2):
        exp.append(mul_raw(t, exp[-1], gen))
    log = [0] * t.order
    for i, x in enumerate(exp):
        log[x] = i
    return base, top, gen, tuple(exp), tuple(log)


@pytest.mark.parametrize("pem", sorted(DEFAULT_MODULI), ids=lambda pem: "F_%d^%d^%d" % pem)
def test_default_towers_equal_a_scalar_oracle_build(pem):
    t = default_tower(*pem)
    assert _scalar_build(t) == (t.base_modulus, t.top_modulus, t.generator, t._exp, t._log)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_explicit_towers_equal_a_scalar_oracle_build(data):
    # random explicit top moduli (the first irreducible at or after a random
    # tail), so only the generator and the tables are searched
    p, e, m = data.draw(st.sampled_from(KERNEL_TOWERS))
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    base, _, gen, exp, log = _scalar_build(t)
    assert (base, gen, exp, log) == (t.base_modulus, t.generator, t._exp, t._log)
