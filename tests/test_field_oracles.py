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
from sympy import Poly, resultant, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

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
        assert t.inv(b) == t.inv_euclid(b) == pow(b, -1, p)
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
        assert t._exp[(i + 1) % n1] == t._mul_raw(t._exp[i], t.generator)
        assert t._log[t._exp[i]] == i
    assert len(t._exp) == n1 and len(t._log) == t.order
    assert (t._exp_z[: 2 * n1] == np.tile(t._exp, 2)).all()
    assert (t._inv_z[t._exp_z[1:n1]] == t._exp_z[n1 - 1 : 0 : -1]).all()
    # the zero sentinels: log 0, the exp tail it indexes, and inv 0
    assert t._log[0] == 0 and t._log_z[0] == 2 * n1
    assert len(t._exp_z) == 4 * n1 + 1 and not t._exp_z[2 * n1 :].any()
    assert t._inv_z[0] == 0 and len(t._inv_z) == t.order


def test_a_non_primitive_generator_fails_the_order_check(monkeypatch):
    # y^3 has order 5 in F_16^*: accepted as the generator, its powers repeat
    y3 = [0, 0, 0, 1]
    monkeypatch.setattr(fieldtower, "_is_primitive", lambda field, x, mod: list(x) == y3)
    with pytest.raises(FieldConstructionError, match="generator order check failed"):
        FieldTower(TowerParams(2, 1, 4, top_modulus=(1, 1, 0, 0, 1)))


# the F_q levels the construction helpers run over: prime fields and F_4
HELPER_FIELDS = {"F_2": fieldtower._PrimeField(2), "F_3": fieldtower._PrimeField(3),
                 "F_4": default_tower(2, 2, 1)}


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


@pytest.mark.parametrize("name", sorted(HELPER_FIELDS))
def test_powmod_matches_repeated_products(name):
    field = HELPER_FIELDS[name]
    q = field.order
    mod = list(fieldtower._find_irreducible(field, 3))
    for base in ([0, 1], [1, 1], [q - 1, 0, 1]):
        power = [1]
        for exp in range(40):
            assert fieldtower._poly_powmod(field, base, exp, mod) == power
            power = fieldtower._poly_divmod(field, fieldtower._poly_mul(field, power, base), mod)[1]


def test_a_default_modulus_is_checked_once(monkeypatch):
    # the modulus search proves its result irreducible; the constructor does
    # not divide it again
    checked = []
    find_factor = fieldtower._find_factor
    monkeypatch.setattr(
        fieldtower, "_find_factor", lambda field, poly: checked.append(tuple(poly)) or find_factor(field, poly)
    )
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
