"""The two levels of the tower against fixed values and external oracles.

F_q is itself a tower over the table-free prime field, so these tests pin the
default moduli every report depends on, check products against sympy's
finite-field routines, and exercise the largest prime field the constructor
accepts.
"""

import itertools
import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul, gf_rem

from twistgab.fieldtower import TowerParams, default_tower, tower_build, tower_to_json

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


@pytest.mark.parametrize("pem", sorted(DEFAULT_MODULI), ids=lambda pem: "F_%d^%d^%d" % pem)
def test_default_moduli_are_pinned(pem):
    assert tower_to_json(default_tower(*pem)) == DEFAULT_MODULI[pem]


def sympy_product(a, b, modulus, p):
    """a * b mod `modulus` over F_p; little-endian coefficient lists."""
    be = lambda cs: [int(c) for c in reversed(cs)]  # sympy is big-endian
    r = gf_rem(gf_mul(be(a), be(b), p, ZZ), be(modulus), p, ZZ)
    r = [int(c) for c in reversed(r)]
    return r + [0] * (len(modulus) - 1 - len(r))


E_GT_1 = {
    "F4<=F16": tower_build(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))),
    "F4<=F64": default_tower(2, 2, 3),
    "F9<=F729": default_tower(3, 2, 3),
    "F8<=F64": default_tower(2, 3, 2),
    "F25": default_tower(5, 2, 1),
}

E_EQ_1 = {
    "F16": default_tower(2, 1, 4),
    "F16-alt": tower_build(TowerParams(2, 1, 4, top_modulus=(1, 0, 0, 1, 1))),
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
    # every product of two F_q digits, through the F_q-level tower
    t = E_GT_1[name]
    for a, b in itertools.product(range(t.q), repeat=2):
        want = sympy_product(t.coord_residues(a), t.coord_residues(b), t.base_modulus, t.p)
        assert t.coord_residues(t.q_mul(a, b)) == tuple(want)


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
    p = 4093  # the largest prime below the odd-p order limit 4096
    t = tower_build(TowerParams(p, 1, 1))
    rng = random.Random(p)
    for _ in range(2000):
        a, b = rng.randrange(p), rng.randrange(1, p)
        assert t.add(a, b) == (a + b) % p
        assert t.sub(a, b) == (a - b) % p
        assert t.neg(b) == -b % p
        assert t.mul(a, b) == a * b % p
        assert t.q_mul(a, b) == a * b % p
        assert t.inv(b) == t.inv_euclid(b) == pow(b, -1, p)
        assert b * t.inv(b) % p == 1
