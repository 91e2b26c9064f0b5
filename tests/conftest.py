import random

import pytest

from twistgab.fieldtower import FieldTower, TowerParams, default_tower


@pytest.fixture(scope="session")
def f16():
    return default_tower(2, 1, 4)


@pytest.fixture(scope="session")
def f16_alt():
    # same field, different representation: y^4 + y^3 + 1
    return FieldTower(TowerParams(2, 1, 4, top_modulus=(1, 0, 0, 1, 1)))


@pytest.fixture(scope="session", params=["default", "alt"])
def f16_any(request, f16, f16_alt):
    """Numeric identities must hold under both representations of F_16."""
    return f16 if request.param == "default" else f16_alt


@pytest.fixture(scope="session")
def f9():
    return default_tower(3, 1, 2)


@pytest.fixture(scope="session")
def f4_tower():
    # F_4 = F_2[x]/(x^2+x+1), F_16 = F_4[y]/(y^2+y+x)
    return FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1)))


@pytest.fixture(scope="session")
def f256():
    return default_tower(2, 1, 8)


def polynomial_basis(tower: FieldTower, n: int):
    """alpha = (1, y, y^2, ..., y^(n-1)); always F_q-independent."""
    y = tower.from_coords([0, 1] + [0] * (tower.m - 2)) if tower.m > 1 else 1
    return tuple(tower.pow_(y, i) for i in range(n))


@pytest.fixture
def alpha4(f16):
    return polynomial_basis(f16, 4)


@pytest.fixture
def rng():
    return random.Random(20240817)
