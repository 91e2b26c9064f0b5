"""Properties of the one Gauss-Jordan elimination behind det, rank, null space
and F_q echelon forms, over F_16, F_9 and the F_4 <= F_16 tower."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistgab import moore
from twistgab.fieldtower import FieldTower, TowerParams, default_tower

TOWERS = {
    "F16": default_tower(2, 1, 4),
    "F9": default_tower(3, 1, 2),
    "F4<=F16": FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))),
}

pytestmark = pytest.mark.parametrize("name", sorted(TOWERS))
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, tower, bound=None, square=False):
    """A random rows x cols matrix A.B with an inner dimension of 1..4, so
    rank-deficient matrices are common; entries below `bound` when given."""
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    if bound is not None:
        entry = st.integers(0, bound - 1)
        return np.array([[draw(entry) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    inner = draw(st.integers(1, 4))
    entry = st.integers(0, tower.order - 1)
    A = np.array([[draw(entry) for _ in range(inner)] for _ in range(rows)], dtype=np.int64)
    B = np.array([[draw(entry) for _ in range(cols)] for _ in range(inner)], dtype=np.int64)
    return moore.matmul(tower, A, B)


def leibniz(t, M):
    """Determinant as the signed sum over permutations; independent oracle."""
    n = len(M)
    acc = 0
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = 1
        for i in range(n):
            term = t.mul(term, int(M[i][perm[i]]))
        acc = t.add(acc, term if inv % 2 == 0 else t.neg(term))
    return acc


@PROPERTY
@given(data=st.data())
def test_rank_nullity_and_annihilation(name, data):
    t = TOWERS[name]
    M = data.draw(matrices(t))
    H = moore.nullspace_fqm(t, M)
    rank = moore.rank_fqm(t, M)
    assert H.dtype == np.int64 and H.shape == (M.shape[1] - rank, M.shape[1])
    assert moore.rank_fqm(t, H) == len(H)
    assert (moore.matmul(t, M, H.T) == 0).all()


@PROPERTY
@given(data=st.data())
def test_det_nonzero_iff_full_rank_and_matches_leibniz(name, data):
    t = TOWERS[name]
    M = data.draw(matrices(t, square=True))
    det = moore.det_fqm(t, M)
    assert (det != 0) == (moore.rank_fqm(t, M) == len(M))
    assert det == leibniz(t, M)


@PROPERTY
@given(data=st.data())
def test_fq_echelon_rank_equals_rank_over_extension(name, data):
    # an F_q-digit matrix has the same rank over F_q and over F_(q^m)
    t = TOWERS[name]
    D = data.draw(matrices(t, bound=t.q))
    pivots, rref = t.fq_echelon(D.tolist())
    assert len(pivots) == len(rref) == moore.rank_fqm(t, D)
