"""Properties of the scalar Gauss-Jordan elimination behind det, rank, null
space and F_q echelon forms, over F_16, F_9 and the F_4 <= F_16 tower, and of
the batched elimination (``rank_many``, ``det_many``) against it over random
towers."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import DISTANCE_TOWERS, tower_from
from twistgab import moore
from twistgab.codes import CodeSpec, generator_matrix
from twistgab.fieldtower import FieldTower, TowerParams, default_tower

TOWERS = {
    "F16": default_tower(2, 1, 4),
    "F9": default_tower(3, 1, 2),
    "F4<=F16": FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))),
}

each_tower = pytest.mark.parametrize("name", sorted(TOWERS))
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


@each_tower
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


@each_tower
@PROPERTY
@given(data=st.data())
def test_det_nonzero_iff_full_rank_and_matches_leibniz(name, data):
    t = TOWERS[name]
    M = data.draw(matrices(t, square=True))
    det = moore.det_fqm(t, M)
    assert (det != 0) == (moore.rank_fqm(t, M) == len(M))
    assert det == leibniz(t, M)


@each_tower
@PROPERTY
@given(data=st.data())
def test_fq_echelon_rank_equals_rank_over_extension(name, data):
    # an F_q-digit matrix has the same rank over F_q and over F_(q^m)
    t = TOWERS[name]
    D = data.draw(matrices(t, bound=t.q))
    pivots, rref = t.fq_echelon(D.tolist())
    assert len(pivots) == len(rref) == moore.rank_fqm(t, D)


@st.composite
def stacks(draw):
    """A random tower of order <= 256 with p in {2, 3, 5} and a (B, r, c) stack
    with B in {0, 1, 3, 20}, r in 1..5 and c in 0..5 (often square).  Each
    matrix is A.B with an inner dimension of 1..r, so rank-deficient matrices
    are common, and may get a repeated row, a zero column and leading zeros in
    its first row, which force a row swap.  With r < c the stack may instead
    reach full row rank in its first r columns, so the elimination stops
    before the last column; there every other matrix has its pivots on the
    diagonal and the rest need a row swap."""
    p, e, m = draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))
    count, r = draw(st.sampled_from([0, 1, 3, 20])), draw(st.integers(1, 5))
    c = r if draw(st.booleans()) else draw(st.integers(0, 5))
    early = r < c and draw(st.booleans())
    entry = st.integers(0, t.order - 1)
    mats = []
    for i in range(count):
        inner = draw(st.integers(1, r))
        M = moore.matmul(
            t, draw(arrays(np.int64, (r, inner), elements=entry)),
            draw(arrays(np.int64, (inner, c), elements=entry)),
        )
        if r > 1 and draw(st.booleans()):
            M[draw(st.integers(1, r - 1))] = M[0]
        if c and draw(st.booleans()):
            M[:, draw(st.integers(0, c - 1))] = 0
        if c and draw(st.booleans()):
            M[0, : draw(st.integers(1, c))] = 0
        if early:
            # a monomial r x r block, its rows shifted by one in odd matrices
            M[:, :r] = 0
            for j in range(r):
                M[(j + i % 2) % r, j] = draw(st.integers(1, t.order - 1))
        mats.append(M)
    return t, np.array(mats, dtype=np.int64).reshape(count, r, c)


@settings(max_examples=100, deadline=None)
@given(case=stacks())
def test_batched_elimination_matches_scalar_oracle(case):
    t, S = case
    rank = t.rank_many(S)
    assert rank.dtype == np.int64 and rank.shape == (len(S),)
    assert rank.tolist() == [moore.rank_fqm(t, M) for M in S]
    if S.shape[1] != S.shape[2]:
        with pytest.raises(ValueError, match="non-square"):
            t.det_many(S)
        return
    det = t.det_many(S)
    assert det.tolist() == [moore.det_fqm(t, M) for M in S] == [leibniz(t, M) for M in S]


def test_batched_elimination_leaves_its_input_alone():
    # nmds_conditions passes G[None], a view of the generator; a stack of one
    # laid out with the stack last is still a view, so only a copy is eliminated
    t = TOWERS["F9"]
    G = np.array([[0, 3, 4], [5, 7, 1]], dtype=np.int64)
    before = G.copy()
    assert t.rank_many(G[None]).tolist() == [2]
    assert t.det_many(G[None, :, :2]).tolist() == [moore.det_fqm(t, G[:, :2])]
    assert (G == before).all()
    S = np.array([[[2, 1, 5], [4, 0, 3], [1, 8, 8]]], dtype=np.int64)
    assert S.flags.writeable and S.flags.c_contiguous
    kept = S.copy()
    assert t.rank_many(S).tolist() == [moore.rank_fqm(t, S[0])]
    assert t.det_many(S).tolist() == [moore.det_fqm(t, S[0])]
    assert (S == kept).all()


def test_batched_elimination_of_a_read_only_generator():
    t = TOWERS["F16"]
    spec = CodeSpec(t, (1, 2, 4, 8), 2, 0, ((0, 2),))
    G = generator_matrix(spec)
    assert not G.flags.writeable
    before = G.copy()
    assert t.rank_many(G[None]).tolist() == [2]
    assert t.det_many(G[None, :, 1:3]).tolist() == [moore.det_fqm(t, G[:, 1:3])]
    assert (G == before).all()


@pytest.mark.parametrize("tower", [FieldTower(TowerParams(3, 1, 1)), TOWERS["F9"]],
                         ids=["F3", "F9"])
def test_det_sign_over_every_row_permutation_of_a_diagonal(tower):
    # no row moves in the batched elimination: the sign of a permuted diagonal
    # comes from the free rows above each pivot alone
    for r in range(1, 5):
        diag = [1 + (3 * i) % (tower.order - 1) for i in range(r)]
        stack = np.zeros((0, r, r), dtype=np.int64)
        for perm in permutations(range(r)):
            M = np.zeros((1, r, r), dtype=np.int64)
            M[0, list(perm), range(r)] = diag
            stack = np.concatenate([stack, M])
        assert tower.rank_many(stack).tolist() == [r] * len(stack)
        assert tower.det_many(stack).tolist() == [leibniz(tower, M) for M in stack]
        signs = {leibniz(tower, M) for M in stack}
        assert len(signs) == (1 if r == 1 else 2)
