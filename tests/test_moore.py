from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import DISTANCE_TOWERS, moore_det_product, scalar_matmul, tower_from
from twistgab import moore
from twistgab.fieldtower import ELEMENT_DTYPE, default_tower

W = 2


class TestMooreMatrix:
    def test_single_row(self, f16, alpha4):
        M = moore.moore_matrix(f16, alpha4, 1)
        assert M.shape == (1, 4) and list(M[0]) == list(alpha4)

    def test_all_ones(self, f16):
        M = moore.moore_matrix(f16, [1, 1], 2)
        assert (M == 1).all()

    def test_rows_are_frobenius_powers(self, f16, alpha4):
        M = moore.moore_matrix(f16, alpha4, 3)
        for i in range(3):
            assert list(M[i]) == [f16.frobenius(a, i) for a in alpha4]

    def test_k_below_one(self, f16, alpha4):
        with pytest.raises(ValueError):
            moore.moore_matrix(f16, alpha4, 0)

    def test_empty_alpha(self, f16):
        with pytest.raises(ValueError):
            moore.moore_matrix(f16, [], 2)


class TestModifiedMoore:
    def test_t_equals_h_is_plain(self, f16, alpha4):
        for h in range(2):
            M = moore.modified_moore_matrix(f16, alpha4, 2, h, h)
            assert (M == moore.moore_matrix(f16, alpha4, 2)).all()

    def test_single_row_replacement(self, f16, alpha4):
        M = moore.modified_moore_matrix(f16, alpha4, 1, 0, 2)
        assert list(M[0]) == [f16.frobenius(a, 2) for a in alpha4]

    def test_two_rows(self, f16):
        M = moore.modified_moore_matrix(f16, [1, W], 2, 0, 3)
        assert list(M[0]) == [f16.frobenius(a, 3) for a in [1, W]]
        assert list(M[1]) == [f16.frobenius(a, 1) for a in [1, W]]

    def test_h_out_of_range(self, f16, alpha4):
        with pytest.raises(ValueError):
            moore.modified_moore_matrix(f16, alpha4, 2, 2, 3)


class TestDeterminant:
    def test_identity(self, f16):
        assert moore.det_fqm(f16, np.eye(3, dtype=np.int64)) == 1

    def test_repeated_row(self, f16, alpha4):
        M = np.array([list(alpha4[:3]), list(alpha4[:3]), [1, 0, 1]], dtype=np.int64)
        assert moore.det_fqm(f16, M) == 0

    def test_two_by_two_cofactor_oracle(self, f16, rng):
        for _ in range(100):
            a, b, c, d = (f16.random_element(rng) for _ in range(4))
            M = np.array([[a, b], [c, d]], dtype=np.int64)
            expect = f16.sub(f16.mul(a, d), f16.mul(b, c))
            assert moore.det_fqm(f16, M) == expect

    def test_three_by_three_leibniz_oracle(self, f9, rng):
        from itertools import permutations

        def leibniz3(t, M):
            acc = 0
            for perm in permutations(range(3)):
                inv = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
                term = 1
                for i in range(3):
                    term = t.mul(term, int(M[i][perm[i]]))
                acc = t.add(acc, term if inv % 2 == 0 else t.neg(term))
            return acc

        for _ in range(60):
            M = np.array([[f9.random_element(rng) for _ in range(3)] for _ in range(3)])
            assert moore.det_fqm(f9, M) == leibniz3(f9, M)

    def test_non_square(self, f16, alpha4):
        with pytest.raises(ValueError):
            moore.det_fqm(f16, moore.moore_matrix(f16, alpha4, 2))

    def test_alternating_in_rows(self, f16, rng):
        for _ in range(50):
            M = np.array([[f16.random_element(rng) for _ in range(3)] for _ in range(3)])
            M2 = M[[1, 0, 2]]
            assert moore.det_fqm(f16, M2) == f16.neg(moore.det_fqm(f16, M))

    def test_multilinear_in_rows(self, f9, rng):
        for _ in range(50):
            M = np.array([[f9.random_element(rng) for _ in range(3)] for _ in range(3)])
            lam = f9.random_nonzero(rng)
            scaled = M.copy()
            scaled[1] = [f9.mul(lam, int(x)) for x in M[1]]
            assert moore.det_fqm(f9, scaled) == f9.mul(lam, moore.det_fqm(f9, M))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_moore_det_product_matches_both_eliminations_over_random_towers(data):
    # the closed form, the scalar elimination and the batched one, on a stack
    # of Moore matrices whose alphas are often F_q-dependent
    p, e, m = data.draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    k = data.draw(st.integers(1, min(m, 3)))
    entry = st.integers(0, t.order - 1) | st.integers(0, t.q - 1)
    alphas = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=6))
    stack = np.stack([moore.moore_matrix(t, a, k) for a in alphas])
    closed = [moore_det_product(t, a) for a in alphas]
    assert closed == [moore.det_fqm(t, M) for M in stack] == t.det_many(stack).tolist()


class TestMooreDetProduct:
    def test_k1_is_alpha1(self, f16, rng):
        a = f16.random_element(rng)
        assert moore_det_product(f16, [a]) == a

    def test_dependent_pair_vanishes(self, f16, rng):
        a = f16.random_nonzero(rng)
        assert moore_det_product(f16, [a, a]) == 0

    def test_matches_det_exhaustive_small(self):
        for m in (1, 2, 3):
            t = default_tower(2, 1, m)
            for k in (1, 2, 3):
                for alpha in product(t.elements(), repeat=k):
                    lhs = moore_det_product(t, alpha)
                    rhs = moore.det_fqm(t, moore.moore_matrix(t, alpha, k))
                    assert lhs == rhs

    def test_matches_det_f9(self, f9, rng):
        for _ in range(200):
            k = rng.choice([1, 2])
            alpha = [f9.random_element(rng) for _ in range(k)]
            assert moore_det_product(f9, alpha) == moore.det_fqm(
                f9, moore.moore_matrix(f9, alpha, k)
            )

    def test_invertible_iff_independent(self, f16, rng):
        for _ in range(300):
            k = rng.choice([1, 2, 3])
            alpha = [f16.random_element(rng) for _ in range(k)]
            nonzero = moore_det_product(f16, alpha) != 0
            assert nonzero == (f16.fq_rank(alpha) == k)


class TestRank:
    def test_zero_matrix(self, f16):
        assert moore.rank_fqm(f16, np.zeros((2, 3), dtype=np.int64)) == 0

    def test_identity(self, f16):
        assert moore.rank_fqm(f16, np.eye(3, dtype=np.int64)) == 3

    def test_moore_full_rank_via_det_oracle(self, f16, alpha4):
        # every k columns of a Moore matrix on independent points are independent
        for k in (1, 2, 3):
            M = moore.moore_matrix(f16, alpha4, k)
            assert moore.rank_fqm(f16, M) == k
            for cols in combinations(range(4), k):
                assert moore.det_fqm(f16, M[:, cols]) != 0


class TestNullspace:
    def test_basis_annihilates(self, f16, alpha4, rng):
        G = moore.moore_matrix(f16, alpha4, 2)
        H = moore.nullspace_fqm(f16, G)
        assert H.shape == (2, 4)
        assert (moore.matmul(f16, G, H.T) == 0).all()
        assert moore.rank_fqm(f16, H) == 2

    def test_odd_characteristic(self, f9):
        G = np.array([[1, 1, 2]], dtype=np.int64)
        H = moore.nullspace_fqm(f9, G)
        assert H.shape == (2, 3)
        assert (moore.matmul(f9, G, H.T) == 0).all()


@st.composite
def matmul_cases(draw):
    """A random tower of order <= 256 with p in {2, 3, 5}, a left factor of
    shape (r, s) or (batch, r, s), either field elements or uint8 F_q digits,
    and a right factor of shape (s, c)."""
    p, e, m = draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))
    r, s, c = (draw(st.integers(1, 4)) for _ in range(3))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    if draw(st.booleans()):
        A = draw(arrays(np.uint8, batch + (r, s), elements=st.integers(0, t.q - 1)))
    else:
        A = draw(arrays(np.int64, batch + (r, s), elements=st.integers(0, t.order - 1)))
    B = draw(arrays(np.int64, (s, c), elements=st.integers(0, t.order - 1)))
    return t, A, B


@settings(max_examples=60, deadline=None)
@given(case=matmul_cases())
def test_matmul_matches_scalar_oracle(case):
    t, A, B = case
    out = moore.matmul(t, A, B)
    assert out.dtype == np.int64 and out.shape == A.shape[:-1] + B.shape[1:]
    if A.ndim == 2:
        assert (out == scalar_matmul(t, A, B)).all()
    else:
        for a, o in zip(A, out):
            assert (o == scalar_matmul(t, a, B)).all()


def test_matmul_shape_mismatch(f16):
    with pytest.raises(ValueError, match="shape"):
        moore.matmul(f16, np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))


def test_counter_blocks_of_the_empty_tuple():
    blocks = list(moore.counter_blocks((0,), [((), range(0))], 16))
    assert len(blocks) == 1
    assert blocks[0].dtype == np.int64 and blocks[0].shape == (1, 0)


@st.composite
def span_cases(draw):
    """A random tower of order <= 256 (odd p and e > 1 among them), a (K, S, n)
    stack B with S in 1..20, up to three segments of disjoint ones and digits
    (either may be empty) of at most 1024 items each, and a block size, often
    below q^m // S, so that even the fastest digit runs as products."""
    small = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2)]  # drawn more often
    p, e, m = draw(st.sampled_from(small + DISTANCE_TOWERS))
    t = tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))
    K, n = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    S = draw(st.integers(1, 4) | st.integers(1, 20))
    B = draw(arrays(np.int64, (K, S, n), elements=st.integers(0, t.order - 1)))
    most = max(d for d in range(K + 1) if t.order**d <= 1024)
    segments = []
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.permutations(range(K)))
        digits = draw(st.just(most) | st.integers(0, most))
        ones = draw(st.integers(0, K - digits))
        segments.append((tuple(pos[digits : digits + ones]), pos[:digits]))
    return t, B, segments, draw(st.sampled_from([1, 2, 3, 7, 64, 1000, moore.BLOCK_ROWS]))


def _span_example(p, e, m, shape, segments, rows):
    t = default_tower(p, e, m)
    return t, np.random.default_rng(1).integers(0, t.order, shape), segments, rows


@settings(max_examples=80, deadline=None)
@given(case=span_cases())
# the message classes of k = 3 over F_4 (two digits in one table sum), and a
# full segment over F_9 <= F_81 cut into blocks of 2 items, below q^m
@example(case=_span_example(2, 1, 2, (3, 2, 2), [((0,), [1, 2]), ((1,), [2]), ((2,), [])], 1000))
@example(case=_span_example(3, 2, 2, (2, 3, 2), [((), [1, 0])], 7))
def test_span_blocks_match_matmul_of_counter_blocks(case):
    t, B, segments, rows = case
    K, S, n = B.shape
    with patch.object(moore, "BLOCK_ROWS", rows):
        expect = [moore.matmul(t, msgs, B.reshape(K, S * n)).reshape(-1, S, n)
                  for msgs in moore.counter_blocks((K,), segments, t.order)]
        got = list(moore.span_blocks(t, B, segments))
    # each block is (S, n, items), at most max(rows, S) codewords
    assert all(b.dtype == ELEMENT_DTYPE and b.shape[:2] == (S, n) for b in got)
    assert all(1 <= b.shape[2] and b.shape[2] * S <= max(rows, S) for b in got)
    words = np.concatenate([np.zeros((S, n, 0), dtype=np.int64), *got], axis=2)
    expect = np.concatenate([np.zeros((0, S, n), dtype=np.int64), *expect])
    assert words.transpose(2, 0, 1).tolist() == expect.tolist()
