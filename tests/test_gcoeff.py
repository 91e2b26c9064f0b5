from itertools import combinations

import numpy as np
import pytest

from oracles import g_of_subset, verify_modified_moore_identity
from twistgab import moore
from twistgab.errors import SpecInvariantError
from twistgab.gcoeff import (
    AnnihilatorCoeffs,
    g_coefficient,
    sigma_lower_triangular,
    triangular_inverse,
)
from twistgab.linpoly import annihilator

W = 2


def coeffs_of(tower, gens):
    return AnnihilatorCoeffs.from_span(tower, gens)


class TestAnnihilatorCoeffs:
    def test_monic_and_indexing(self, f16):
        c = coeffs_of(f16, [1, W])
        ann = annihilator(f16, [1, W])
        assert c.k == 2 and c.at(0) == 1
        # c_j is the coefficient of x^[k-j]
        for j in range(3):
            assert c.at(j) == ann.coeff(2 - j)

    def test_padding_beyond_k(self, f16):
        c = coeffs_of(f16, [1])
        assert c.at(5) == 0 and c.at(-1) == 0

    def test_non_monic_rejected(self, f16):
        with pytest.raises(SpecInvariantError):
            AnnihilatorCoeffs(f16, (W, 1))


class TestTriangularInverse:
    def test_t0(self, f16):
        E = triangular_inverse(coeffs_of(f16, [1, W]), 0)
        assert E.tolist() == [[1]]

    def test_t1_entry(self, f16):
        c = coeffs_of(f16, [1, W])
        E = triangular_inverse(c, 1)
        assert int(E[1, 0]) == f16.neg(f16.frobenius(c.at(1), 1))
        assert int(E[0, 0]) == int(E[1, 1]) == 1

    def test_diagonal_ones(self, f9, rng):
        for _ in range(20):
            cs = (1,) + tuple(f9.random_element(rng) for _ in range(3))
            E = triangular_inverse(AnnihilatorCoeffs(f9, cs), 3)
            assert all(int(E[i, i]) == 1 for i in range(4))

    def test_inverse_against_generic_elimination(self, f9, f16, rng):
        # oracle: solve A X = I column by column with plain Gaussian elimination
        for t in (f9, f16):
            for _ in range(50):
                tt = rng.randint(0, 4)
                cs = (1,) + tuple(t.random_element(rng) for _ in range(2))
                co = AnnihilatorCoeffs(t, cs)
                A = sigma_lower_triangular(co, tt)
                E = triangular_inverse(co, tt)
                ident = np.eye(tt + 1, dtype=np.int64)
                X = np.zeros_like(A)
                for col in range(tt + 1):
                    # forward substitution: A lower triangular with unit-ish diagonal
                    for i in range(tt + 1):
                        acc = int(ident[i, col])
                        for s in range(i):
                            acc = t.sub(acc, t.mul(int(A[i, s]), int(X[s, col])))
                        X[i, col] = t.div(acc, int(A[i, i]))
                assert (X == E).all()

    def test_requires_monic(self, f16):
        with pytest.raises(SpecInvariantError):
            triangular_inverse(AnnihilatorCoeffs(f16, (W, 1)), 1)


class TestGCoefficient:
    def test_t0_closed_form(self, f16):
        c = coeffs_of(f16, [1, W, f16.pow_(W, 2)])
        for h in range(3):
            assert g_coefficient(c, h, 0) == f16.neg(c.at(c.k - h))

    def test_t1_closed_form(self, f16_any):
        t = f16_any
        w = 2
        c = coeffs_of(t, [1, w])
        for h in (0, 1):
            expect = t.sub(
                t.mul(t.frobenius(c.at(1), 1), c.at(c.k - h)),
                t.frobenius(c.at(c.k - h + 1), 1),
            )
            assert g_coefficient(c, h, 1) == expect

    def test_h_out_of_range(self, f16):
        c = coeffs_of(f16, [1, W])
        with pytest.raises(ValueError):
            g_coefficient(c, 2, 0)

    def test_matches_determinant_ratio(self, f16, rng):
        # oracle: g = |M_k^(h,k+t)| / |M_k| on independent tuples
        t = f16
        for _ in range(60):
            k = rng.choice([1, 2, 3])
            alpha = [t.random_element(rng) for _ in range(k)]
            if t.fq_rank(alpha) != k:
                continue
            c = coeffs_of(t, alpha)
            h, tt = rng.randrange(k), rng.randint(0, 3)
            num = moore.det_fqm(t, moore.modified_moore_matrix(t, alpha, k, h, k + tt))
            den = moore.det_fqm(t, moore.moore_matrix(t, alpha, k))
            assert g_coefficient(c, h, tt) == t.div(num, den)


class TestGOfSubset:
    def test_first_k_specializes(self, f16, alpha4):
        direct = g_coefficient(coeffs_of(f16, list(alpha4[:2])), 1, 1)
        assert g_of_subset(f16, alpha4, [0, 1], 1, 1) == direct

    def test_k1_closed_form(self, f16, alpha4):
        # U = <a>: the subspace polynomial is x^[1] - a^(q-1) x, so -c_1 = a^(q-1)
        for i, a in enumerate(alpha4):
            g = g_of_subset(f16, alpha4, [i], 0, 0)
            assert g == f16.pow_(a, f16.q - 1)

    def test_dependent_subset_identified(self, f16):
        alpha = (1, W, f16.add(1, W), f16.pow_(W, 3))  # rank 3, still a valid vector
        with pytest.raises(SpecInvariantError, match=r"\(0, 1, 2\)"):
            g_of_subset(f16, alpha, (0, 1, 2), 0, 0)

    def test_t0_value_is_ck_minus_h(self, f16, alpha4):
        for subset in combinations(range(4), 2):
            c = coeffs_of(f16, [alpha4[i] for i in subset])
            for h in (0, 1):
                assert g_of_subset(f16, alpha4, subset, h, 0) == f16.neg(c.at(2 - h))


class TestModifiedMooreIdentity:
    def test_k1_scalar_case(self, f16):
        for a in f16.nonzero_elements():
            for tt in range(3):
                assert verify_modified_moore_identity(f16, [a], 0, tt)

    def test_all_2subsets_of_alpha4(self, f16_any):
        t = f16_any
        alpha = [1, 2, t.pow_(2, 2), t.pow_(2, 3)]
        for subset in combinations(range(4), 2):
            pair = [alpha[i] for i in subset]
            for h in (0, 1):
                for tt in (0, 1):
                    assert verify_modified_moore_identity(t, pair, h, tt)

    def test_random_triples_wide_t(self, f16, rng):
        checked = 0
        while checked < 40:
            alpha = [f16.random_element(rng) for _ in range(3)]
            if f16.fq_rank(alpha) != 3:
                continue
            h, tt = rng.randrange(3), rng.randint(0, 5)
            assert verify_modified_moore_identity(f16, alpha, h, tt)
            checked += 1

    def test_odd_characteristic(self, f9):
        alpha = [1, 3]  # 1, y: independent over F_3
        for h in (0, 1):
            for tt in (0, 1, 2):
                assert verify_modified_moore_identity(f9, alpha, h, tt)

    def test_dependent_tuple_rejected(self, f16):
        with pytest.raises(SpecInvariantError):
            verify_modified_moore_identity(f16, [1, 1], 0, 0)
