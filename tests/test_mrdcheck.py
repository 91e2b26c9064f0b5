from functools import cache, reduce
from itertools import combinations, product
from math import comb

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polynomial_basis
from oracles import (
    DISTANCE_TOWERS,
    g_of_subset,
    scalar_is_mrd,
    scalar_matmul,
    scalar_subspaces,
    sum_product_free_walk,
    tower_from,
)
import twistgab
from twistgab import codes, moore
from twistgab import mrdcheck as mc
from twistgab.budget import Budgets
from twistgab.codes import CodeSpec, generator_matrix, min_rank_distance
from twistgab.errors import BudgetExceededError, ConsistencyError, SpecInvariantError
from twistgab.fieldtower import FieldTower, TowerParams, default_tower
from twistgab.gcoeff import AnnihilatorCoeffs, g_coefficient
from twistgab.mrdcheck import SubfieldChain

W = 2


def f16_subbasis(f256, n):
    """n F_2-independent elements of the F_16 subfield of F_256."""
    basis = []
    for x in f256.subfield_elements(4):
        if x and f256.fq_rank(basis + [x]) == len(basis) + 1:
            basis.append(x)
        if len(basis) == n:
            break
    return tuple(basis)


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_subspace_blocks_match_scalar_oracle(block_rows, n, data):
    k = data.draw(st.integers(1, n))
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(moore, "BLOCK_ROWS", block_rows)
        blocks = list(mc._subspace_blocks(n, k, q))
        limit = moore.BLOCK_ROWS
    expected = [V.tolist() for V in scalar_subspaces(n, k, q)]
    assert len(expected) == mc.gaussian_binomial(n, k, q)
    assert [V.tolist() for b in blocks for V in b] == expected
    for b in blocks:
        assert b.dtype == np.int64 and b.shape[1:] == (k, n) and 1 <= len(b) <= limit
    # blocks are filled across pivot sets: every block but the last is full
    assert all(len(b) == limit for b in blocks[:-1])
    assert [V.tolist() for V in mc.enumerate_subspaces(n, k, q)] == expected


def test_subspace_count_mismatch_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(mc, "gaussian_binomial", lambda n, k, q: 36)
    with pytest.raises(ConsistencyError, match="36"):
        list(mc._subspace_blocks(4, 2, 2))


class TestSubspaceEnumeration:
    def test_counts(self):
        assert mc.gaussian_binomial(2, 1, 2) == 3
        assert mc.gaussian_binomial(4, 2, 2) == 35
        assert mc.gaussian_binomial(4, 2, 3) == 130

    def test_k_equals_n(self):
        reps = list(mc.enumerate_subspaces(3, 3, 2))
        assert len(reps) == 1 and (reps[0] == np.eye(3, dtype=np.uint8)).all()

    def test_small_binary(self):
        assert len(list(mc.enumerate_subspaces(2, 1, 2))) == 3

    def test_rref_representatives_cover_all_row_spaces(self):
        # oracle: enumerate every full-rank 2x4 binary matrix and dedupe by row space
        def rowspace(rows):
            a, b = rows
            return frozenset([0, a, b, a ^ b])

        all_spaces = set()
        for a in range(16):
            for b in range(16):
                if a and b and a != b:
                    all_spaces.add(rowspace((a, b)))
        assert len(all_spaces) == 35
        rep_spaces = set()
        for V in mc.enumerate_subspaces(4, 2, 2):
            packed = [int("".join(map(str, row)), 2) for row in V]
            rep_spaces.add(rowspace(packed))
        assert rep_spaces == all_spaces

    def test_count_over_f3(self):
        assert len(list(mc.enumerate_subspaces(3, 2, 3))) == mc.gaussian_binomial(3, 2, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(mc.enumerate_subspaces(4, 2, 2, Budgets(subspaces=10)))

    def test_digits_beyond_uint8_are_refused(self):
        with pytest.raises(ValueError, match="q <= 256"):
            next(mc.enumerate_subspaces(2, 1, 257))

    def test_deterministic_order(self):
        first = [V.tolist() for V in mc.enumerate_subspaces(4, 2, 2)]
        second = [V.tolist() for V in mc.enumerate_subspaces(4, 2, 2)]
        assert first == second


class TestSubspaceCriterion:
    def test_gabidulin_true(self, f16, alpha4):
        for k in (1, 2, 3):
            assert mc.is_mrd_subspace_criterion(CodeSpec(f16, alpha4, k))

    def test_gabidulin_true_over_f256_n8_k4(self, f256):
        # 200 787 subspaces, all of them walked by the batched elimination
        G = generator_matrix(CodeSpec(f256, polynomial_basis(f256, 8), 4))
        assert mc.matrix_is_mrd(f256, G)

    def test_first_k_forbidden_eta_false(self, f16, alpha4):
        # eta^(-1) = -g_h^(t) of the first k columns zeroes that minor
        g = g_of_subset(f16, alpha4, [0, 1], 0, 0)
        eta = f16.inv(f16.neg(g))
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, eta),))
        assert not mc.is_mrd_subspace_criterion(spec)
        assert moore_det_is_zero_on_first_two(f16, spec)

    def test_rowspace_invariance_under_gl(self, f16, alpha4, rng):
        from twistgab import moore

        G = generator_matrix(CodeSpec(f16, alpha4, 2, 0, ((0, W),)))
        for V in list(mc.enumerate_subspaces(4, 2, 2))[:10]:
            # random invertible R over F_2
            while True:
                R = np.array([[rng.randrange(2) for _ in range(2)] for _ in range(2)], dtype=np.uint8)
                if (R[0][0] & R[1][1]) ^ (R[0][1] & R[1][0]):
                    break
            RV = (R @ V) % 2
            r1 = moore.rank_fqm(f16, moore.matmul(f16, V, G.T))
            r2 = moore.rank_fqm(f16, moore.matmul(f16, RV.astype(np.uint8), G.T))
            assert r1 == r2


def moore_det_is_zero_on_first_two(tower, spec):
    from twistgab import moore

    G = generator_matrix(spec)
    return moore.det_fqm(tower, G[:, (0, 1)]) == 0


class TestForbiddenSets:
    def test_ratio_set_complement_is_exactly_mrd(self, f16, alpha4):
        # the set holds eta^(-1); over F_16 with n = m = 4 it is closed under
        # inversion, so the cases below tell the two readings apart
        fset = mc.forbidden_eta_set_one_twist(f16, alpha4, 2, 0, 0)
        for eta in f16.nonzero_elements():
            spec = CodeSpec(f16, alpha4, 2, 0, ((0, eta),))
            assert mc.is_mrd_subspace_criterion(spec) == ((f16.inv(eta),) not in fset)

    def test_omega_one_within_ratio_set(self, f16, alpha4):
        # both hold eta^(-1): a k-subset I is the coordinate subspace V = I
        for h in (0, 1):
            fset = mc.forbidden_eta_set_one_twist(f16, alpha4, 2, h, 0)
            o1 = mc.omega_one(mc.KSubsetTable(f16, alpha4, 2), h, 0)
            assert o1.values() <= fset.values()

    # (p, m, n, k, h) and the number of eta that the eta (not eta^(-1))
    # reading of the set gets wrong, alpha = (1, y, ..., y^(n-1)), t = 0
    @pytest.mark.parametrize("p, m, n, k, h, wrong", [
        (2, 5, 4, 2, 0, 12), (2, 5, 4, 2, 1, 6), (3, 4, 3, 1, 0, 20),
    ])
    def test_ratio_set_holds_eta_inverses_where_the_readings_differ(self, p, m, n, k, h, wrong):
        t = default_tower(p, 1, m)
        alpha = polynomial_basis(t, n)
        fset = mc.forbidden_eta_set_one_twist(t, alpha, k, h, 0)
        mrd = {eta: mc.is_mrd_subspace_criterion(CodeSpec(t, alpha, k, h, ((0, eta),)))
               for eta in t.nonzero_elements()}
        assert all(ok == ((t.inv(eta),) not in fset) for eta, ok in mrd.items())
        assert sum(ok != ((eta,) not in fset) for eta, ok in mrd.items()) == wrong
        assert mc.omega_one(mc.KSubsetTable(t, alpha, k), h, 0).values() <= fset.values()

    def test_omega_one_soundness(self, f16, alpha4):
        o1 = mc.omega_one(mc.KSubsetTable(f16, alpha4, 2), 0, 1)
        for eta in f16.nonzero_elements():
            if (f16.inv(eta),) in o1:
                spec = CodeSpec(f16, alpha4, 2, 0, ((1, eta),))
                assert not min_rank_distance(spec).is_mrd

    def test_omega_one_prime_matches_t0(self, f16_any):
        t = f16_any
        alpha = tuple(t.pow_(2, i) for i in range(4))
        for h in (0, 1):
            table = mc.KSubsetTable(t, alpha, 2)
            o1 = mc.omega_one(table, h, 0)
            o1p = mc.omega_one_prime(table, h)
            assert o1.values() == o1p.values()

    def test_witnesses_recorded(self, f16, alpha4):
        o1 = mc.omega_one(mc.KSubsetTable(f16, alpha4, 2), 0, 0)
        for val, wit in o1.entries.items():
            assert len(wit) == 2 and all(0 <= i < 4 for i in wit)

    def test_json_serialization(self, f16, alpha4):
        o1 = mc.omega_one(mc.KSubsetTable(f16, alpha4, 2), 0, 0)
        d = o1.to_json_dict(f16)
        assert d["size"] == len(o1.entries) and d["provenance"] == "omega1"

    def test_membership_of_numpy_integers(self, f16, alpha4):
        # inv_many and mul_many give numpy integers, alone or in tuples
        fset = mc.forbidden_eta_set_one_twist(f16, alpha4, 2, 0, 0)
        (value,), *_ = fset.entries
        for eta in (value, np.int64(value), (np.int64(value),), [np.int32(value)]):
            assert eta in fset
        assert np.int64(0) not in mc.ForbiddenSet(arity=1, provenance="empty")
        pairs = mc.ForbiddenSet(arity=2, provenance="omega2", entries={(3, 5): [0]})
        assert tuple(np.array([3, 5])) in pairs and (5, 3) not in pairs

    @pytest.mark.parametrize("t", [0, 1])
    def test_one_twist_sets_by_name(self, f16, alpha4, t):
        spec = CodeSpec(f16, alpha4, 2, 0, ((t, W),))
        sets = mc.forbidden_sets_one_twist(spec)
        table = mc.KSubsetTable(f16, alpha4, 2)
        assert sets["ratio_set"] == mc.forbidden_eta_set_one_twist(f16, alpha4, 2, 0, t)
        assert sets["omega_one"] == mc.omega_one(table, 0, t)
        if t == 0:
            assert sets.keys() == {"ratio_set", "omega_one", "omega_one_prime"}
            assert sets["omega_one_prime"] == mc.omega_one_prime(table, 0)
        else:
            assert sets.keys() == {"ratio_set", "omega_one"}
        with pytest.raises(SpecInvariantError, match="exactly one twist"):
            mc.forbidden_sets_one_twist(CodeSpec(f16, alpha4, 2))

    def test_omega_one_outside_the_ratio_set_is_a_consistency_error(self, monkeypatch):
        # over F_32 with n = 4 the ratio set misses some eta^(-1); over F_16
        # with n = m = 4 it holds every one
        t = default_tower(2, 1, 5)
        alpha = polynomial_basis(t, 4)
        spec = CodeSpec(t, alpha, 2, 0, ((1, W),))
        ratio = mc.forbidden_eta_set_one_twist(t, alpha, 2, 0, 1)
        stray = min(v for v in t.nonzero_elements() if (v,) not in ratio)
        omega_one = mc.omega_one

        def widened(table, h, t):
            out = omega_one(table, h, t)
            out.entries[(stray,)] = [2, 3]
            return out

        monkeypatch.setattr(mc, "omega_one", widened)
        with pytest.raises(ConsistencyError, match=re.escape(
            f"value {t.elements_to_json(stray)} (k-subset [2, 3]) is outside the ratio set"
        )):
            mc.forbidden_sets_one_twist(spec)


class TestOmegaWitnesses:
    def test_two_twist_closed_form(self, f16, alpha4):
        # independent oracle: (eta1 - eta2 c_1^[1]) c_(k-h) + eta2 c_(k-h+1)^[1] = 1
        # for some k-subset, evaluated directly from the subspace polynomials
        t = f16
        k, h = 1, 0
        csets = []
        for subset in combinations(range(4), k):
            c = AnnihilatorCoeffs.from_span(t, [alpha4[i] for i in subset])
            csets.append((subset, c))

        def closed_form_witness(e1, e2):
            for subset, c in csets:
                lhs = t.add(
                    t.mul(t.sub(e1, t.mul(e2, t.frobenius(c.at(1), 1))), c.at(k - h)),
                    t.mul(e2, t.frobenius(c.at(k - h + 1), 1)),
                )
                if lhs == 1:
                    return subset
            return None

        for e1 in t.nonzero_elements():
            for e2 in t.nonzero_elements():
                got = mc.omega_witness(CodeSpec(t, alpha4, k, h, ((0, e1), (1, e2))))
                expect = closed_form_witness(e1, e2)
                assert (got is None) == (expect is None)
                if got is not None:
                    assert got == expect  # both scan subsets lexicographically

    def test_witness_implies_not_mrd(self, f16, alpha4, rng):
        for _ in range(40):
            e1, e2 = f16.random_nonzero(rng), f16.random_nonzero(rng)
            spec = CodeSpec(f16, alpha4, 1, 0, ((0, e1), (1, e2)))
            if mc.omega_witness(spec) is not None:
                assert min_rank_distance(spec).d_rank <= 3

    def test_many_twist_witness_is_first_vanishing_minor(self, f16, alpha4):
        # three twists: the witness is the first k-subset whose maximal minor
        # of the generator vanishes, read off the matrix directly
        from twistgab import moore

        found = 0
        for e1, e2, e3 in product((1, W, 7), repeat=3):
            spec = CodeSpec(f16, alpha4, 1, 0, ((0, e1), (1, e2), (2, e3)))
            G = generator_matrix(spec)
            vanishing = (
                s for s in combinations(range(4), 1) if moore.det_fqm(f16, G[:, list(s)]) == 0
            )
            wit = mc.omega_witness(spec)
            assert wit == next(vanishing, None)
            found += wit is not None
        assert found > 0

    def test_gabidulin_has_no_witness(self, f16, alpha4):
        assert mc.omega_witness(CodeSpec(f16, alpha4, 2)) is None

    @pytest.mark.parametrize("route", ["scalars", "minors"])
    def test_witness_is_checked_against_the_column_minors(self, f16, alpha4, monkeypatch, route):
        # two twists (the forbidden command's l >= 2 case), one spec with a
        # witness and one without; flipping either route's mask on a single
        # k-subset raises and names that subset
        specs = [CodeSpec(f16, alpha4, 2, 0, ((0, e1), (1, e2)))
                 for e1, e2 in product(f16.nonzero_elements(), repeat=2)]
        found = [mc.omega_witness(spec) for spec in specs]
        with_witness = specs[[w is not None for w in found].index(True)]
        without = specs[found.index(None)]
        if route == "scalars":
            vanishing = mc.KSubsetTable.vanishing_many

            def flipped(self, *args):
                mask = vanishing(self, *args)
                mask[:, 4] = ~mask[:, 4]
                return mask

            monkeypatch.setattr(mc.KSubsetTable, "vanishing_many", flipped)
        else:
            det_many = f16.det_many

            def flipped(M):
                dets = det_many(M)
                dets[4] = 0 if dets[4] else 1
                return dets

            monkeypatch.setattr(f16, "det_many", flipped)
        for spec in (with_witness, without):
            with pytest.raises(ConsistencyError, match=r"k-subset \[1, 3\] vanishes"):
                mc.omega_witness(spec)

    def test_materialized_omega_two_matches_witness_scan(self, f16, alpha4):
        # against the generator itself: (eta_1, eta_2) is in Omega_2 iff some
        # maximal minor vanishes, and the witness is the first such k-subset
        from twistgab import moore

        for k, h in ((1, 0), (2, 1)):
            full = mc.omega_two_materialize(mc.KSubsetTable(f16, alpha4, k), h, 0, 1)
            for e1 in f16.nonzero_elements():
                for e2 in f16.nonzero_elements():
                    G = generator_matrix(CodeSpec(f16, alpha4, k, h, ((0, e1), (1, e2))))
                    vanishing = (
                        list(s)
                        for s in combinations(range(4), k)
                        if moore.det_fqm(f16, G[:, list(s)]) == 0
                    )
                    assert full.entries.get((e1, e2)) == next(vanishing, None)
            assert 0 < len(full.entries) < 15 * 15


class TestMrdMembershipMulti:
    def test_gabidulin_always_true(self, f16, alpha4):
        for k in (1, 2, 3):
            ok, vio = mc.mrd_membership_multi(CodeSpec(f16, alpha4, k))
            assert ok and vio is None

    def test_agrees_with_subspace_criterion(self, f16, alpha4, rng):
        for _ in range(25):
            e1, e2 = f16.random_nonzero(rng), f16.random_nonzero(rng)
            spec = CodeSpec(f16, alpha4, 2, rng.randrange(2), ((0, e1), (1, e2)))
            ok, vio = mc.mrd_membership_multi(spec)
            assert ok == mc.is_mrd_subspace_criterion(spec)
            if not ok:
                assert vio is not None

    def test_two_twist_grid_sample_at_m8(self, f256, rng):
        # sampled (eta1, eta2) grid over F_256, n = 4, k = 2: the determinant
        # expansion route must match exhaustive minimum rank distance
        alpha = f16_subbasis(f256, 4)
        for _ in range(40):
            e1, e2 = f256.random_nonzero(rng), f256.random_nonzero(rng)
            spec = CodeSpec(f256, alpha, 2, rng.randrange(2), ((0, e1), (1, e2)))
            ok, _ = mc.mrd_membership_multi(spec)
            assert ok == min_rank_distance(spec).is_mrd

    def test_violating_v_zeroes_the_expansion(self, f16, alpha4):
        from twistgab import moore

        # pick a non-MRD spec and confirm the reported V kills |V G^T|
        g = g_of_subset(f16, alpha4, [0, 1], 0, 0)
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, f16.inv(f16.neg(g))),))
        ok, vio = mc.mrd_membership_multi(spec)
        assert not ok
        V = np.array(vio, dtype=np.uint8)
        G = generator_matrix(spec)
        assert moore.det_fqm(f16, moore.matmul(f16, V, G.T)) == 0


def random_twisted_spec(t, rng, max_twists):
    """A code on random F_q-independent points with 1..max_twists twists."""
    while True:
        n = rng.randrange(2, t.m + 1)
        alpha = [t.random_nonzero(rng) for _ in range(n)]
        if t.fq_rank(alpha) == n:
            break
    k = rng.randrange(1, n)
    ell = rng.randrange(1, min(max_twists, n - k) + 1)
    ts = sorted(rng.sample(range(n - k), ell))
    twists = tuple((tj, t.random_nonzero(rng)) for tj in ts)
    return CodeSpec(t, tuple(alpha), k, rng.randrange(k), twists)


WITNESS_TOWERS = {"F16": default_tower(2, 1, 4), "F27": default_tower(3, 1, 3)}


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
@pytest.mark.parametrize("name", sorted(WITNESS_TOWERS))
class TestBlockWalkWitnesses:
    """The block walk must report the witness a scalar per-V walk finds first."""

    def test_violating_v_is_the_first_of_the_scalar_walk(self, monkeypatch, name, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
        t, rng = WITNESS_TOWERS[name], random.Random(name)
        verdicts = set()
        for _ in range(30):
            spec = random_twisted_spec(t, rng, max_twists=2)
            G = generator_matrix(spec)
            first = next(
                (V.tolist() for V in scalar_subspaces(spec.n, spec.k, t.q)
                 if moore.det_fqm(t, scalar_matmul(t, V, G.T)) == 0),
                None,
            )
            ok, vio = mc.mrd_membership_multi(spec)
            assert (ok, vio) == (first is None, first)
            assert mc.matrix_is_mrd(t, G) == ok
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_forbidden_witnesses_are_the_first_of_the_scalar_walk(
        self, monkeypatch, name, block_rows
    ):
        if block_rows is not None:
            monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
        t, rng = WITNESS_TOWERS[name], random.Random(name)
        for _ in range(6):
            spec = random_twisted_spec(t, rng, max_twists=1)
            (tj, _), = spec.twists
            M = moore.moore_matrix(t, spec.alpha, spec.k)
            Mht = moore.modified_moore_matrix(t, spec.alpha, spec.k, spec.h, spec.k + tj)
            expected = {}
            for V in scalar_subspaces(spec.n, spec.k, t.q):
                den = moore.det_fqm(t, scalar_matmul(t, V, M.T))
                num = moore.det_fqm(t, scalar_matmul(t, V, Mht.T))
                expected.setdefault((t.neg(t.div(num, den)),), V.tolist())
            fset = mc.forbidden_eta_set_one_twist(t, spec.alpha, spec.k, spec.h, tj)
            assert fset.entries == expected

    def test_zero_denominator_names_the_first_of_the_scalar_walk(
        self, monkeypatch, name, block_rows
    ):
        # a Moore matrix whose third column is the sum of the first two makes
        # |V M^T| vanish on every V whose row space holds (1, 1, -1); both
        # determinant routes read the one walk of twisted minors, which raises
        if block_rows is not None:
            monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
        t = WITNESS_TOWERS[name]
        moore_matrix = moore.moore_matrix

        def dependent(tower, alpha, k):
            M = moore_matrix(tower, alpha, k)
            M[:, 2] = tower.add_many(M[:, 0], M[:, 1])
            return M

        monkeypatch.setattr(moore, "moore_matrix", dependent)
        alpha = polynomial_basis(t, 3)
        M = moore.moore_matrix(t, alpha, 2)
        walk = list(scalar_subspaces(3, 2, t.q))
        first = next(V for V in walk if moore.det_fqm(t, scalar_matmul(t, V, M.T)) == 0)
        first = first.tolist()
        assert first != walk[0].tolist()
        with pytest.raises(ConsistencyError, match=re.escape(f"V = {first}")):
            mc.forbidden_eta_set_one_twist(t, alpha, 2, 0, 0)
        with pytest.raises(ConsistencyError, match=re.escape(f"V = {first}")):
            mc.mrd_membership_multi(CodeSpec(t, alpha, 2, 0, ((0, 1),)))


def second_block_failure():
    """A q = 4, n = 6, k = 3 generator whose first violating V is the first
    row of the second block of the walk.

    The first pivot set alone has 4^9 representatives.  G is dual to [w; a
    Gabidulin [6, 2] generator] with w = (1, 0, 0, 0, 1, 0): every other vector
    of that row space has rank weight >= 5 - 1 > 3, so the first violating V
    is the first one whose row space holds w, which is representative
    4^7 = moore.BLOCK_ROWS.
    """
    t = default_tower(2, 2, 6)
    W = np.vstack([[1, 0, 0, 0, 1, 0], moore.moore_matrix(t, polynomial_basis(t, 6), 2)])
    return t, moore.nullspace_fqm(t, W)


def spy_blocks(monkeypatch):
    """The length of every block the subspace walk yields, in order."""
    walked, blocks = [], mc._subspace_blocks

    def spy(*args):
        for b in blocks(*args):
            walked.append(len(b))
            yield b

    monkeypatch.setattr(mc, "_subspace_blocks", spy)
    return walked


def test_block_walk_memory_bound(monkeypatch):
    t, G = second_block_failure()
    n, k = 6, 3
    assert G.shape == (k, n)
    limit = moore.BLOCK_ROWS
    assert limit == 4**7
    sizes = [len(b) for b in mc._subspace_blocks(n, k, t.q)]
    assert max(sizes) <= limit < 4**9
    assert sum(sizes) == mc.gaussian_binomial(n, k, t.q)

    first = next(
        i for i, V in enumerate(scalar_subspaces(n, k, t.q))
        if moore.rank_fqm(t, scalar_matmul(t, V, G.T)) != k
    )
    assert first == limit
    walked = spy_blocks(monkeypatch)
    assert not mc.matrix_is_mrd(t, G)
    assert walked == [limit, limit]


def test_stack_walk_stops_after_the_block_of_the_last_failure(monkeypatch):
    # G1 swaps the first row of G for the F_q-rational e_5, so it fails on the
    # first representative [I | 0], whose column 5 is zero; G fails on the
    # first row of the second block
    t, G = second_block_failure()
    G1 = G.copy()
    G1[0] = [0, 0, 0, 0, 0, 1]
    assert moore.rank_fqm(t, G1) == 3
    limit = moore.BLOCK_ROWS
    walked = spy_blocks(monkeypatch)
    assert mc.matrix_is_mrd_many(t, [G1]).tolist() == [False]
    assert walked == [limit]
    walked.clear()
    assert mc.matrix_is_mrd_many(t, [G1, G]).tolist() == [False, False]
    assert walked == [limit, limit]


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
@pytest.mark.parametrize("name", sorted(WITNESS_TOWERS))
def test_stack_walk_matches_scalar_criterion_per_generator(monkeypatch, name, block_rows):
    # every one-twist t = 0 code on n = 3 points, one generator per (h, eta),
    # in one stack with MRD and non-MRD generators in random order; with 3-row
    # blocks each block of products holds one representative of three generators
    t, rng = WITNESS_TOWERS[name], random.Random(name)
    alpha = polynomial_basis(t, 3)
    Gs = [
        generator_matrix(CodeSpec(t, alpha, 2, h, ((0, eta),)))
        for h in (0, 1) for eta in t.nonzero_elements()
    ]
    rng.shuffle(Gs)
    expected = [scalar_is_mrd(t, G) for G in Gs]
    assert set(expected) == {True, False}
    if block_rows is not None:
        monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
    assert mc.matrix_is_mrd_many(t, np.stack(Gs)).tolist() == expected
    assert [mc.matrix_is_mrd(t, G) for G in Gs] == expected


def test_stack_walk_checks_every_product_against_the_subspaces_cap(f16, alpha4, monkeypatch):
    G = generator_matrix(CodeSpec(f16, alpha4, 2))
    count = mc.gaussian_binomial(4, 2, 2)
    cap = Budgets(subspaces=2 * count - 1)
    assert mc.matrix_is_mrd_many(f16, [G], cap).tolist() == [True]
    walked = spy_blocks(monkeypatch)
    with pytest.raises(BudgetExceededError, match=f"needs {2 * count} steps"):
        mc.matrix_is_mrd_many(f16, [G, G], cap)
    assert walked == []



def test_stack_walk_of_an_empty_stack_walks_nothing(f16, monkeypatch):
    walked = spy_blocks(monkeypatch)
    got = mc.matrix_is_mrd_many(f16, np.zeros((0, 2, 4), dtype=np.int64))
    assert got.dtype == bool and got.shape == (0,)
    assert walked == []


class TestConstructions:
    def test_chain_l1(self, f256):
        alpha = f16_subbasis(f256, 4)
        eta = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        spec, verified = mc.construct_chain_mrd(
            f256, SubfieldChain.nested([4], [eta]), alpha, 2, 0, [0]
        )
        assert verified and mc.is_mrd_subspace_criterion(spec)

    def test_verified_exactly_when_the_subspaces_fit_the_cap(self, f256):
        alpha = f16_subbasis(f256, 4)
        eta = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        chain, count = SubfieldChain.nested([4], [eta]), mc.gaussian_binomial(4, 2, 2)
        for cap, expected in ((count - 1, False), (count, True)):
            _, verified = mc.construct_chain_mrd(
                f256, chain, alpha, 2, 0, [0], Budgets(subspaces=cap)
            )
            assert verified is expected

    @pytest.mark.parametrize("chain", [
        SubfieldChain.nested([], []),
        SubfieldChain.sum_product_free(4, []),
    ], ids=["nested-empty", "spf-no-eta"])
    def test_empty_chain_rejected(self, f256, chain):
        with pytest.raises(SpecInvariantError, match="non-empty"):
            mc.construct_chain_mrd(f256, chain, f16_subbasis(f256, 2), 1, 0, [])

    def test_spec_invariants_come_before_the_sum_product_tuples(self, f256, monkeypatch):
        # six twists cannot fit n - k = 3, so the sum-product test is never called
        eta1 = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        etas = [f256.mul(b, eta1) for b in f256.subfield_elements(4)[1:7]]
        monkeypatch.setattr(mc, "sum_product_free_test", None)
        with pytest.raises(SpecInvariantError, match="twist exponents"):
            mc.construct_chain_mrd(
                f256, SubfieldChain.sum_product_free(4, etas), f16_subbasis(f256, 4), 1, 0,
                range(6),
            )

    def test_chain_l1_eta_inside_rejected(self, f256):
        alpha = f16_subbasis(f256, 4)
        eta_in = f256.subfield_elements(4)[3]
        with pytest.raises(SpecInvariantError, match="level 1"):
            mc.construct_chain_mrd(f256, SubfieldChain.nested([4], [eta_in]), alpha, 2, 0, [0])

    def test_chain_alpha_outside_subfield_rejected(self, f256):
        alpha = list(f16_subbasis(f256, 3))
        outside = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        alpha.append(outside)
        if f256.fq_rank(alpha) == 4:
            with pytest.raises(SpecInvariantError, match="alpha"):
                mc.construct_chain_mrd(
                    f256, SubfieldChain.nested([4], [outside]), tuple(alpha), 2, 0, [0]
                )

    def test_scalar_multiple_l2(self, f256):
        alpha = f16_subbasis(f256, 4)
        eta1 = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        b = f256.subfield_elements(4)[5]
        spec, verified = mc.construct_chain_mrd(
            f256, SubfieldChain.scalar_multiple(4, eta1, [b]), alpha, 2, 0, [0, 1]
        )
        assert spec.twists[1][1] == f256.mul(b, eta1)
        assert verified and mc.is_mrd_subspace_criterion(spec)

    def test_scalar_multiplier_outside_rejected(self, f256):
        alpha = f16_subbasis(f256, 4)
        eta1 = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        with pytest.raises(SpecInvariantError, match="level 2"):
            mc.construct_chain_mrd(
                f256, SubfieldChain.scalar_multiple(4, eta1, [eta1]), alpha, 2, 0, [0, 1]
            )

    def test_nested_l2_at_m16(self):
        # chain F_2 < F_4 < F_16 < F_65536 unavailable; use s = (4, 8) inside m = 16
        t = default_tower(2, 1, 16)
        alpha = []
        for x in t.subfield_elements(4):
            if x and t.fq_rank(alpha + [x]) == len(alpha) + 1:
                alpha.append(x)
            if len(alpha) == 4:
                break
        eta1 = next(
            x for x in t.subfield_elements(8) if not t.subfield_membership(x, 4)
        )
        eta2 = next(x for x in t.nonzero_elements() if not t.subfield_membership(x, 8))
        spec, verified = mc.construct_chain_mrd(
            t, SubfieldChain.nested([4, 8], [eta1, eta2]), tuple(alpha), 2, 0, [0, 1]
        )
        # 35 subspaces fit the budget, so the constructor already verified MRD;
        # assert the criterion once more explicitly
        assert verified and mc.is_mrd_subspace_criterion(spec)

    def test_nested_l2_wrong_level_rejected(self):
        t = default_tower(2, 1, 16)
        alpha = []
        for x in t.subfield_elements(4):
            if x and t.fq_rank(alpha + [x]) == len(alpha) + 1:
                alpha.append(x)
            if len(alpha) == 4:
                break
        eta_in_f16 = t.subfield_elements(4)[3]
        eta2 = next(x for x in t.nonzero_elements() if not t.subfield_membership(x, 8))
        with pytest.raises(SpecInvariantError, match="level 1"):
            mc.construct_chain_mrd(
                t, SubfieldChain.nested([4, 8], [eta_in_f16, eta2]), tuple(alpha), 2, 0, [0, 1]
            )


class TestSumProductFree:
    def test_scalar_multiple_family_passes(self, f256):
        eta1 = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        sub = f256.subfield_elements(4)
        etas = [eta1, f256.mul(sub[2], eta1), f256.mul(sub[7], eta1)]
        assert mc.sum_product_free_test(f256, etas, 4)

    def test_element_of_subfield_fails(self, f256):
        sub = f256.subfield_elements(4)
        assert not mc.sum_product_free_test(f256, [sub[3]], 4)

    def test_spf_implies_mrd(self, f256):
        alpha = f16_subbasis(f256, 4)
        eta1 = next(x for x in f256.nonzero_elements() if not f256.subfield_membership(x, 4))
        sub = f256.subfield_elements(4)
        etas = [eta1, f256.mul(sub[2], eta1), f256.mul(sub[7], eta1)]
        assert mc.sum_product_free_test(f256, etas, 4)
        spec = CodeSpec(f256, alpha, 1, 0, ((0, etas[0]), (1, etas[1]), (2, etas[2])))
        assert mc.is_mrd_subspace_criterion(spec)

    def test_four_etas_over_f2_16_are_decided(self):
        # 2^32 coefficient tuples over F_256 < F_2^16: decided by one F_q rank,
        # and the subspaces cap does not bound the test
        t = default_tower(2, 1, 16)
        beta = t.pow_(t.generator, 257)
        etas = [t.mul(t.pow_(beta, i), W) for i in range(4)]
        assert mc.sum_product_free_test(t, etas, 8)
        assert not mc.sum_product_free_test(t, [*etas[:3], t.add(W, 1)], 8)
        alpha = tuple(t.pow_(beta, i) for i in range(8))
        spec, verified = mc.construct_chain_mrd(
            t, SubfieldChain.sum_product_free(8, etas), alpha, 4, 0, range(4),
            Budgets(subspaces=1),
        )
        assert not verified and spec.twists == tuple(zip(range(4), etas))

    @pytest.mark.parametrize("s", [0, 3])
    def test_s_must_divide_m(self, f256, s):
        with pytest.raises(ValueError):
            mc.sum_product_free_test(f256, [W], s)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sum_product_free_rank_matches_the_tuple_walk(data):
    p, e, m = data.draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    # (s, l) whose (q^s)^l coefficient tuples the walk can afford
    shapes = [
        (s, ell)
        for s in range(1, m + 1) if m % s == 0
        for ell in (1, 2, 3)
        if (t.q**s) ** ell <= 4096
    ]
    s, ell = data.draw(st.sampled_from(shapes))
    sub = t.subfield_elements(s)
    # each eta is an F_(q^s)-multiple of the first or any element, so both
    # verdicts occur
    etas = [data.draw(st.sampled_from(t.elements()))]
    for _ in range(ell - 1):
        scaled = t.mul(data.draw(st.sampled_from(sub)), etas[0])
        etas.append(data.draw(st.one_of(st.just(scaled), st.sampled_from(t.elements()))))
    assert mc.sum_product_free_test(t, etas, s) == sum_product_free_walk(t, etas, s)


class TestNormCondition:
    def test_q2_always_fails(self, f16, alpha4):
        # the norm onto F_2 is identically 1 on nonzero elements, so the
        # sufficient condition N(eta) != (-1)^(mk) can never hold at q = 2
        for eta in f16.nonzero_elements():
            spec = CodeSpec(f16, alpha4, 2, 0, ((0, eta),))
            assert not mc.norm_mrd_condition(spec)

    def test_q3_sufficient_for_mrd(self, f9):
        alpha = (1, 3)
        passed = 0
        for eta in f9.nonzero_elements():
            spec = CodeSpec(f9, alpha, 1, 0, ((0, eta),))
            if mc.norm_mrd_condition(spec):
                passed += 1
                assert min_rank_distance(spec).is_mrd
        assert passed > 0  # non-vacuous at q = 3

    def test_general_h_false_by_surjectivity(self, f9):
        t = default_tower(3, 1, 3)
        alpha = tuple(t.pow_(3, i) for i in range(3))
        for eta in (1, 3, 7):
            spec = CodeSpec(t, alpha, 2, 1, ((0, eta),))
            assert not mc.norm_mrd_condition(spec)

    @pytest.mark.parametrize("pem", [(3, 1, 3), (2, 2, 3), (5, 1, 3)],
                             ids=["F_3^3", "F_4^3", "F_5^3"])
    def test_exact_at_n_equals_m(self, pem):
        # Sheekey: at n = m, h = 0 and t = 0 the code is MRD iff
        # N(eta) != (-1)^(mk), so the closed form meets the subspace criterion
        t = default_tower(*pem)
        alpha = tuple(t.q**i for i in range(t.m))
        for k in range(1, t.m):
            specs = [CodeSpec(t, alpha, k, 0, ((0, eta),)) for eta in t.nonzero_elements()]
            Gs = np.stack([generator_matrix(spec) for spec in specs])
            verdicts = mc.matrix_is_mrd_many(t, Gs).tolist()
            assert [mc.norm_mrd_condition(spec) for spec in specs] == verdicts

    def test_requires_t0(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 0, ((1, W),))
        with pytest.raises(SpecInvariantError):
            mc.norm_mrd_condition(spec)


class TestHammingClassViaOmega:
    def test_matches_column_conditions_on_sweep(self, f16, alpha4):
        from twistgab.codes import nmds_conditions
        from twistgab.mrdcheck import classify

        for h in (0, 1):
            for eta in f16.nonzero_elements():
                spec = CodeSpec(f16, alpha4, 2, h, ((0, eta),))
                label = mc.hamming_class_via_omega(spec).label
                cond_i, cond_ii, cond_iii = nmds_conditions(f16, generator_matrix(spec))
                if label == "MDS":
                    assert not cond_ii
                elif label in ("AMDS", "NMDS"):
                    assert cond_ii and cond_iii
                    if label == "NMDS":
                        assert cond_i
                else:
                    assert cond_ii and not cond_iii

    def test_gabidulin_is_mds(self, f16, alpha4):
        assert mc.hamming_class_via_omega(CodeSpec(f16, alpha4, 2)).label == "MDS"

    def test_certificates(self, f16, alpha4):
        g = g_of_subset(f16, alpha4, [0, 1], 0, 0)
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, f16.inv(f16.neg(g))),))
        hc = mc.hamming_class_via_omega(spec)
        assert hc.label in ("NMDS", "AMDS", "none")
        assert hc.vanishing_subset is not None


class TestClassifyCrossChecksEveryRoute:
    """twistgab.classify is the stack of one of mrdcheck.classify_many, which
    raises on a disagreement of any two of its four routes."""

    def spec(self, f16, alpha4):
        return CodeSpec(f16, alpha4, 2, 0, ((0, W),))

    def raises_for(self, spec):
        message = re.escape(f"route disagreement for spec {spec.to_json_dict()}:")
        return pytest.raises(ConsistencyError, match=message)

    def test_agreeing_routes_return_the_enumeration_report(self, f16, alpha4):
        spec = self.spec(f16, alpha4)
        assert twistgab.classify(spec) == min_rank_distance(spec)
        ((report, subspace_mrd, hclass),) = mc.classify_many([spec])
        assert report == min_rank_distance(spec)
        assert subspace_mrd == mc.is_mrd_subspace_criterion(spec)
        assert hclass == mc.hamming_class_via_omega(spec)

    def test_mislabelled_omega_class(self, f16, alpha4, monkeypatch):
        hamming_class_many = mc.hamming_class_many

        def mislabelled(*args):
            out = hamming_class_many(*args)
            for hclass in out:
                hclass.label = "none" if hclass.label == "MDS" else "MDS"
            return out

        monkeypatch.setattr(mc, "hamming_class_many", mislabelled)
        spec = self.spec(f16, alpha4)
        with self.raises_for(spec):
            twistgab.classify(spec)

    def test_flipped_subspace_verdict(self, f16, alpha4, monkeypatch):
        matrix_is_mrd_many = mc.matrix_is_mrd_many
        monkeypatch.setattr(mc, "matrix_is_mrd_many", lambda *args: ~matrix_is_mrd_many(*args))
        spec = self.spec(f16, alpha4)
        with self.raises_for(spec):
            twistgab.classify(spec)

    def test_flipped_column_rank_condition(self, f16, alpha4, monkeypatch):
        nmds_conditions_many = codes.nmds_conditions_many

        def flipped(*args):
            out = nmds_conditions_many(*args)
            out[:, 1] = ~out[:, 1]
            return out

        spec = self.spec(f16, alpha4)
        cond_i, cond_ii, cond_iii = codes.nmds_conditions(f16, generator_matrix(spec))
        monkeypatch.setattr(codes, "nmds_conditions_many", flipped)
        with self.raises_for(spec) as info:
            twistgab.classify(spec)
        assert str(info.value).endswith(f"column_ranks={(cond_i, not cond_ii, cond_iii)}")

    def test_omega_caps_come_from_the_tables_budgets(self, f16, alpha4):
        # one channel: the table's budgets cap its own 6 k-subsets and the
        # classification's 6 + 4 k- and (k+1)-subsets for n=4, k=2
        cap = Budgets(subspaces=comb(4, 2) + comb(4, 3) - 1)
        table = mc.KSubsetTable(f16, alpha4, 2, cap)
        with pytest.raises(BudgetExceededError, match="needs 10 steps"):
            mc.hamming_class_many(table, [(0, ((0, W),))])
        table = mc.KSubsetTable(f16, alpha4, 2, Budgets(subspaces=comb(4, 2) + comb(4, 3)))
        mc.hamming_class_many(table, [(0, ((0, W),))])
        with pytest.raises(BudgetExceededError, match="needs 225 steps"):
            mc.omega_two_materialize(mc.KSubsetTable(f16, alpha4, 1, Budgets(224)), 0, 0, 1)
        with pytest.raises(BudgetExceededError, match="needs 10 steps"):
            mc.hamming_class_via_omega(self.spec(f16, alpha4), cap)


def scalar_hamming_class(t, alpha, k, h, twists):
    """The Hamming label and certificates from the scalar g of every subset:
    the first vanishing k-subset, and the first (k+1)-subset all of whose
    k-subsets vanish."""
    n = len(alpha)
    vanishing = []
    for sub in combinations(range(n), k):
        coeffs = AnnihilatorCoeffs.from_span(t, [alpha[i] for i in sub])
        acc = 1
        for tj, eta in twists:
            acc = t.add(acc, t.mul(eta, g_coefficient(coeffs, h, tj)))
        if acc == 0:
            vanishing.append(sub)
    if not vanishing:
        return ("MDS", None, None)
    for sup in combinations(range(n), k + 1):
        if all(sub in vanishing for sub in combinations(sup, k)):
            return ("none", vanishing[0], sup)
    return ("NMDS" if h in (0, k - 1) else "AMDS", vanishing[0], None)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_k_subset_table_matches_its_scalar_oracle(data):
    # the table builds every annihilator and g column for all subsets at once;
    # the scalar annihilator and g_coefficient of each subset are its oracle
    p, e, m = data.draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    n = data.draw(st.integers(2, min(5, m)))
    k = data.draw(st.integers(1, n - 1))
    alpha = draw_independent(t, data, range(1, t.order), n)
    table = mc.KSubsetTable(t, alpha, k)
    assert table.coeffs.shape == (comb(n, k), k + 1)
    for sub, row in zip(table.subsets, table.coeffs.tolist()):
        assert tuple(row) == AnnihilatorCoeffs.from_span(t, [alpha[i] for i in sub]).c
    g = {}
    for h in range(k):
        for tt in range(n - k):
            g[h, tt] = [
                g_coefficient(AnnihilatorCoeffs.from_span(t, [alpha[i] for i in sub]), h, tt)
                for sub in table.subsets
            ]
            assert table.g(h, tt).tolist() == g[h, tt]

    # cases with several h and twist exponents, grouped inside the stack; the
    # first eta is often chosen so that a drawn subset's minor vanishes
    cases = []
    for _ in range(data.draw(st.integers(1, 8))):
        h = data.draw(st.integers(0, k - 1))
        ts = sorted(data.draw(st.sets(st.integers(0, n - k - 1), min_size=1)))
        etas = [data.draw(st.integers(1, t.order - 1)) for _ in ts]
        i = data.draw(st.integers(0, len(table.subsets) - 1))
        rest = 1
        for tj, eta in zip(ts[1:], etas[1:]):
            rest = t.add(rest, t.mul(eta, g[h, tj][i]))
        forced = t.neg(t.mul(rest, t.inv(g[h, ts[0]][i]))) if g[h, ts[0]][i] else 0
        if forced and data.draw(st.booleans()):
            etas[0] = forced
        cases.append((h, tuple(zip(ts, etas))))

    for h, twists in cases:
        ts, etas = [tj for tj, _ in twists], [eta for _, eta in twists]
        scalar = [
            t.add(1, reduce(t.add, [t.mul(eta, g[h, tj][i]) for tj, eta in twists]))
            == 0
            for i in range(len(table.subsets))
        ]
        assert table.vanishing_many(h, ts, [etas]).tolist() == [scalar]
    many = mc.hamming_class_many(table, cases)
    assert [(c.label, c.vanishing_subset, c.failing_superset) for c in many] == [
        scalar_hamming_class(t, alpha, k, h, twists) for h, twists in cases
    ]
    assert many == [mc.hamming_class_many(table, [case])[0] for case in cases]


def test_batched_triangular_inverse_check_still_raises(monkeypatch):
    # an odd-p tower whose negation is broken after the table is built: the
    # recursion then gives e_(1,0) = +c_1^[1], and A_t E = I fails
    t = FieldTower(TowerParams(3, 1, 3))
    table = mc.KSubsetTable(t, (1, 3, 9), 1)
    monkeypatch.setattr(t, "neg_many", lambda a: a)
    with pytest.raises(ConsistencyError, match=re.escape("A_t * E = I")):
        table.g(0, 1)


def test_a_block_across_two_pivot_sets_keeps_the_scalar_order(monkeypatch):
    # [3, 2]_2 = 7 representatives: 4 with pivots (0, 1), 2 with (0, 2) and 1
    # with (1, 2); in 3-row blocks the second block holds the last of the
    # first pivot set and both of the second
    t = WITNESS_TOWERS["F16"]
    alpha = polynomial_basis(t, 3)
    walk = list(scalar_subspaces(3, 2, t.q))
    monkeypatch.setattr(moore, "BLOCK_ROWS", 3)
    blocks = list(mc._subspace_blocks(3, 2, t.q))
    assert [len(b) for b in blocks] == [3, 3, 1]
    assert [tuple(np.argmax(V != 0, axis=1)) for V in blocks[1]] == [(0, 1), (0, 2), (0, 2)]

    # forbidden-set witnesses: the first V of each eta in the scalar walk
    M = moore.moore_matrix(t, alpha, 2)
    second_block = set()
    for h in (0, 1):
        Mht = moore.modified_moore_matrix(t, alpha, 2, h, 2)
        expected = {}
        for i, V in enumerate(walk):
            den = moore.det_fqm(t, scalar_matmul(t, V, M.T))
            num = moore.det_fqm(t, scalar_matmul(t, V, Mht.T))
            if expected.setdefault((t.neg(t.div(num, den)),), V.tolist()) == V.tolist():
                second_block.update({i} & {3, 4, 5})
        assert mc.forbidden_eta_set_one_twist(t, alpha, 2, h, 0).entries == expected
    assert second_block == {3, 4, 5}  # witnesses from both pivot sets of the block

    # the stack walk stops after the block of the last first failure
    Gs = [
        generator_matrix(CodeSpec(t, alpha, 2, h, ((0, eta),)))
        for h in (0, 1) for eta in t.nonzero_elements()
    ]
    first = [
        next((i for i, V in enumerate(walk) if moore.rank_fqm(t, scalar_matmul(t, V, G.T)) != 2), None)
        for G in Gs
    ]
    early = [G for G, i in zip(Gs, first) if i in (0, 1, 2)]  # in the first block
    late = [G for G, i in zip(Gs, first) if i in (4, 5)]  # past the pivot-set boundary
    assert early and late
    walked = spy_blocks(monkeypatch)
    assert not mc.matrix_is_mrd_many(t, np.stack(early)).any()
    assert walked == [3]
    walked.clear()
    assert not mc.matrix_is_mrd_many(t, np.stack(early + late)).any()
    assert walked == [3, 3]


# ---------------------------------------------------------------------------
# the paper's MRD theorems as properties over random small towers, each with a
# proper subfield: F_2^4, F_2^6, F_2^8, F_3^4 and F_4^4

PROPERTY_TOWERS = [(2, 1, 4), (2, 1, 6), (2, 1, 8), (3, 1, 4), (2, 2, 4)]
MODES = ["nested", "scalar", "sum-product-free"]


@cache
def property_tower(params):
    return default_tower(*params)


def span(t, scalars, vectors):
    """The span of ``vectors`` over the subfield whose elements are ``scalars``."""
    out = {0}
    for v in vectors:
        out = {t.add(w, t.mul(a, v)) for w in out for a in scalars}
    return out


def draw_independent(t, data, pool, n):
    """n F_q-independent elements drawn from ``pool``, one past the span of
    the others at a time."""
    fq, out = t.subfield_elements(1), []
    for _ in range(n):
        inside = span(t, fq, out)
        out.append(data.draw(st.sampled_from([x for x in pool if x not in inside])))
    return out


def divisor_chains(m, s):
    """Every strict divisor chain s = s_1 < s_2 < ... of proper divisors of m."""
    longer = [
        chain for d in range(s + 1, m) if m % d == 0 and d % s == 0
        for chain in divisor_chains(m, d)
    ]
    return [(s,)] + [(s, *chain) for chain in longer]


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from(PROPERTY_TOWERS), mode=st.sampled_from(MODES), data=st.data())
def test_every_construction_is_mrd_by_two_routes_it_does_not_call(params, mode, data):
    t = property_tower(params)
    s = data.draw(st.sampled_from([d for d in range(2, t.m) if t.m % d == 0]))
    n = data.draw(st.integers(2, s))
    k = data.draw(st.integers(1, n - 1))
    h = data.draw(st.integers(0, k - 1))
    sub = t.subfield_elements(s)
    if mode == "nested":
        degrees = data.draw(st.sampled_from(
            [c for c in divisor_chains(t.m, s) if len(c) <= n - k]
        ))
        ell = len(degrees)
    else:
        ell = data.draw(st.integers(1, n - k))
    ts = sorted(data.draw(st.sets(st.integers(0, n - k - 1), min_size=ell, max_size=ell)))
    alpha = draw_independent(t, data, sub[1:], n)
    outside = [x for x in t.nonzero_elements() if x not in sub]
    if mode == "nested":
        etas = [
            data.draw(st.sampled_from([
                x for x in t.subfield_elements(s_next) if not t.subfield_membership(x, s_i)
            ]))
            for s_i, s_next in zip(degrees, [*degrees[1:], t.m])
        ]
        chain = SubfieldChain.nested(degrees, etas)
    elif mode == "scalar":
        multipliers = [data.draw(st.sampled_from(sub[1:])) for _ in range(ell - 1)]
        chain = SubfieldChain.scalar_multiple(s, data.draw(st.sampled_from(outside)), multipliers)
    else:
        # the next eta lies in the span W of the others, or outside W + F_(q^s),
        # so no F_(q^s)-combination meets F_(q^s)^*
        etas = []
        for _ in range(ell):
            W = span(t, sub, etas)
            shifted = {t.add(w, c) for w in W for c in sub}
            etas.append(data.draw(st.sampled_from(
                [x for x in t.nonzero_elements() if x in W or x not in shifted]
            )))
        chain = SubfieldChain.sum_product_free(s, etas)
    spec, verified = mc.construct_chain_mrd(t, chain, alpha, k, h, ts)
    assert verified and spec.ell == ell
    assert mc.is_mrd_subspace_criterion(spec)
    assert min_rank_distance(spec).is_mrd


@settings(max_examples=40, deadline=None)
@given(params=st.sampled_from(PROPERTY_TOWERS), data=st.data())
def test_norm_condition_implies_mrd(params, data):
    t = property_tower(params)
    n = data.draw(st.integers(2, min(4, t.m)))
    k = data.draw(st.integers(1, n - 1))
    h = data.draw(st.integers(0, k - 1))
    alpha = draw_independent(t, data, t.nonzero_elements(), n)
    eta = data.draw(st.sampled_from(t.nonzero_elements()))
    spec = CodeSpec(t, alpha, k, h, ((0, eta),))
    if mc.norm_mrd_condition(spec):
        assert mc.is_mrd_subspace_criterion(spec)
        assert min_rank_distance(spec).is_mrd


# every (p, e, m) with p in {2, 3, 5}, e in {1, 2}, m >= 2 and q^m <= 256
CLASSIFY_TOWERS = [
    (p, e, m) for p in (2, 3, 5) for e in (1, 2) for m in range(2, 9) if p ** (e * m) <= 256
]


@settings(max_examples=200, deadline=None)
@given(params=st.sampled_from(CLASSIFY_TOWERS), data=st.data())
def test_classify_routes_agree_over_random_towers(params, data):
    # classify raises ConsistencyError unless all four routes agree, so an
    # Omega witness must come with a non-MRD code and the subspace criterion
    # must equal the enumeration; eta_1 often makes a drawn k-subset vanish
    p, e, m = params
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    n = data.draw(st.sampled_from(range(min(m, 4), 1, -1)))  # shrinks to the largest n
    k = data.draw(st.integers(1, n - 1))
    h = data.draw(st.integers(0, k - 1))
    alpha = draw_independent(t, data, range(1, t.order), n)
    ts = sorted(data.draw(st.sets(st.integers(0, n - k - 1), min_size=1, max_size=2)))
    etas = [data.draw(st.integers(1, t.order - 1)) for _ in ts]
    table = mc.KSubsetTable(t, alpha, k)
    i = data.draw(st.integers(0, len(table.subsets) - 1))
    rest = reduce(t.add, [t.mul(eta, table.g(h, tj)[i]) for tj, eta in zip(ts[1:], etas[1:])], 1)
    g0 = int(table.g(h, ts[0])[i])
    if g0 and rest and data.draw(st.booleans()):
        etas[0] = t.neg(t.mul(rest, t.inv(g0)))
    spec = CodeSpec(t, alpha, k, h, tuple(zip(ts, etas)))
    assert twistgab.classify(spec) == min_rank_distance(spec)


def test_classify_many_stacks_the_generators_once(monkeypatch):
    # the enumeration, the column ranks and the subspace criterion all read
    # the one (S, k, n) stack that classify_many builds
    stack, calls = codes._generator_stack, []
    monkeypatch.setattr(codes, "_generator_stack", lambda specs: calls.append(len(specs)) or stack(specs))
    t = default_tower(2, 1, 4)
    alpha = (1, 2, 4)
    specs = [CodeSpec(t, alpha, 2, h, ((0, eta),)) for h in (0, 1) for eta in (3, 7)]
    results = mc.classify_many(specs)
    assert calls == [4]
    assert [rep for rep, _, _ in results] == [min_rank_distance(s) for s in specs]


@settings(max_examples=60, deadline=None)
@given(params=st.sampled_from(CLASSIFY_TOWERS), data=st.data())
def test_minor_walk_matches_the_subspace_criterion_over_random_towers(params, data):
    # both determinant routes read one walk of twisted minors: the expansion
    # route must agree with the rank route for one and two twists, and for one
    # twist eta^(-1) lies in the ratio set exactly when the code is not MRD;
    # half the one-twist draws take eta from the ratio set
    p, e, m = params
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    n = data.draw(st.sampled_from(range(min(m, 4), 1, -1)))  # shrinks to the largest n
    k = data.draw(st.integers(1, n - 1))
    h = data.draw(st.integers(0, k - 1))
    alpha = draw_independent(t, data, range(1, t.order), n)
    ts = sorted(data.draw(st.sets(st.integers(0, n - k - 1), min_size=1, max_size=2)))
    etas = [data.draw(st.integers(1, t.order - 1)) for _ in ts]
    if len(ts) == 1:
        ratio = mc.forbidden_eta_set_one_twist(t, alpha, k, h, ts[0])
        forbidden = sorted(v for (v,) in ratio.entries if v)
        if forbidden and data.draw(st.booleans()):
            etas[0] = t.inv(data.draw(st.sampled_from(forbidden)))
    spec = CodeSpec(t, tuple(alpha), k, h, tuple(zip(ts, etas)))
    mrd = mc.is_mrd_subspace_criterion(spec)
    ok, violation = mc.mrd_membership_multi(spec)
    assert ok == mrd and (violation is None) == mrd
    if len(ts) == 1:
        assert (t.inv_many(np.int64(etas[0])) in ratio) == (not mrd)
