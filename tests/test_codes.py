import functools
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import polynomial_basis
from oracles import (
    DISTANCE_TOWERS,
    scalar_class_messages,
    scalar_codewords,
    scalar_column_conditions,
    scalar_is_nmds,
    tower_from,
)

from twistgab import codes, moore, mrdcheck
from twistgab.codes import (
    CodeSpec,
    _class_segments,
    _min_weights_of_matrix,
    encode,
    generator_matrix,
    min_rank_distance,
    nmds_conditions,
    nmds_conditions_many,
)
from twistgab.budget import Budgets
from twistgab.errors import BudgetExceededError, SpecInvariantError
from twistgab.fieldtower import FieldTower, TowerParams, default_tower
from twistgab.mrdcheck import KSubsetTable, classify, classify_many, omega_one

W = 2

GOLDEN = json.loads((Path(__file__).parent / "golden_sweep_q2_m4_k2.json").read_text())


class TestCodeSpecInvariants:
    def test_gabidulin_ok(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2)
        assert not spec.twists and spec.n == 4 and spec.ell == 0

    def test_k_bounds(self, f16, alpha4):
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 4)
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 0)

    def test_n_bounded_by_m(self, f256, f16):
        # five independent points need m >= 5
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, (1, 2, 4, 8, 3), 2)

    def test_alpha_must_be_independent(self, f16):
        with pytest.raises(SpecInvariantError, match="independent"):
            CodeSpec(f16, (1, W, f16.add(1, W)), 1)

    def test_alpha_rank_is_computed_once_per_tower_and_alpha(self, monkeypatch):
        # a fresh tower, so no earlier test has filled its memo
        t = FieldTower(TowerParams(2, 1, 4))
        calls = []
        fq_rank = t.fq_rank
        monkeypatch.setattr(t, "fq_rank", lambda vec: calls.append(tuple(vec)) or fq_rank(vec))
        alpha, dependent = (1, 2, 4, 8), (1, W, t.add(1, W))
        specs = [CodeSpec(t, alpha, 2, h, ((0, eta),)) for h in (0, 1) for eta in range(1, 16)]
        KSubsetTable(t, alpha, 2)
        assert len(specs) == 30 and calls == [alpha]
        # a dependent alpha raises the same error for every spec and the table
        for h in (0, 1, 0):
            with pytest.raises(SpecInvariantError, match="independent"):
                CodeSpec(t, dependent, 1, 0, ((0, h + 1),))
        with pytest.raises(SpecInvariantError, match="independent"):
            KSubsetTable(t, dependent, 1)
        assert calls == [alpha, dependent]

    def test_eta_zero_rejected(self, f16, alpha4):
        with pytest.raises(SpecInvariantError, match="non-zero"):
            CodeSpec(f16, alpha4, 2, 0, ((0, 0),))

    def test_h_range(self, f16, alpha4):
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 2, 2, ((0, W),))
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 2, None, ((0, W),))

    def test_twist_exponent_ordering_and_range(self, f16, alpha4):
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 2, 0, ((1, W), (0, W)))
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 2, 0, ((2, W),))  # t <= n-k-1 = 1

    def test_h_without_twists(self, f16, alpha4):
        with pytest.raises(SpecInvariantError):
            CodeSpec(f16, alpha4, 2, 0, ())

    def test_json_roundtrip(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 1, ((0, W), (1, f16.pow_(W, 5))))
        again = CodeSpec.from_json_dict(f16, spec.to_json_dict())
        assert again == spec

    # every field by fieldtower.exact_int: a bool or float is refused, never truncated
    NOT_INTEGERS = [True, False, 1.0, 0.7, np.float64(2.0), np.bool_(True)]

    @pytest.mark.parametrize("k", NOT_INTEGERS)
    def test_k_must_be_an_integer(self, f16, alpha4, k):
        # k = True used to write "k": true in a report, k = 2.0 "k": 2.0
        with pytest.raises(ValueError, match="expected an integer"):
            CodeSpec(f16, alpha4, k)

    @pytest.mark.parametrize("h", NOT_INTEGERS)
    def test_h_must_be_an_integer(self, f16, alpha4, h):
        # h = 0.7 used to pass the range check 0 <= h <= k - 1
        with pytest.raises(ValueError, match="expected an integer"):
            CodeSpec(f16, alpha4, 2, h, ((0, W),))

    @pytest.mark.parametrize("t", NOT_INTEGERS)
    def test_twist_exponent_must_be_an_integer(self, f16, alpha4, t):
        with pytest.raises(ValueError, match="expected an integer"):
            CodeSpec(f16, alpha4, 2, 0, ((t, W),))

    @pytest.mark.parametrize("a", NOT_INTEGERS)
    def test_alpha_entries_must_be_integers(self, f16, alpha4, a):
        # alpha entries used to be truncated by int()
        with pytest.raises(ValueError, match="expected an integer"):
            CodeSpec(f16, (*alpha4[:3], a), 2)

    @pytest.mark.parametrize("eta", NOT_INTEGERS)
    def test_eta_must_be_an_integer(self, f16, alpha4, eta):
        with pytest.raises(ValueError, match="expected an integer"):
            CodeSpec(f16, alpha4, 2, 0, ((0, eta),))

    @pytest.mark.parametrize("a", [-8, 16, 99])
    def test_alpha_entries_must_be_elements(self, f16, a):
        # alpha = (1, 2, 4, -8) used to build a generator holding -6
        with pytest.raises(ValueError, match=r"alpha entries must lie in \[0, 16\)"):
            CodeSpec(f16, (1, 2, 4, a), 2)

    @pytest.mark.parametrize("eta", [-1, 16, 99])
    def test_eta_must_be_an_element(self, f16, alpha4, eta):
        # eta = 99 used to die with a bare IndexError in the generator build
        with pytest.raises(ValueError, match=r"eta entries must lie in \[0, 16\)"):
            CodeSpec(f16, alpha4, 2, 0, ((0, eta),))

    def test_numpy_integers_are_kept_as_int(self, f16, alpha4):
        spec = CodeSpec(f16, np.array(alpha4, dtype=np.uint16), np.int64(2), np.uint8(1),
                        ((np.int32(0), np.uint16(W)),))
        assert spec == CodeSpec(f16, alpha4, 2, 1, ((0, W),))
        fields = (*spec.alpha, spec.k, spec.h, *(x for tw in spec.twists for x in tw))
        assert all(type(x) is int for x in fields)
        assert json.dumps(spec.to_json_dict()) == json.dumps(
            CodeSpec(f16, alpha4, 2, 1, ((0, W),)).to_json_dict()
        )


class TestGeneratorMatrix:
    def test_gabidulin_is_moore(self, f16, alpha4):
        G = generator_matrix(CodeSpec(f16, alpha4, 2))
        assert (G == moore.moore_matrix(f16, alpha4, 2)).all()

    def test_one_twist_row(self, f16, alpha4):
        # k = 2, h = 0, t = 0: row 0 is alpha^[0] + eta * alpha^[k+t] = alpha + w alpha^[2]
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, W),))
        G = generator_matrix(spec)
        expect = [f16.add(a, f16.mul(W, f16.frobenius(a, 2))) for a in alpha4]
        assert list(G[0]) == expect
        assert list(G[1]) == [f16.frobenius(a, 1) for a in alpha4]

    def test_multi_twist_row(self, f16, alpha4):
        e1, e2 = W, f16.pow_(W, 6)
        spec = CodeSpec(f16, alpha4, 2, 1, ((0, e1), (1, e2)))
        G = generator_matrix(spec)
        expect = [
            f16.add(
                f16.frobenius(a, 1),
                f16.add(
                    f16.mul(e1, f16.frobenius(a, 2)), f16.mul(e2, f16.frobenius(a, 3))
                ),
            )
            for a in alpha4
        ]
        assert list(G[1]) == expect

    def test_built_once_per_spec_and_read_only(self, f16, alpha4):
        e1, e2 = W, f16.pow_(W, 6)
        spec = CodeSpec(f16, alpha4, 2, 1, ((0, e1), (1, e2)))
        G = generator_matrix(spec)
        assert G is generator_matrix(spec)
        fresh = moore.moore_matrix(f16, alpha4, 2)
        for tj, ej in spec.twists:
            for j, a in enumerate(alpha4):
                fresh[1, j] = f16.add(int(fresh[1, j]), f16.mul(ej, f16.frobenius(a, 2 + tj)))
        assert (G == fresh).all()
        with pytest.raises(ValueError, match="read-only"):
            G[0, 0] = 1
        # the matrix lives in its spec, not in a cache of the process
        assert generator_matrix(CodeSpec(f16, alpha4, 2, 1, spec.twists)) is not G


class TestGeneratorStack:
    """The generators of a stack are built in one broadcast and stored in
    their specs; each equals the scalar build of its own spec."""

    @staticmethod
    def scalar_generator(spec):
        t, k = spec.tower, spec.k
        G = [[t.frobenius(a, i) for a in spec.alpha] for i in range(k)]
        for tj, ej in spec.twists:
            G[spec.h] = [t.add(g, t.mul(ej, t.frobenius(a, k + tj)))
                         for g, a in zip(G[spec.h], spec.alpha)]
        return G

    def mixed(self, t, alpha):
        other = alpha[1:] + alpha[:1]
        return [
            CodeSpec(t, alpha, 2, 1, ((0, W), (1, 7))),
            CodeSpec(t, alpha, 2),
            CodeSpec(t, other, 2, 0, ((1, 3),)),
            CodeSpec(t, other, 2),
            CodeSpec(t, alpha, 2, 1, ((1, 9),)),
            CodeSpec(t, other, 2, 0, ((0, 5), (1, 1))),
        ]

    @pytest.mark.parametrize("fresh", [(0, 1, 2, 3, 4, 5), (1, 4), ()])
    def test_mixed_stack_equals_the_scalar_build(self, f16, alpha4, fresh):
        specs = self.mixed(f16, alpha4)
        before = {i: generator_matrix(s) for i, s in enumerate(specs) if i not in fresh}
        Gs = codes._generator_stack(specs)
        assert Gs.tolist() == [self.scalar_generator(s) for s in specs]
        for i, (spec, G) in enumerate(zip(specs, Gs)):
            cached = generator_matrix(spec)
            assert cached is before.get(i, cached) and (cached == G).all()
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1
        # the stack is a copy: writing to it leaves every spec's generator alone
        Gs[:] = 0
        assert [generator_matrix(s).tolist() for s in specs] == [
            self.scalar_generator(s) for s in specs
        ]


class TestEncode:
    def test_zero_message(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, W),))
        assert (encode(spec, [0, 0]) == 0).all()

    def test_unit_vectors_reproduce_rows(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 1, ((0, W), (1, 7)))
        G = generator_matrix(spec)
        for s in range(2):
            msg = [0, 0]
            msg[s] = 1
            assert (encode(spec, msg) == G[s]).all()

    def test_unit_at_h_carries_twists(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, W),))
        got = encode(spec, [1, 0])
        expect = [f16.add(a, f16.mul(W, f16.frobenius(a, 2))) for a in alpha4]
        assert list(got) == expect

    def test_wrong_length(self, f16, alpha4):
        with pytest.raises(ValueError):
            encode(CodeSpec(f16, alpha4, 2), [1])

    @pytest.mark.parametrize("msg, match", [
        ([1.5, 0], "expected an integer"), (np.array([1.0, 0.0]), "integer entries"),
        ([True, 0], "expected an integer, got True"), ([0, np.bool_(True)], "expected an integer"),
        ([-1, 0], r"\[0, 16\)"), ([16, 0], r"\[0, 16\)"), (np.array([0, -3]), r"\[0, 16\)"),
    ])
    def test_message_entries_must_be_elements(self, f16, alpha4, msg, match):
        # [1.5, 0] and [True, 0] used to encode as [1, 0], and -1 to wrap
        # through the log table
        with pytest.raises(ValueError, match=match):
            encode(CodeSpec(f16, alpha4, 2, 0, ((0, W),)), msg)

    def test_numpy_integer_messages_are_accepted(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, W),))
        for msg in (np.array([3, 5], dtype=np.uint16), [np.int64(3), 5]):
            assert encode(spec, msg).tolist() == encode(spec, [3, 5]).tolist()

    def test_linear_combination(self, f16, alpha4, rng):
        spec = CodeSpec(f16, alpha4, 2, 0, ((1, 9),))
        G = generator_matrix(spec)
        for _ in range(20):
            msg = [f16.random_element(rng), f16.random_element(rng)]
            expect = [
                f16.add(f16.mul(msg[0], int(G[0, j])), f16.mul(msg[1], int(G[1, j])))
                for j in range(4)
            ]
            assert list(encode(spec, msg)) == expect


class TestDistances:
    def test_gabidulin_is_mrd(self, f16_any):
        t = f16_any
        alpha = tuple(t.pow_(2, i) for i in range(4))
        for k in (1, 2, 3):
            rep = min_rank_distance(CodeSpec(t, alpha, k))
            assert rep.d_rank == 4 - k + 1 and rep.is_mrd

    def test_forbidden_eta_drops_rank_distance(self, f16, alpha4):
        o1 = omega_one(KSubsetTable(f16, alpha4, 2), 0, 0)
        bad = next(v for (v,) in o1.entries if v != 0)
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, f16.inv(bad)),))
        rep = min_rank_distance(spec)
        assert rep.d_rank <= 2  # below the n-k+1 = 3 optimum

    def test_hamming_at_least_rank(self, f16, alpha4, rng):
        for _ in range(10):
            eta = f16.random_nonzero(rng)
            spec = CodeSpec(f16, alpha4, 2, rng.randrange(2), ((0, eta),))
            rep = min_rank_distance(spec)
            assert rep.d_rank <= rep.d_hamming <= 3

    def test_gabidulin_hamming(self, f16, alpha4):
        assert min_rank_distance(CodeSpec(f16, alpha4, 2)).d_hamming == 3

    def test_budget_exceeded(self, f16, alpha4):
        with pytest.raises(BudgetExceededError, match="brute force"):
            min_rank_distance(CodeSpec(f16, alpha4, 2), Budgets(codewords=5))

    def test_witness_has_minimum_weight(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 0, ((0, W),))
        rep = min_rank_distance(spec)
        assert f16.fq_rank(rep.rank_witness) == rep.d_rank
        assert sum(1 for c in rep.hamming_witness if c) == rep.d_hamming


def scalar_min_weights(t, G):
    """Oracle for _min_weights_of_matrix: one codeword at a time, scalar fq_rank."""
    best_r = best_h = G.shape[1] + 1
    wit_r = wit_h = None
    for word in scalar_codewords(t, G, scalar_class_messages(t.order, G.shape[0])):
        wr = t.fq_rank(word)
        if wr < best_r:
            best_r, wit_r = wr, tuple(word)
        wh = sum(1 for c in word if c)
        if wh < best_h:
            best_h, wit_h = wh, tuple(word)
    return best_r, wit_r, best_h, wit_h


ENUM_TOWERS = {
    "F16": default_tower(2, 1, 4),
    "F9": default_tower(3, 1, 2),
    "F4<=F16": FieldTower(
        TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))
    ),
    "F27": default_tower(3, 1, 3),
}


@pytest.mark.parametrize("name", sorted(ENUM_TOWERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_enumeration_matches_scalar_oracle(name, data):
    t = ENUM_TOWERS[name]
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(k, 5))
    entries = st.lists(st.integers(0, t.order - 1), min_size=n, max_size=n)
    matrices = st.lists(entries, min_size=k, max_size=k)
    # a stack of up to three generators shares one enumeration
    Gs = np.array(data.draw(st.lists(matrices, min_size=1, max_size=3)), dtype=np.int64)
    assume(all(moore.rank_fqm(t, G) == k for G in Gs))
    got = _min_weights_of_matrix(t, Gs, 1 << 24)
    assert got == [scalar_min_weights(t, G) for G in Gs]
    assert all(type(c) is int for each in got for c in each[1] + each[3])


@pytest.mark.parametrize("name", sorted(ENUM_TOWERS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_encode_matches_scalar_encoder(name, data):
    t = ENUM_TOWERS[name]
    n = data.draw(st.integers(2, t.m))
    k = data.draw(st.integers(1, n - 1))
    y = t.from_coords([0, 1] + [0] * (t.m - 2))
    twists = ((0, data.draw(st.integers(1, t.order - 1))),)
    spec = CodeSpec(t, tuple(t.pow_(y, i) for i in range(n)), k, 0, twists)
    msg = data.draw(st.lists(st.integers(0, t.order - 1), min_size=k, max_size=k))
    (expect,) = scalar_codewords(t, generator_matrix(spec), [msg])
    assert encode(spec, msg).tolist() == expect


def test_blocks_split_inside_a_lead_keep_order_and_first_witness(f16, alpha4, monkeypatch):
    monkeypatch.setattr(moore, "BLOCK_ROWS", 3)
    for order, k in ((16, 2), (16, 3), (9, 3), (4, 1)):
        blocks = list(moore.counter_blocks((k,), _class_segments(k), order))
        assert all(1 <= len(b) <= 3 for b in blocks)
        assert np.concatenate(blocks).tolist() == list(scalar_class_messages(order, k))
    # minimum-weight codewords recur in later blocks; the witness is the first
    for spec in (CodeSpec(f16, alpha4, 2), CodeSpec(f16, alpha4, 2, 0, ((0, W),))):
        G = generator_matrix(spec)
        for M in (G, moore.nullspace_fqm(f16, G)):
            assert _min_weights_of_matrix(f16, M[None], 1 << 24) == [scalar_min_weights(f16, M)]
        # the code and its dual (both 2 x 4) as one stack: blocks split mid-stack
        Ms = np.stack([G, moore.nullspace_fqm(f16, G)])
        assert _min_weights_of_matrix(f16, Ms, 1 << 24) == [scalar_min_weights(f16, M) for M in Ms]


class TestNmdsConditions:
    def test_mds_generator(self, f16, alpha4):
        G = generator_matrix(CodeSpec(f16, alpha4, 2))
        assert nmds_conditions(f16, G) == (True, False, True)

    def test_zero_column_breaks_cond_i(self, f16):
        G = np.array([[1, 0, W, 4], [0, 0, 1, W]], dtype=np.int64)
        cond_i, _, _ = nmds_conditions(f16, G)
        assert not cond_i

    def test_rank_deficient_rejected(self, f16, alpha4):
        G = moore.moore_matrix(f16, alpha4, 2)
        G[1] = G[0]
        with pytest.raises(SpecInvariantError):
            nmds_conditions(f16, G)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_column_conditions_match_the_scalar_oracle(data):
    # random towers (odd p and e = 2 among them), k from 1 to n - 1, and
    # generators with many dependent column subsets: entries from a small
    # pool, so rank-deficient ones occur and the first of them is named
    p, e, m = data.draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, data.draw(st.integers(0, p ** (e * m) - 1)))
    n = data.draw(st.integers(2, min(5, m)))
    k = data.draw(st.sampled_from(sorted({1, n - 1, data.draw(st.integers(1, n - 1))})))
    pool = data.draw(st.sampled_from([t.order, min(t.order, 3)]))
    entries = st.lists(st.integers(0, pool - 1), min_size=n, max_size=n)
    Gs = np.array(data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                     min_size=1, max_size=4)), dtype=np.int64)
    deficient = [i for i, G in enumerate(Gs) if moore.rank_fqm(t, G) < k]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moore, "BLOCK_ROWS", data.draw(st.sampled_from([1, 7, 1 << 14])))
        if deficient:
            with pytest.raises(SpecInvariantError, match=f"matrix {deficient[0]} of the stack"):
                nmds_conditions_many(t, Gs)
        else:
            got = [tuple(row) for row in nmds_conditions_many(t, Gs).tolist()]
            assert got == [scalar_column_conditions(t, G) for G in Gs]


def test_column_conditions_of_an_empty_stack(f16):
    got = nmds_conditions_many(f16, np.zeros((0, 2, 4), dtype=np.int64))
    assert got.dtype == bool and got.shape == (0, 3)


def test_every_stack_route_takes_an_empty_stack(f16):
    # the spec-stack routes used to raise "a stack of specs needs at least one spec"
    assert codes.min_rank_distance_many([]) == []
    assert classify_many([]) == []
    got = mrdcheck.matrix_is_mrd_many(f16, np.zeros((0, 2, 4), dtype=np.int64))
    assert got.dtype == bool and got.shape == (0,)


class TestClassify:
    def test_gabidulin(self, f16, alpha4):
        rep = classify(CodeSpec(f16, alpha4, 2))
        assert rep.is_mrd and rep.is_mds and not rep.is_amds and not rep.is_nmds

    def test_dual_decides_nmds_when_d_h_is_n_minus_k(self, f16, alpha4, monkeypatch):
        # a zero column puts a weight-1 word in the dual: d_H = n - k, not NMDS
        G = np.array([[1, 0, 1, 1], [0, 0, 1, W]], dtype=np.int64)
        monkeypatch.setattr(codes, "generator_matrix", lambda spec: G)
        # the enumeration and the column ranks: the Omega route reads alpha, not this G
        rep = codes.min_rank_distance(CodeSpec(f16, alpha4, 2))
        assert rep.d_hamming == 2 and rep.is_amds and not rep.is_nmds
        i, ii, iii = nmds_conditions(f16, G)
        assert (not ii, ii and iii, i and ii and iii) == (rep.is_mds, rep.is_amds, rep.is_nmds)

    def test_invalid_spec_surfaces(self, f16, alpha4):
        with pytest.raises(SpecInvariantError):
            classify(CodeSpec(f16, alpha4, 2, 0, ((0, 0),)))

    def test_golden_sweep(self, f16, alpha4):
        # frozen output of the brute-force enumeration, regenerated only on
        # purpose; every classify() run must keep matching it bit for bit
        assert [f16.elements_to_json(a) for a in alpha4] == GOLDEN["alpha"]
        for entry in GOLDEN["entries"]:
            eta = f16.element_from_json(entry["eta"])
            spec = CodeSpec(f16, alpha4, 2, entry["h"], ((0, eta),))
            rep = classify(spec)
            for key in ("d_rank", "d_hamming", "is_mrd", "is_mds", "is_amds", "is_nmds"):
                assert getattr(rep, key) == entry[key], (entry, key)

    def test_no_eta_is_mrd_in_golden(self):
        # q = 2 norm obstruction: the one-twist t=0 family is never MRD here
        assert not any(e["is_mrd"] for e in GOLDEN["entries"])
        assert sum(e["is_mds"] for e in GOLDEN["entries"]) == 18
        assert sum(e["is_nmds"] for e in GOLDEN["entries"]) == 12

    def test_amds_regime_reaches_n_minus_k(self, f16, alpha4):
        # an eta with eta^(-1) in Omega_1 whose (k+1)-subsets all contain a
        # good k-subset must land exactly on d_H = n - k
        from twistgab.mrdcheck import hamming_class_via_omega

        found = 0
        for eta in f16.nonzero_elements():
            spec = CodeSpec(f16, alpha4, 2, 0, ((0, eta),))
            if (f16.inv(eta),) in omega_one(KSubsetTable(f16, alpha4, 2), 0, 0):
                if hamming_class_via_omega(spec).label in ("AMDS", "NMDS"):
                    assert min_rank_distance(spec).d_hamming == 2
                    found += 1
        assert found > 0

    def test_sweep_statistics_representation_independent(self, f16, f16_alt):
        # verdict counts over the full eta sweep cannot depend on the modulus
        def counts(t):
            alpha = tuple(t.pow_(2, i) for i in range(4))
            mrd = mds = nmds = 0
            for h in (0, 1):
                for eta in t.nonzero_elements():
                    rep = min_rank_distance(CodeSpec(t, alpha, 2, h, ((0, eta),)))
                    mrd += rep.is_mrd
                    mds += rep.is_mds
                    nmds += rep.is_nmds
            return mrd, mds, nmds

        assert counts(f16) == counts(f16_alt) == (0, 18, 12)


def grid_specs(t, n, k, hs, ts):
    """Every spec of a sweep grid over alpha = (1, y, ..., y^(n-1)): each h, then
    every eta tuple in counting order, as ``twistgab classify --sweep`` lists them."""
    alpha = polynomial_basis(t, n)
    return [
        CodeSpec(t, alpha, k, h, tuple(zip(ts, etas)))
        for h in hs
        for etas in product(t.nonzero_elements(), repeat=len(ts))
    ]


STACK_GRIDS = {
    # 62 specs, 12 of them MRD, Hamming labels MDS and NMDS
    "F32-n4-k2": (default_tower(2, 1, 5), 4, 2, (0, 1), (0,)),
    "F16-n4-k2-ts01": (default_tower(2, 1, 4), 4, 2, (0, 1), (0, 1)),
    "F16-n4-k1-ts01": (default_tower(2, 1, 4), 4, 1, (0,), (0, 1)),
}


@functools.cache
def grid_nmds_oracle(name):
    t, n, k, hs, ts = STACK_GRIDS[name]
    return [scalar_is_nmds(t, generator_matrix(s)) for s in grid_specs(t, n, k, hs, ts)]


class TestStacks:
    """Every route over a stack of specs equals the stack of one per spec."""

    @pytest.mark.parametrize("block_rows", [1 << 14, 3, 7])
    @pytest.mark.parametrize("name", sorted(STACK_GRIDS))
    def test_stack_equals_the_stack_of_one(self, monkeypatch, name, block_rows):
        t, n, k, hs, ts = STACK_GRIDS[name]
        specs = grid_specs(t, n, k, hs, ts)
        alone = [classify(spec) for spec in specs]  # default blocks
        Gs = np.stack([generator_matrix(spec) for spec in specs])
        conditions = [nmds_conditions(t, G) for G in Gs]
        subspace = [mrdcheck.is_mrd_subspace_criterion(spec) for spec in specs]
        # blocks of 3 or 7 rows split class blocks and spec chunks mid-stack
        monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
        stacked = classify_many(specs)
        for spec, (got, _, _), want in zip(specs, stacked, alone):
            assert got == want, spec  # dataclass equality: every field and both witnesses
        assert [tuple(row) for row in nmds_conditions_many(t, Gs).tolist()] == conditions
        assert [subspace_mrd for _, subspace_mrd, _ in stacked] == subspace

    @pytest.mark.parametrize("block_rows", [1 << 14, 1, 7])
    @pytest.mark.parametrize("name", sorted(STACK_GRIDS))
    def test_column_conditions_equal_the_scalar_oracle(self, monkeypatch, name, block_rows):
        t, n, k, hs, ts = STACK_GRIDS[name]
        Gs = np.stack([generator_matrix(s) for s in grid_specs(t, n, k, hs, ts)])
        want = [scalar_column_conditions(t, G) for G in Gs]
        monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
        assert [tuple(row) for row in nmds_conditions_many(t, Gs).tolist()] == want

    def test_a_sweep_classify_runs_two_eliminations(self, tmp_path, monkeypatch, capsys):
        # the column ranks of the whole stack in one, the subspace criterion
        # (every spec non-MRD within one block) in the other
        from twistgab import cli

        eliminate, calls = FieldTower._eliminate_many, []

        def spy(self, M):
            calls.append(np.shape(M))
            return eliminate(self, M)

        monkeypatch.setattr(FieldTower, "_eliminate_many", spy)
        (tmp_path / "field.json").write_text(json.dumps({"p": 2, "e": 1, "m": 6}))
        units = [[int(i == j) for j in range(6)] for i in range(5)]
        grid = {"alpha": units, "k": 2, "h": [0, 1], "ts": [0],
                "etas": [[[0, 1, 0, 0, 0, 0]], [[1, 1, 0, 1, 0, 0]]]}
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        argv = ["classify", "--field", tmp_path / "field.json", "--sweep", tmp_path / "grid.json"]
        assert cli.main([str(a) for a in argv]) == 0
        assert len(json.loads(capsys.readouterr().out)["entries"]) == 4
        assert calls[0] == (4 * (5 + 10 + 10), 2, 3) and len(calls) == 2

    @pytest.mark.parametrize("block_rows", [1 << 14, 3, 7])
    @pytest.mark.parametrize("name", sorted(STACK_GRIDS))
    def test_nmds_flags_equal_the_walk_of_every_dual(self, monkeypatch, name, block_rows):
        t, n, k, hs, ts = STACK_GRIDS[name]
        specs = grid_specs(t, n, k, hs, ts)
        monkeypatch.setattr(moore, "BLOCK_ROWS", block_rows)
        got = [rep.is_nmds for rep, _, _ in classify_many(specs)]
        assert got == grid_nmds_oracle(name)

    # F32-n4-k2: 12 specs with d_H = n - k (all NMDS) among 50 MDS ones
    @pytest.mark.parametrize("grid, walked", [("F32-n4-k2", 12), (None, 0)],
                             ids=["F32-n4-k2", "gabidulin"])
    def test_only_duals_of_codes_with_d_h_n_minus_k_are_walked(self, monkeypatch, grid, walked):
        f32 = default_tower(2, 1, 5)
        plain = [CodeSpec(f32, polynomial_basis(f32, 4), 2)]
        specs = grid_specs(*STACK_GRIDS[grid]) if grid else plain
        calls, min_weights = [], codes._min_weights_of_matrix

        def spy(tower, Gs, *args):
            calls.append(np.array(Gs))
            return min_weights(tower, Gs, *args)

        monkeypatch.setattr(codes, "_min_weights_of_matrix", spy)
        reports = [report for report, _, _ in classify_many(specs)]
        t, n, k = specs[0].tower, specs[0].n, specs[0].k
        near = [generator_matrix(s) for s, r in zip(specs, reports) if r.d_hamming == n - k]
        assert len(near) == walked and sum(r.is_nmds for r in reports) == walked
        assert calls[0].tolist() == [generator_matrix(s).tolist() for s in specs]
        if walked:
            assert calls[1].tolist() == [moore.nullspace_fqm(t, G).tolist() for G in near]
        assert len(calls) == 1 + bool(walked)

    def test_f32_grid_verdicts_and_scalar_witnesses(self):
        t, n, k, hs, ts = STACK_GRIDS["F32-n4-k2"]
        specs = grid_specs(t, n, k, hs, ts)
        reports = [report for report, _, _ in classify_many(specs)]
        assert len(specs) == 62 and sum(r.is_mrd for r in reports) == 12
        assert {r.is_nmds for r in reports} == {True, False}
        for spec, rep in zip(specs, reports):
            d_r, wit_r, d_h, wit_h = scalar_min_weights(t, generator_matrix(spec))
            assert (rep.d_rank, rep.rank_witness, rep.d_hamming, rep.hamming_witness) == (
                d_r, wit_r, d_h, wit_h
            )

    def test_a_stack_needs_one_tower_n_and_k(self, f16, alpha4):
        with pytest.raises(ValueError, match="share"):
            classify_many([CodeSpec(f16, alpha4, 2), CodeSpec(f16, alpha4, 1)])
        with pytest.raises(ValueError, match="share"):
            classify_many([CodeSpec(f16, alpha4, 2), CodeSpec(f16, alpha4[:3], 2)])
        # one tower, n and k, but two alphas: the k-subset table reads the first
        with pytest.raises(ValueError, match="share alpha"):
            classify_many([CodeSpec(f16, alpha4, 2), CodeSpec(f16, alpha4[::-1], 2)])

    def test_rank_deficient_generator_is_named_by_its_place(self, f16, alpha4):
        G = generator_matrix(CodeSpec(f16, alpha4, 2))
        bad = G.copy()
        bad[1] = bad[0]
        with pytest.raises(SpecInvariantError, match="matrix 2 of the stack"):
            nmds_conditions_many(f16, np.stack([G, G, bad]))

    def test_stacked_codeword_cap_counts_every_generator(self, f16, alpha4):
        # 17 message classes per [4, 2] code over F_16
        G = generator_matrix(CodeSpec(f16, alpha4, 2))
        assert len(_min_weights_of_matrix(f16, np.stack([G, G]), 34)) == 2
        with pytest.raises(BudgetExceededError):
            _min_weights_of_matrix(f16, np.stack([G, G]), 33)
