import json
import re
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import polynomial_basis
from oracles import DISTANCE_TOWERS, scalar_codewords, scalar_is_mrd, tower_from, unpack_vector
import twistgab
from twistgab import covering as cov
from twistgab import moore
from twistgab.budget import Budgets
from twistgab.cli import main
from twistgab.codes import CodeSpec, encode, generator_matrix, min_rank_distance
from twistgab.errors import BudgetExceededError, ConsistencyError, SpecInvariantError
from twistgab.fieldtower import FieldTower, TowerParams, default_tower
from twistgab.mrdcheck import gaussian_binomial

W = 2

# one-twist t = 0 codes (tower, n, k, eta) small enough to check every vector
SCAN_SPECS = {
    "F16": (default_tower(2, 1, 4), 3, 1, W),
    "F4<=F16": (
        FieldTower(TowerParams(2, 2, 2, base_modulus=(1, 1, 1), top_modulus=(2, 1, 1))), 2, 1, 3
    ),
    "F9": (default_tower(3, 1, 2), 2, 1, 5),
    "F27": (default_tower(3, 1, 3), 3, 1, 5),
}

# walked against the scan only, since the per-vector scan test would visit all
# 2^16 vectors: rho = 3, so its walk reaches layer 3, whose prefixes of length 2
# split across blocks
WALK_SPECS = {**SCAN_SPECS, "F16-n4-k1": (default_tower(2, 1, 4), 4, 1, W)}


def one_twist_spec(name):
    t, n, k, eta = WALK_SPECS[name]
    y = t.from_coords([0, 1] + [0] * (t.m - 2))
    return CodeSpec(t, tuple(t.pow_(y, i) for i in range(n)), k, 0, ((0, eta),))


def scalar_syndrome(t, H, u):
    """H.u^T with scalar field operations, entries packed base q^m."""
    s = 0
    for row in H:
        acc = 0
        for h, c in zip(row, u):
            acc = t.add(acc, t.mul(int(h), c))
        s = s * t.order + acc
    return s


def _scan_blocks(spec):
    """(index, syndrome, rank) of every ambient vector, in chunks of whole
    prefixes: the whole-space scan that the leader walk replaced, kept as its
    oracle.  Component j is digit j of the index base q^m; the syndrome H.u^T
    packs its n-k entries base q^m, a dense coset id; rank(u) = rank(prefix) +
    [u_0 not in span(prefix)], read off the prefix's span-membership grid."""
    t, n, N, q = spec.tower, spec.n, spec.tower.order, spec.tower.q
    H = moore.nullspace_fqm(t, generator_matrix(spec))
    x = np.arange(N, dtype=np.int64)
    tables = [[t.mul_many(np.int64(h), x) for h in row] for row in H]  # h_ij * c
    multiples = t.mul_many(x[:, None], np.arange(q, dtype=np.int64))  # [c, a] = a * c
    prefixes, step = N ** (n - 1), max(1, moore.BLOCK_ROWS // N)
    for lo in range(0, prefixes, step):
        pre = np.arange(lo, min(lo + step, prefixes), dtype=np.int64)
        comps = [pre // N**j % N for j in range(n - 1)]
        span = np.zeros((len(pre), 1), dtype=np.int64)
        for c in comps:
            span = t.add_many(span[:, :, None], multiples[c][:, None, :]).reshape(len(pre), -1)
        member = np.zeros((len(pre), N), dtype=bool)
        member[np.arange(len(pre))[:, None], span] = True
        prefix_rank = np.searchsorted(q ** np.arange(n), np.count_nonzero(member, axis=1))
        rank = prefix_rank[:, None] + ~member
        synd = np.zeros_like(rank)
        for row in tables:
            s_pre = np.zeros_like(pre)
            for tab, c in zip(row[1:], comps):
                s_pre = t.add_many(s_pre, tab[c])
            synd = synd * N + t.add_many(s_pre[:, None], row[0])
        yield np.arange(lo * N, (lo + len(pre)) * N), synd.ravel(), rank.ravel()


def _scan(spec):
    """Per coset, min(rank * q^(mn) + index) over all q^(mn) vectors: the
    walk's ``best`` array, from the whole-space scan."""
    total = spec.tower.order**spec.n
    coset_count = spec.tower.order ** (spec.n - spec.k)
    best = np.full(coset_count, (spec.n + 1) * total, dtype=np.int64)
    hits = np.zeros(coset_count, dtype=np.int64)
    for index, synd, rank in _scan_blocks(spec):
        hits += np.bincount(synd, minlength=coset_count)
        np.minimum.at(best, synd, rank * total + index)
    assert len(hits) == coset_count and hits.all()
    return best


@pytest.fixture
def c1_spec(f16, alpha4):
    return CodeSpec(f16, alpha4, 2, 0, ((0, W),))


class TestDistanceToCode:
    def test_codeword_distance_zero(self, f16, c1_spec, rng):
        msg = [f16.random_element(rng), f16.random_element(rng)]
        assert cov.distance_to_code(c1_spec, list(encode(c1_spec, msg))) == 0

    def test_rank_one_offset(self, f16, c1_spec, rng):
        msg = [f16.random_element(rng), f16.random_element(rng)]
        u = list(encode(c1_spec, msg))
        u[2] = f16.add(u[2], 1)  # rank-1 error
        assert cov.distance_to_code(c1_spec, u) <= 1

    def test_family_vector_reaches_n_minus_k(self, f16, c1_spec):
        u = cov.deep_hole_family(c1_spec, 1, "x^[k]")
        assert cov.distance_to_code(c1_spec, list(u)) == 2

    def test_vector_farther_than_the_minimum_distance(self, f16, alpha4):
        # d_R = 2 < rho = 3: the codewords of rank 2 must not count as u + c
        spec = CodeSpec(f16, alpha4, 1, 0, ((1, 1),))
        u = [9, 2, 1, 0]
        assert min_rank_distance(spec).d_rank == 2
        assert cov.distance_to_code(spec, u) == scalar_distance(spec, u) == 3

    def test_wrong_length_is_rejected(self, c1_spec):
        for u in ([1, 2, 3], [1, 2, 3, 4, 5]):
            with pytest.raises(ValueError, match="length"):
                cov.distance_to_code(c1_spec, u)

    @pytest.mark.parametrize("u", [[16, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 255]])
    def test_entry_outside_the_field_is_rejected(self, c1_spec, u):
        # -1 used to wrap around to a distance of 1, 16 to raise IndexError
        rep = cov.covering_radius_exhaustive(c1_spec)
        calls = [
            lambda: cov.contains(c1_spec, u),
            lambda: cov.distance_to_code(c1_spec, u),
            lambda: cov.is_deep_hole(c1_spec, u, rep),
            lambda: cov.deep_hole_via_extension(c1_spec, u),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"\[0, 16\)"):
                call()


class TestCoveringBounds:
    def test_single_twist_t0_exact(self, f16, c1_spec):
        assert cov.covering_bounds(c1_spec) == (2, 2)

    def test_two_twists_contiguous(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 1, 0, ((0, W), (1, W)))
        assert cov.covering_bounds(spec) == (2, 3)

    def test_three_twists_contiguous(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 1, 0, ((0, W), (1, W), (2, W)))
        assert cov.covering_bounds(spec) == (1, 3)

    def test_non_contiguous_generic(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 1, 0, ((1, W),))
        assert cov.covering_bounds(spec) == (0, 3)

    def test_gabidulin_generic(self, f16, alpha4):
        assert cov.covering_bounds(CodeSpec(f16, alpha4, 2)) == (0, 2)


class TestExhaustiveCoveringRadius:
    def test_c1_t0_is_n_minus_k(self, f16, alpha4):
        for k in (1, 2):
            spec = CodeSpec(f16, alpha4, k, 0, ((0, W),))
            rep = cov.covering_radius_exhaustive(spec)
            assert rep.rho == 4 - k
            assert rep.rho_method == "exhaustive"

    def test_proper_code_has_positive_radius(self, f16, alpha4):
        rep = cov.covering_radius_exhaustive(CodeSpec(f16, alpha4, 3))
        assert rep.rho > 0

    def test_c2_within_bounds(self, f16, alpha4, rng):
        for _ in range(3):
            e1, e2 = f16.random_nonzero(rng), f16.random_nonzero(rng)
            spec = CodeSpec(f16, alpha4, 1, 0, ((0, e1), (1, e2)))
            rep = cov.covering_radius_exhaustive(spec)
            assert 2 <= rep.rho <= 3

    def test_representation_independent(self, f16_any):
        t = f16_any
        alpha = tuple(t.pow_(2, i) for i in range(4))
        spec = CodeSpec(t, alpha, 2, 0, ((0, 2),))
        assert cov.covering_radius_exhaustive(spec).rho == 2

    def test_reported_deep_holes_are_deep(self, f16, c1_spec):
        rep = cov.covering_radius_exhaustive(c1_spec)
        assert rep.deep_holes
        for u in rep.deep_holes[:4]:
            assert cov.distance_to_code(c1_spec, list(u)) == rep.rho

    def test_one_witness_per_maximal_coset(self, f16, c1_spec):
        rep = cov.covering_radius_exhaustive(c1_spec)
        H = moore.nullspace_fqm(f16, generator_matrix(c1_spec))
        syndromes = set()
        for u in rep.deep_holes:
            s = tuple(
                int(moore.matmul(f16, np.array([u]), H.T)[0, j]) for j in range(2)
            )
            assert s not in syndromes
            syndromes.add(s)
        assert len(rep.deep_holes) == min(cov.MAX_DEEP_HOLES, rep.maximal_coset_count)

    @pytest.mark.parametrize("name", sorted(SCAN_SPECS))
    def test_scan_matches_scalar_syndrome_and_rank(self, name):
        spec = one_twist_spec(name)
        t, n, N = spec.tower, spec.n, spec.tower.order
        H = moore.nullspace_fqm(t, generator_matrix(spec))
        blocks = list(_scan_blocks(spec))
        visited = np.concatenate([index for index, _, _ in blocks])
        assert np.array_equal(np.sort(visited), np.arange(N**n))
        for index, synd, rank in blocks:
            assert len(index) == len(synd) == len(rank)
            for i, s, r in zip(index, synd, rank):
                u = unpack_vector(N, n, int(i))
                assert s == scalar_syndrome(t, H, u)
                assert r == t.fq_rank(u)

    def test_scan_paths_agree(self, f16, c1_spec, rng):
        # the oracle scan against the scalar route (H.u^T, fq_rank), and the
        # walk against distance_to_code, on the n = 4, k = 2 code, sampled vectors
        N, n = f16.order, c1_spec.n
        H = moore.nullspace_fqm(f16, generator_matrix(c1_spec))
        synd, rank = np.empty((2, N**n), dtype=np.int64)
        for index, s, r in _scan_blocks(c1_spec):
            synd[index], rank[index] = s, r
        coset_min = cov._walk(c1_spec, Budgets()) // N**n
        assert len(coset_min) == N ** (n - c1_spec.k)
        for j, i in enumerate(rng.sample(range(N**n), 400)):
            u = unpack_vector(N, n, i)
            assert synd[i] == scalar_syndrome(f16, H, u)
            assert rank[i] == f16.fq_rank(u)
            if j < 40:
                assert coset_min[synd[i]] == cov.distance_to_code(c1_spec, u)

    @pytest.mark.parametrize("name", ["F4<=F16", "F9"])
    def test_coset_minimum_is_distance_to_code(self, name):
        spec = one_twist_spec(name)
        N, n = spec.tower.order, spec.n
        coset_min = cov._walk(spec, Budgets()) // N**n
        for index, synd, _ in _scan_blocks(spec):
            for i, s in zip(index, synd):
                u = unpack_vector(N, n, int(i))
                assert coset_min[s] == cov.distance_to_code(spec, u)

    @pytest.mark.parametrize("name", sorted(WALK_SPECS))
    @pytest.mark.parametrize("chunk", [None, 1, "5N+3"])
    def test_walk_matches_scan(self, name, chunk, monkeypatch):
        spec = one_twist_spec(name)
        oracle = _scan(spec)
        if chunk is not None:
            chunk = 1 if chunk == 1 else 5 * spec.tower.order + 3
            monkeypatch.setattr(moore, "BLOCK_ROWS", chunk)
        assert np.array_equal(cov._walk(spec, Budgets()), oracle)

    def test_layer_sizes_partition_the_space(self):
        for q, m, n in ((2, 4, 4), (4, 3, 3), (3, 2, 2), (2, 3, 5)):
            sizes = [cov._layer_size(q, m, n, w) for w in range(n + 1)]
            assert sum(sizes) == q ** (m * n)
            assert sizes[min(m, n) + 1:] == [0] * (n - min(m, n))

    def test_spoiled_layer_count_raises_consistency_error(self, c1_spec, monkeypatch):
        # the walk's count of [n, 2]_q is spoiled; _subspace_blocks keeps its own
        binomial = cov.gaussian_binomial
        monkeypatch.setattr(cov, "gaussian_binomial", lambda n, k, q: binomial(n, k, q) + (k == 2))
        with pytest.raises(ConsistencyError, match="rank-2 layer"):
            cov.covering_radius_exhaustive(c1_spec)

    def test_spoiled_row_table_count_raises_consistency_error(self, c1_spec, monkeypatch):
        # layer 1 is the table of c * b over the [n, 1]_q rows b: its count of
        # [n, 1]_q is spoiled; _subspace_blocks keeps its own
        binomial = cov.gaussian_binomial
        monkeypatch.setattr(cov, "gaussian_binomial", lambda n, k, q: binomial(n, k, q) + (k == 1))
        with pytest.raises(ConsistencyError, match="rank-1 layer"):
            cov.covering_radius_exhaustive(c1_spec)

    def test_rho_outside_theorem_window_raises_and_exits_4(self, c1_spec, tmp_path, capsys,
                                                           monkeypatch):
        # one coset moved to rank n - k + 1, past the window [n - k, n - k] of
        # one twist at t = 0, through the library and through cli.main
        walk = cov._walk

        def raised(spec, budgets):
            best = walk(spec, budgets)
            total = spec.tower.order**spec.n
            best[-1] = (spec.n - spec.k + 1) * total + best[-1] % total
            return best

        monkeypatch.setattr(cov, "_walk", raised)
        with pytest.raises(ConsistencyError, match="violates theorem bounds"):
            cov.covering_radius_exhaustive(c1_spec)
        field, code = tmp_path / "field.json", tmp_path / "code.json"
        field.write_text(json.dumps({"p": 2, "e": 1, "m": 4}))
        code.write_text(json.dumps({
            "alpha": [[int(i == j) for i in range(4)] for j in range(4)],
            "k": 2, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}],
        }))
        assert main(["covering", "--field", str(field), "--code", str(code)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("internal consistency failure: exhaustive rho = 3 violates")

    @pytest.mark.parametrize("name", ["F16-n4", "F27", "F4<=F16", "F9"])
    def test_chunk_split_leaves_report_unchanged(self, name, f16, alpha4, monkeypatch):
        if name == "F16-n4":
            spec = CodeSpec(f16, alpha4, 2, 0, ((0, W),))
        else:
            spec = one_twist_spec(name)
        N = spec.tower.order
        default = cov.covering_radius_exhaustive(spec)
        # one prefix per chunk, then five prefixes with a ragged last chunk
        for chunk in (1, 5 * N + 3):
            monkeypatch.setattr(moore, "BLOCK_ROWS", chunk)
            assert cov.covering_radius_exhaustive(spec) == default

    def test_uncovered_coset_raises_consistency_error(self, monkeypatch):
        spec = one_twist_spec("F27")
        H = moore.nullspace_fqm(spec.tower, generator_matrix(spec))
        # a repeated parity row reaches only q^m of the q^(2m) syndromes
        monkeypatch.setattr(cov.moore, "nullspace_fqm", lambda t, G: H[[0, 0]])
        with pytest.raises(ConsistencyError, match="cosets"):
            cov.covering_radius_exhaustive(spec)

    def test_odd_characteristic_scan(self, f9):
        spec = CodeSpec(f9, (1, 3), 1, 0, ((0, 5),))
        rep = cov.covering_radius_exhaustive(spec)
        assert rep.rho == 1 == spec.n - spec.k

    def test_three_twists_exhaustive_within_bounds(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 1, 0, ((0, 2), (1, 7), (2, 11)))
        rep = cov.covering_radius_exhaustive(spec)
        assert rep.lower_bound == 1 and rep.upper_bound == 3
        assert 1 <= rep.rho <= 3

    def test_budget_exceeded_returns_bounds_only(self, f16, c1_spec):
        tight = Budgets(ambient=100)
        rep = cov.covering_radius_exhaustive(c1_spec, tight)
        assert rep.rho is None and rep.rho_method is None
        assert (rep.lower_bound, rep.upper_bound) == (2, 2)

    def test_ambient_cap_counts_the_vectors_visited(self, c1_spec):
        # rho = 2 on F_16, n = 4, k = 2: the walk visits the layers of rank 0, 1
        # and 2, far fewer than the 2^16 vectors of the space
        visited = sum(cov._layer_size(2, 4, 4, w) for w in range(3))
        assert visited == 1 + 15 * 15 + 35 * 15 * 14 < 16**4
        exact = cov.covering_radius_exhaustive(c1_spec)
        assert cov.covering_radius_exhaustive(c1_spec, Budgets(ambient=visited)) == exact
        assert cov.covering_radius_exhaustive(c1_spec, Budgets(ambient=visited - 1)).rho is None

    def test_subspaces_cap_does_not_bound_the_walk(self, c1_spec):
        rep = cov.covering_radius_exhaustive(c1_spec, Budgets(subspaces=1))
        assert rep == cov.covering_radius_exhaustive(c1_spec)

    def test_json_provenance(self, f16, c1_spec):
        rep = cov.covering_radius_exhaustive(c1_spec)
        d = rep.to_json_dict(f16)
        assert d["rho"]["method"] == "exhaustive"
        assert d["lower_bound"]["method"] == "theorem-bound"


class TestPastTheWholeSpaceCap:
    # q^(mn) > 2^24: the whole-space scan gave theorem bounds only here

    def test_one_twist_f256_n4_k2(self, f256):
        spec = CodeSpec(f256, polynomial_basis(f256, 4), 2, 0, ((0, 2),))
        assert f256.order**4 > Budgets().ambient
        rep = cov.covering_radius_exhaustive(spec)
        assert (rep.rho, rep.rho_method) == (2, "exhaustive")
        assert rep.maximal_coset_count == 61710 and rep.coset_count == 1 << 16
        assert len(rep.deep_holes) == cov.MAX_DEEP_HOLES
        for u in rep.deep_holes:
            assert cov.deep_hole_via_extension(spec, u)
        for u in rep.deep_holes[:3]:
            assert cov.distance_to_code(spec, u) == 2

    def test_two_twists_exact_within_bounds(self):
        t = default_tower(2, 1, 7)
        spec = CodeSpec(t, polynomial_basis(t, 4), 2, 1, ((0, 2), (1, 5)))
        assert t.order**4 > Budgets().ambient
        rep = cov.covering_radius_exhaustive(spec)
        assert rep.rho_method == "exhaustive"
        assert cov.covering_bounds(spec) == (1, 2)
        assert 1 <= rep.rho <= 2
        for u in rep.deep_holes[:3]:
            assert cov.distance_to_code(spec, u) == rep.rho

    def test_packed_key_overflow_gives_bounds_only(self):
        # (n + 1) * q^(mn) = 8 * 2^70 does not fit in int64
        t = default_tower(2, 1, 10)
        spec = CodeSpec(t, polynomial_basis(t, 7), 6, 0, ((0, 2),))
        rep = cov.covering_radius_exhaustive(spec)
        assert rep.rho is None and rep.rho_method is None
        assert (rep.lower_bound, rep.upper_bound) == (1, 1)


class TestDeepHoles:
    def test_codeword_never_deep(self, f16, c1_spec, rng):
        rep = cov.covering_radius_exhaustive(c1_spec)
        msg = [f16.random_element(rng), f16.random_element(rng)]
        assert not cov.is_deep_hole(c1_spec, list(encode(c1_spec, msg)), rep)

    def test_family_vectors_are_deep(self, f16, c1_spec, rng):
        rep = cov.covering_radius_exhaustive(c1_spec)
        for g in (1, W, f16.pow_(W, 9)):
            for flavor in ("x^[k]", "x^[h]"):
                f = [f16.random_element(rng) for _ in range(2)]
                u = cov.deep_hole_family(c1_spec, g, flavor, f)
                assert cov.is_deep_hole(c1_spec, list(u), rep)

    def test_flipped_extension_route_is_a_consistency_error(self, f16, c1_spec, monkeypatch):
        # is_deep_hole_many holds the rule: a row outside the code must get the
        # same verdict from the extension route as from the distance route
        extension = cov.deep_hole_via_extension_many
        monkeypatch.setattr(
            cov, "deep_hole_via_extension_many", lambda spec, U, budgets: ~extension(spec, U, budgets)
        )
        u = [int(c) for c in cov.deep_hole_family(c1_spec, 1, "x^[k]")]
        with pytest.raises(ConsistencyError, match=re.escape(f"disagree on u = {u}")):
            twistgab.is_deep_hole(c1_spec, u)
        # a codeword never reaches the extension route, which would refuse it
        assert not twistgab.is_deep_hole(c1_spec, [int(c) for c in encode(c1_spec, [1, 0])])

    def test_rows_outside_the_family_skip_the_extension_route(self, f16, alpha4, monkeypatch):
        def refused(*args):
            raise AssertionError("the extension route covers one twist at t = 0 only")

        monkeypatch.setattr(cov, "deep_hole_via_extension_many", refused)
        spec = CodeSpec(f16, alpha4, 2, 0, ((1, W),))
        rep = cov.covering_radius_exhaustive(spec)
        U = [[1, 0, 0, 0], [0, 1, 2, 3]]
        assert cov.is_deep_hole_many(spec, U, rep).tolist() == [
            cov.distance_to_code(spec, u) == rep.rho for u in U
        ]

    def test_empty_stack_under_a_bounds_only_report(self, c1_spec):
        rep = cov.covering_radius_exhaustive(c1_spec, Budgets(ambient=100))
        assert rep.rho is None
        got = cov.is_deep_hole_many(c1_spec, np.zeros((0, 4), dtype=np.int64), rep)
        assert got.dtype == bool and got.tolist() == []
        with pytest.raises(BudgetExceededError, match="covering radius unknown"):
            cov.is_deep_hole_many(c1_spec, [[1, 0, 0, 0]], rep)

    def test_extension_iff(self, f16, c1_spec, rng):
        rep = cov.covering_radius_exhaustive(c1_spec)
        checked = 0
        while checked < 40:
            u = [f16.random_element(rng) for _ in range(4)]
            if cov.contains(c1_spec, u):
                continue
            assert cov.deep_hole_via_extension(c1_spec, u) == cov.is_deep_hole(
                c1_spec, u, rep
            )
            checked += 1

    def test_moore_row_extension_is_gabidulin(self, f16, alpha4, c1_spec):
        # u = alpha^[k] extends the code to the (k+1)-dimensional Gabidulin code
        u = [f16.frobenius(a, 2) for a in alpha4]
        assert cov.deep_hole_via_extension(c1_spec, u)
        assert cov.is_deep_hole(c1_spec, u)

    def test_rank_one_offset_not_deep(self, f16, c1_spec):
        u = list(encode(c1_spec, [1, W]))
        u[0] = f16.add(u[0], 1)
        assert not cov.deep_hole_via_extension(c1_spec, u)

    def test_codeword_rejected_by_extension(self, f16, c1_spec):
        u = list(encode(c1_spec, [1, 0]))
        with pytest.raises(SpecInvariantError):
            cov.deep_hole_via_extension(c1_spec, u)

    def test_extension_requires_t0(self, f16, alpha4):
        spec = CodeSpec(f16, alpha4, 2, 0, ((1, W),))
        with pytest.raises(SpecInvariantError):
            cov.deep_hole_via_extension(spec, [1, 0, 0, 0])

    def test_family_g_zero_rejected(self, f16, c1_spec):
        with pytest.raises(SpecInvariantError):
            cov.deep_hole_family(c1_spec, 0, "x^[k]")

    @pytest.mark.parametrize("g, f", [(-1, ()), (16, ()), (1, (0, 16)), (1, (-1, 0))])
    def test_family_element_outside_the_field_is_rejected(self, c1_spec, g, f):
        # g = -1 used to wrap through the log table, g = 16 to raise IndexError
        with pytest.raises(ValueError, match=r"\[0, 16\)"):
            cov.deep_hole_family(c1_spec, g, "x^[k]", f)

    @pytest.mark.parametrize("g, f", [(0.5, ()), (1.0, ()), (True, ()), (1, (1.5, 0)),
                                      (1, (0, True)), (1, (np.float64(1), 0))])
    def test_family_non_integer_is_refused(self, c1_spec, g, f):
        # g = 0.5 used to pass the g == 0 check and give the zero codeword,
        # and a coefficient 1.5 of f was read as 1
        with pytest.raises(ValueError, match="expected an integer"):
            cov.deep_hole_family(c1_spec, g, "x^[k]", f)

    def test_family_takes_numpy_integers(self, c1_spec):
        got = cov.deep_hole_family(c1_spec, np.uint16(3), "x^[h]", np.array([5, 0]))
        assert got.tolist() == cov.deep_hole_family(c1_spec, 3, "x^[h]", (5, 0)).tolist()

    def test_family_never_in_code(self, f16, c1_spec, rng):
        for _ in range(20):
            g = f16.random_nonzero(rng)
            f = [f16.random_element(rng) for _ in range(2)]
            flavor = rng.choice(["x^[k]", "x^[h]"])
            u = cov.deep_hole_family(c1_spec, g, flavor, f)
            assert not cov.contains(c1_spec, list(u))


class TestMonotonicity:
    def test_subcode_has_larger_radius(self, f16, alpha4):
        # rows of the k=2 Gabidulin generator span a subcode of the k=3 one
        small = CodeSpec(f16, alpha4, 2)
        large = CodeSpec(f16, alpha4, 3)
        r_small = cov.covering_radius_exhaustive(small).rho
        r_large = cov.covering_radius_exhaustive(large).rho
        assert r_small >= r_large


# (p, e, m, n) with q^(mn) <= 2^12 and 2 <= n <= m
SMALL_AMBIENTS = [
    (2, 1, 2, 2), (2, 1, 3, 2), (2, 1, 3, 3), (2, 1, 4, 2), (2, 1, 4, 3), (2, 1, 5, 2),
    (2, 1, 6, 2), (2, 2, 2, 2), (2, 2, 3, 2), (3, 1, 2, 2), (3, 1, 3, 2), (5, 1, 2, 2),
]


@st.composite
def small_twisted_codes(draw):
    p, e, m, n = draw(st.sampled_from(SMALL_AMBIENTS))
    t = tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))
    alpha = draw(st.lists(st.integers(1, t.order - 1), min_size=n, max_size=n))
    assume(t.fq_rank(alpha) == n)
    k = draw(st.integers(1, n - 1))
    ell = draw(st.integers(1, min(2, n - k)))
    ts = sorted(draw(st.sets(st.integers(0, n - k - 1), min_size=ell, max_size=ell)))
    etas = draw(st.lists(st.integers(1, t.order - 1), min_size=ell, max_size=ell))
    return CodeSpec(t, tuple(alpha), k, draw(st.integers(0, k - 1)), tuple(zip(ts, etas)))


@settings(max_examples=40, deadline=None)
@given(spec=small_twisted_codes())
def test_covering_report_over_random_towers(spec):
    t, n, k, N = spec.tower, spec.n, spec.k, spec.tower.order
    total = N**n
    rep = cov.covering_radius_exhaustive(spec)
    lo, hi = cov.covering_bounds(spec)
    assert lo <= rep.rho <= hi
    if spec.ell == 1 and spec.twists[0][0] == 0:
        assert rep.rho == n - k
    # scalar brute force: per coset, the least rank * q^(mn) + index
    H = moore.nullspace_fqm(t, generator_matrix(spec))
    brute = [(n + 1) * total] * N ** (n - k)
    for i in range(total):
        u = unpack_vector(N, n, i)
        s = scalar_syndrome(t, H, u)
        brute[s] = min(brute[s], t.fq_rank(u) * total + i)
    assert cov._walk(spec, Budgets()).tolist() == brute
    assert rep.maximal_coset_count == sum(key // total == rep.rho for key in brute)
    assert len(rep.deep_holes) == min(cov.MAX_DEEP_HOLES, rep.maximal_coset_count)
    indices = [sum(c * N**j for j, c in enumerate(u)) for u in rep.deep_holes]
    assert indices == sorted(set(indices))
    assert len({scalar_syndrome(t, H, u) for u in rep.deep_holes}) == len(rep.deep_holes)
    for u in rep.deep_holes:
        assert cov.distance_to_code(spec, list(u)) == rep.rho


def scalar_distance(spec, u):
    """Oracle for distance_to_code: every message, the scalar encoder, scalar fq_rank."""
    t = spec.tower
    words = scalar_codewords(t, generator_matrix(spec), iproduct(range(t.order), repeat=spec.k))
    return min(t.fq_rank([t.sub(a, c) for a, c in zip(u, word)]) for word in words)


@st.composite
def small_codes(draw, one_twist=False):
    """A code with q^(mk) <= 2^12 and n <= 4: plain or with one or two twists,
    or with ``one_twist`` a single twist at t = 0."""
    p, e, m = draw(st.sampled_from(DISTANCE_TOWERS))
    t = tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))
    n = draw(st.integers(2, min(m, 4)))
    alpha = draw(st.lists(st.integers(1, t.order - 1), min_size=n, max_size=n))
    assume(t.fq_rank(alpha) == n)
    k = draw(st.integers(1, max(k for k in range(1, n) if t.order**k <= 1 << 12)))
    ell = 1 if one_twist else draw(st.integers(0, min(2, n - k)))
    exponents = st.sets(st.integers(0, n - k - 1), min_size=ell, max_size=ell)
    ts = [0] if one_twist else sorted(draw(exponents))
    etas = draw(st.lists(st.integers(1, t.order - 1), min_size=ell, max_size=ell))
    h = draw(st.integers(0, k - 1)) if ell else None
    return CodeSpec(t, tuple(alpha), k, h, tuple(zip(ts, etas)))


def codewords_of(spec):
    entries = st.integers(0, spec.tower.order - 1)
    msgs = st.lists(entries, min_size=spec.k, max_size=spec.k)
    return msgs.map(lambda msg: [int(c) for c in encode(spec, msg)])


def random_vectors(spec):
    return st.lists(st.integers(0, spec.tower.order - 1), min_size=spec.n, max_size=spec.n)


@st.composite
def distance_cases(draw):
    """A small code and a vector u that is a codeword or drawn at random."""
    spec = draw(small_codes())
    return spec, draw(st.one_of(codewords_of(spec), random_vectors(spec)))


@st.composite
def stack_cases(draw, one_twist=False):
    """A small code and a stack of 2 to 6 vectors in random order: a codeword,
    a random vector and up to four more of either kind."""
    spec = draw(small_codes(one_twist))
    either = st.one_of(codewords_of(spec), random_vectors(spec))
    stack = [draw(codewords_of(spec)), draw(random_vectors(spec))]
    stack += draw(st.lists(either, max_size=4))
    return spec, draw(st.permutations(stack))


@st.composite
def near_codewords(draw, spec):
    """A codeword plus a rank-1 error a * b, b a non-zero vector over F_q: at
    distance at most 1 from the code."""
    t = spec.tower
    c = draw(codewords_of(spec))
    a = draw(st.integers(1, t.order - 1))
    b = draw(st.lists(st.integers(0, t.q - 1), min_size=spec.n, max_size=spec.n).filter(any))
    return [t.add(ci, t.mul(a, bi)) for ci, bi in zip(c, b)]


def in_code(spec, u):
    """Oracle for contains: the scalar elimination's rank of [G; u] is k."""
    return moore.rank_fqm(spec.tower, np.vstack([generator_matrix(spec), u])) == spec.k


BLOCK_ROWS = pytest.mark.parametrize("block_rows", [None, 3], ids=["default-blocks", "3-row-blocks"])


@BLOCK_ROWS
@settings(max_examples=25, deadline=None)
@given(case=distance_cases())
def test_distance_to_code_matches_scalar_oracle(block_rows, case):
    # with 3-row blocks the q^(mk) classes led by u span several blocks, and
    # unless 3 divides q^(mk) the last of them also holds classes led by G
    spec, u = case
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(moore, "BLOCK_ROWS", block_rows)
        assert cov.distance_to_code(spec, u) == scalar_distance(spec, u)


@BLOCK_ROWS
@settings(max_examples=25, deadline=None)
@given(case=stack_cases())
def test_batched_distance_and_contains_match_scalar_oracles(block_rows, case):
    # one stack of codewords and non-codewords; with 3-row blocks the
    # S * q^(mk) sums u_i + c come one vector u_i at a time against a block of
    # three codewords, and three vectors at a time against a block of one
    spec, U = case
    expected = [in_code(spec, u) for u in U]
    assume(any(expected) and not all(expected))
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(moore, "BLOCK_ROWS", block_rows)
        assert cov.contains_many(spec, U).tolist() == expected
        assert cov.distance_to_code_many(spec, U).tolist() == [scalar_distance(spec, u) for u in U]


@BLOCK_ROWS
@settings(max_examples=25, deadline=None)
@given(case=stack_cases(one_twist=True), data=st.data())
def test_batched_extension_matches_matrix_is_mrd_per_matrix(block_rows, case, data):
    # two deep-hole family vectors, the non-codewords of the stack and, last, a
    # vector at distance 1; with 3-row blocks the stack of at least four walks
    # the representatives in chunks of three vectors.  The oracle is the scalar
    # per-V subspace criterion on each [G; u], independent of the block walk
    spec, U = case
    families = [list(cov.deep_hole_family(spec, 1, flavor)) for flavor in ("x^[k]", "x^[h]")]
    near = data.draw(near_codewords(spec))
    assume(not in_code(spec, near))  # a rank-1 error may be a codeword of a non-MRD code
    U = families + [u for u in U if not in_code(spec, u)] + [near]
    G = generator_matrix(spec)
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(moore, "BLOCK_ROWS", block_rows)
        got = cov.deep_hole_via_extension_many(spec, U).tolist()
    assert got == [scalar_is_mrd(spec.tower, np.vstack([G, u])) for u in U]
    assert got[:2] == [True, True] and got[-1] == (spec.n - spec.k == 1)


@settings(max_examples=25, deadline=None)
@given(spec=small_codes(one_twist=True), data=st.data())
def test_deep_hole_family_vectors_are_deep_by_distance_over_random_towers(spec, data):
    # the one-twist t = 0 code has covering radius n - k, so a deep hole lies
    # at rank distance n - k from every codeword
    t = spec.tower
    g = data.draw(st.integers(1, t.order - 1))
    f = data.draw(st.lists(st.integers(0, t.order - 1), min_size=spec.k, max_size=spec.k))
    for flavor in ("x^[k]", "x^[h]"):
        u = cov.deep_hole_family(spec, g, flavor, f)
        assert cov.distance_to_code(spec, list(u)) == spec.n - spec.k


@pytest.mark.parametrize("U", [[[0.5, 0, 0, 0]], [[1.9, 0, 0, 0]], [[1.0, 0, 0, 0]],
                               [[True, False, False, False]], [["1", 0, 0, 0]]])
def test_non_integer_vectors_are_refused(c1_spec, U):
    # 0.5 used to truncate to the codeword 0 (contains_many said True), and
    # the distance route weighed [1.9, 0, 0, 0] as [1, 0, 0, 0]; every entry
    # of a list passes fieldtower.exact_int, and an array needs an integer dtype
    rep = cov.covering_radius_exhaustive(c1_spec)
    for route in (cov.contains_many, cov.distance_to_code_many,
                  cov.deep_hole_via_extension_many, lambda s, U: cov.is_deep_hole_many(s, U, rep)):
        with pytest.raises(ValueError, match="expected an integer"):
            route(c1_spec, U)
        with pytest.raises(ValueError, match="integer entries, got dtype"):
            route(c1_spec, np.array(U))


@pytest.mark.parametrize("U", [[[True, 0, 0, 0]], [[1, 0, 0, np.bool_(False)]],
                               [np.array([1, 0, 0, 0]), [0, 0, 0, True]]])
def test_a_bool_among_integers_is_refused(c1_spec, U):
    # numpy reads a bool among ints as an int, so [[True, 0, 0, 0]] used to be [[1, 0, 0, 0]]
    rep = cov.covering_radius_exhaustive(c1_spec)
    for route in (cov.contains_many, cov.distance_to_code_many,
                  cov.deep_hole_via_extension_many, lambda s, U: cov.is_deep_hole_many(s, U, rep)):
        with pytest.raises(ValueError, match="expected an integer"):
            route(c1_spec, U)


def test_empty_stacks_of_any_dtype_are_accepted(c1_spec):
    for dtype in (np.float64, bool, np.uint16):
        U = np.zeros((0, 4), dtype=dtype)
        assert cov.contains_many(c1_spec, U).shape == (0,)
        assert cov.distance_to_code_many(c1_spec, U).tolist() == []
        assert cov.is_deep_hole_many(c1_spec, U).tolist() == []


def test_batched_routes_check_every_row(c1_spec):
    codeword = [int(c) for c in encode(c1_spec, [1, 0])]
    with pytest.raises(SpecInvariantError, match="lies in the code"):
        cov.deep_hole_via_extension_many(c1_spec, [[1, 0, 0, 0], codeword])
    for U in ([1, 0, 0, 0], [[1, 2, 3]]):
        with pytest.raises(ValueError, match="length"):
            cov.distance_to_code_many(c1_spec, U)
    for U in ([[1, 0, 0, 0], [0, 0, 0, 16]], [[1, 0, 0, 0], [-1, 0, 0, 0]]):
        with pytest.raises(ValueError, match=r"\[0, 16\)"):
            cov.distance_to_code_many(c1_spec, U)
    with pytest.raises(ValueError):  # a ragged stack
        cov.contains_many(c1_spec, [[1, 0, 0, 0], [1, 2, 3]])
    assert cov.distance_to_code_many(c1_spec, np.zeros((0, 4), dtype=np.int64)).tolist() == []
    for route in (cov.deep_hole_via_extension_many, cov.is_deep_hole_many):
        got = route(c1_spec, np.zeros((0, 4), dtype=np.int64))
        assert got.dtype == bool and got.shape == (0,)
