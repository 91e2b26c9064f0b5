"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is produced by an independent oracle (exhaustive
enumeration, literal product formulas, cofactor expansions) and compared
against the implementation at the stated scale and time limit.
"""

import json
import random
import subprocess
import sys
import time
from itertools import product

import numpy as np

from oracles import moore_det_product
from twistgab import covering as cov
from twistgab import moore
from twistgab import mrdcheck as mc
from twistgab.codes import CodeSpec, min_rank_distance
from twistgab.fieldtower import default_tower
from twistgab.gcoeff import (
    AnnihilatorCoeffs,
    g_coefficient,
    sigma_lower_triangular,
    triangular_inverse,
)
from twistgab.linpoly import LinearizedPoly
from twistgab.mrdcheck import classify


def _report(name, started, limit_s):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"{name} exceeded its time budget: {elapsed:.1f}s"


def _axioms_exhaustive(t):
    """All field axioms on every pair and triple, vectorized in chunks."""
    N = t.order
    xs = np.arange(N, dtype=np.int64)
    a2 = xs[:, None]
    b2 = xs[None, :]
    assert (t.mul_many(a2, b2) == t.mul_many(b2, a2)).all()
    assert (t.add_many(a2, b2) == t.add_many(b2, a2)).all()
    assert (t.mul_many(xs, np.ones_like(xs)) == xs).all()
    inverses = np.array([t.inv(x) for x in range(1, N)])
    assert (t.mul_many(xs[1:], inverses) == 1).all()
    chunk = max(1, 2**21 // (N * N))
    for lo in range(0, N, chunk):
        a = xs[lo : lo + chunk][:, None, None]
        b = xs[None, :, None]
        c = xs[None, None, :]
        ab = t.mul_many(a, b)
        bc = t.mul_many(b, c)
        assert (t.mul_many(ab, c) == t.mul_many(a, bc)).all()
        assert (
            t.add_many(t.add_many(a, b), c) == t.add_many(a, t.add_many(b, c))
        ).all()
        assert (
            t.mul_many(a, t.add_many(b, c)) == t.add_many(t.mul_many(a, b), t.mul_many(a, c))
        ).all()


def _sigma_and_norm_exhaustive(t):
    N = t.order
    xs = np.arange(N, dtype=np.int64)
    a2, b2 = xs[:, None], xs[None, :]
    assert (t.frob_many(t.mul_many(a2, b2), 1) == t.mul_many(t.frob_many(a2, 1), t.frob_many(b2, 1))).all()
    assert (t.frob_many(t.add_many(a2, b2), 1) == t.add_many(t.frob_many(a2, 1), t.frob_many(b2, 1))).all()
    assert (t.frob_many(xs, t.m) == xs).all()
    norm = np.array([t.norm(x) for x in xs], dtype=np.int64)
    na, nb = norm[a2], norm[b2]
    prod_norm = norm[t.mul_many(a2, b2)]
    table = np.zeros((t.q, t.q), dtype=np.int64)
    for x in range(t.q):
        for y in range(t.q):
            table[x, y] = t._sf.mul(x, y)
    assert (prod_norm == table[na, nb]).all()


def test_criterion_1_algebra_suite(f16, f16_alt, f9, f4_tower, f256):
    started = time.time()
    rng = random.Random(1)
    cases = 0
    for t in (f16, f16_alt, f9, f4_tower, f256):
        _axioms_exhaustive(t)
        _sigma_and_norm_exhaustive(t)
        cases += t.order**3
        # skew-multiplication associativity and the evaluation homomorphism,
        # with evaluation checked on every field element
        for _ in range(12):
            f = LinearizedPoly(t, [t.random_element(rng) for _ in range(3)])
            g = LinearizedPoly(t, [t.random_element(rng) for _ in range(3)])
            h = LinearizedPoly(t, [t.random_element(rng) for _ in range(2)])
            assert (f * g) * h == f * (g * h)
            fg = f * g
            for x in t.elements():
                assert fg(x) == f(g(x))
                cases += 1
    # randomized above 256: the 2^16 tower
    big = default_tower(2, 1, 16)
    for _ in range(10**4):
        a, b, c = (big.random_element(rng) for _ in range(3))
        assert big.mul(big.mul(a, b), c) == big.mul(a, big.mul(b, c))
        assert big.mul(a, big.add(b, c)) == big.add(big.mul(a, b), big.mul(a, c))
        assert big.norm(big.mul(a, b)) == big._sf.mul(big.norm(a), big.norm(b))
        cases += 1
    assert cases >= 10**4
    _report("1 algebra suite", started, 60)


def test_criterion_2_moore_identities():
    started = time.time()
    product_checks = 0
    identity_checks = 0
    for m in (1, 2, 3, 4):
        t = default_tower(2, 1, m)
        for k in (1, 2, 3):
            for alpha in product(t.elements(), repeat=k):
                lhs = moore_det_product(t, alpha)
                rhs = moore.det_fqm(t, moore.moore_matrix(t, alpha, k))
                assert lhs == rhs, (m, k, alpha)
                product_checks += 1
                if t.fq_rank(alpha) == k:
                    coeffs = AnnihilatorCoeffs.from_span(t, alpha)
                    Mk = moore.det_fqm(t, moore.moore_matrix(t, alpha, k))
                    for tt in range(4):
                        for h in range(k):
                            g = g_coefficient(coeffs, h, tt)
                            lhs2 = moore.det_fqm(
                                t, moore.modified_moore_matrix(t, alpha, k, h, k + tt)
                            )
                            assert lhs2 == t.mul(g, Mk), (m, k, alpha, h, tt)
                            identity_checks += 1
    assert product_checks > 4000 and identity_checks > 30000
    _report(
        f"2 moore identities ({product_checks} product, {identity_checks} modified)",
        started,
        120,
    )


def test_criterion_3_triangular_inverse(f9, f16):
    started = time.time()
    rng = random.Random(3)
    cases = 0
    while cases < 1100:
        t = f9 if cases % 2 == 0 else f16
        tt = rng.randint(0, 4)
        cs = (1,) + tuple(t.random_element(rng) for _ in range(rng.randint(1, 4)))
        co = AnnihilatorCoeffs(t, cs)
        E = triangular_inverse(co, tt)
        A = sigma_lower_triangular(co, tt)
        assert (moore.matmul(t, A, E) == np.eye(tt + 1, dtype=np.int64)).all()
        cases += 1
    _report(f"3 triangular inverse ({cases} cases)", started, 60)


def test_criterion_4_three_route_mrd_agreement(f16, alpha4):
    started = time.time()
    t = f16
    sign = 1  # (-1)^(mk) in characteristic 2
    for h in (0, 1):
        ratio_set = mc.forbidden_eta_set_one_twist(t, alpha4, 2, h, 0)
        for eta in t.nonzero_elements():
            spec = CodeSpec(t, alpha4, 2, h, ((0, eta),))
            brute = min_rank_distance(spec).is_mrd
            subspace = mc.is_mrd_subspace_criterion(spec)
            ratio = (t.inv(eta),) not in ratio_set  # the set holds eta^(-1)
            assert brute == subspace == ratio, (h, eta)
            # one-directional norm check: N(eta) != (-1)^(mk) implies MRD
            if t.norm(eta) != sign:
                assert brute, (h, eta)
    _report("4 three-route MRD agreement (30 specs x 3 routes)", started, 300)


def test_criterion_5_omega_soundness(f16, alpha4):
    started = time.time()
    t = f16
    # one twist, t = 0: eta^(-1) in Omega_1 certifies non-MRD
    for h in (0, 1):
        o1 = mc.omega_one(mc.KSubsetTable(t, alpha4, 2), h, 0)
        for eta in t.nonzero_elements():
            if (t.inv(eta),) in o1:
                spec = CodeSpec(t, alpha4, 2, h, ((0, eta),))
                assert not min_rank_distance(spec).is_mrd, (h, eta)
    # two twists, t = (0, 1), k = 1: every witnessed pair is non-MRD
    witnessed = 0
    for e1 in t.nonzero_elements():
        for e2 in t.nonzero_elements():
            spec = CodeSpec(t, alpha4, 1, 0, ((0, e1), (1, e2)))
            wit = mc.omega_witness(spec)
            if wit is not None:
                witnessed += 1
                assert not min_rank_distance(spec).is_mrd, (e1, e2)
    assert witnessed > 0
    _report(f"5 omega soundness ({witnessed} witnessed pairs of 225)", started, 600)


def test_criterion_6_hamming_classification(f16, alpha4):
    started = time.time()
    t = f16
    checked = 0

    def check(spec):
        nonlocal checked
        rep = classify(spec)  # raises ConsistencyError if the two routes split
        label = mc.hamming_class_via_omega(spec).label
        if label == "MDS":
            assert rep.is_mds
        elif label == "NMDS":
            assert rep.is_nmds
        elif label == "AMDS":
            assert rep.is_amds
        else:
            assert not rep.is_mds and not rep.is_amds
        checked += 1

    for h in (0, 1):
        for eta in t.nonzero_elements():
            check(CodeSpec(t, alpha4, 2, h, ((0, eta),)))
    for e1 in t.nonzero_elements():
        for e2 in t.nonzero_elements():
            check(CodeSpec(t, alpha4, 1, 0, ((0, e1), (1, e2))))
    _report(f"6 hamming classification ({checked} specs, zero disagreements)", started, 600)


def _independent_subfield_tuple(t, s, n):
    out = []
    for x in t.subfield_elements(s):
        if x and t.fq_rank(out + [x]) == len(out) + 1:
            out.append(x)
        if len(out) == n:
            return tuple(out)
    return None


def test_criterion_7_constructions():
    started = time.time()
    verified = 0
    rng = random.Random(7)
    for m in (4, 8):
        t = default_tower(2, 1, m)
        divisors = [s for s in range(2, m) if m % s == 0]
        for s in divisors:
            outside = [x for x in t.nonzero_elements() if not t.subfield_membership(x, s)]
            inside = [x for x in t.subfield_elements(s) if x]
            for n in range(2, min(4, s) + 1):
                alpha = _independent_subfield_tuple(t, s, n)
                if alpha is None:
                    continue
                for k in range(1, min(2, n - 1) + 1):
                    # one twist, every admissible exponent, several etas
                    for tt in range(n - k):
                        for eta in rng.sample(outside, min(4, len(outside))):
                            spec, rechecked = mc.construct_chain_mrd(
                                t, mc.SubfieldChain.nested([s], [eta]), alpha, k, 0, [tt]
                            )
                            assert rechecked and mc.is_mrd_subspace_criterion(spec)
                            verified += 1
                    # scalar-multiple pairs on contiguous exponents
                    if n - k >= 2:
                        for eta1 in rng.sample(outside, 2):
                            for b in rng.sample(inside, 2):
                                spec, rechecked = mc.construct_chain_mrd(
                                    t,
                                    mc.SubfieldChain.scalar_multiple(s, eta1, [b]),
                                    alpha, k, 0, [0, 1],
                                )
                                assert rechecked and mc.is_mrd_subspace_criterion(spec)
                                verified += 1
                    # sum-product-free triples
                    if n - k >= 3:
                        for eta1 in rng.sample(outside, 2):
                            b2, b3 = rng.sample(inside, 2)
                            etas = [eta1, t.mul(b2, eta1), t.mul(b3, eta1)]
                            assert mc.sum_product_free_test(t, etas, s)
                            spec = CodeSpec(
                                t, alpha, k, 0, tuple(zip((0, 1, 2), etas))
                            )
                            assert mc.is_mrd_subspace_criterion(spec)
                            verified += 1
    assert verified >= 50
    _report(f"7 constructions ({verified} instances, all MRD)", started, 300)


def test_criterion_8_covering(f16, alpha4):
    started = time.time()
    t = f16
    # exact covering radius of the one-twist t = 0 family
    for k in (1, 2):
        for eta in (2, 9):
            spec = CodeSpec(t, alpha4, k, 0, ((0, eta),))
            rep = cov.covering_radius_exhaustive(spec)
            assert rep.rho == 4 - k, (k, eta, rep.rho)
    # two-twist bounds
    for k in (1, 2):
        spec2 = CodeSpec(t, alpha4, k, 0, ((0, 2), (1, 5)))
        rep2 = cov.covering_radius_exhaustive(spec2)
        assert 4 - k - 1 <= rep2.rho <= 4 - k, (k, rep2.rho)
    # deep-hole iff on >= 10^3 sampled vectors
    spec = CodeSpec(t, alpha4, 2, 0, ((0, 2),))
    rep = cov.covering_radius_exhaustive(spec)
    rng = random.Random(8)
    sampled = 0
    while sampled < 1000:
        u = [t.random_element(rng) for _ in range(4)]
        if cov.contains(spec, u):
            continue
        via_ext = cov.deep_hole_via_extension(spec, u)
        via_dist = cov.distance_to_code(spec, u) == rep.rho
        assert via_ext == via_dist, u
        sampled += 1
    # both deep-hole families on a grid of >= 64 (g, f) points
    grid = 0
    for g in t.nonzero_elements():
        for _ in range(3):
            f = [t.random_element(rng) for _ in range(2)]
            for flavor in ("x^[k]", "x^[h]"):
                u = cov.deep_hole_family(spec, g, flavor, f)
                assert cov.is_deep_hole(spec, list(u), rep)
                grid += 1
    assert grid >= 64
    _report(f"8 covering (exact rho, {sampled} iff samples, {grid} family points)", started, 600)


def test_criterion_9_cli_determinism(tmp_path):
    started = time.time()
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"p": 2, "e": 1, "m": 4, "top_modulus": [1, 1, 0, 0, 1]}))
    alpha = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"alpha": alpha, "k": 2, "h": [0, 1], "ts": [0], "etas": "all"}))
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"alpha": alpha, "k": 2, "h": 0, "twists": [{"t": 0, "eta": [0, 1, 0, 0]}]}))

    def run(args, out):
        proc = subprocess.run(
            [sys.executable, "-m", "twistgab", *args, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    sweeps = [
        run(["classify", "--field", str(field), "--sweep", str(sweep), "--workers", str(w), "--seed", "5"], tmp_path / f"s{i}.json")
        for i, w in enumerate((1, 4, 2))
    ]
    assert sweeps[0] == sweeps[1] == sweeps[2]
    holes = [
        run(["deephole", "--field", str(field), "--code", str(code), "--seed", "11",
             "--grid", "4", "--sample", "16", "--workers", str(w)], tmp_path / f"d{i}.json")
        for i, w in enumerate((1, 3))
    ]
    assert holes[0] == holes[1]
    _report("9 CLI determinism (byte-identical reports)", started, 300)
