import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DISTANCE_TOWERS, tower_from
from twistgab.linpoly import LinearizedPoly, annihilator, annihilator_product

W = 2


def rand_poly(tower, rng, deg):
    cs = [tower.random_element(rng) for _ in range(deg)] + [tower.random_nonzero(rng)]
    return LinearizedPoly(tower, cs)


class TestEvaluate:
    def test_identity_map(self, f16):
        X = LinearizedPoly.x(f16)
        for a in f16.elements():
            assert X(a) == a

    def test_zero_argument(self, f16, rng):
        f = rand_poly(f16, rng, 2)
        assert f(0) == 0

    def test_forced_cancellation(self, f16):
        # f = x^[1] + w x^[0] at x = w: w^2 + w*w = 0
        f = LinearizedPoly(f16, (W, 1))
        assert f(W) == 0

    def test_fq_linearity(self, f16_any, rng):
        t = f16_any
        for _ in range(50):
            f = rand_poly(t, rng, 2)
            lam = rng.randrange(t.q)
            for x in t.elements():
                for y in t.elements():
                    assert f(t.add(x, y)) == t.add(f(x), f(y))
                assert f(t.mul(lam, x)) == t.mul(lam, f(x))
            break  # one poly exhaustively is plenty per representation


class TestSkewMul:
    def test_x_is_identity(self, f16, rng):
        X = LinearizedPoly.x(f16)
        f = rand_poly(f16, rng, 3)
        assert (f * X) == f and (X * f) == f

    def test_single_monomials(self, f16, rng):
        # (a x^[1]) o (b x^[1]) = a b^q x^[2]
        for _ in range(20):
            a, b = f16.random_nonzero(rng), f16.random_nonzero(rng)
            prod = LinearizedPoly.monomial(f16, a, 1) * LinearizedPoly.monomial(f16, b, 1)
            assert prod.coeffs == (0, 0, f16.mul(a, f16.frobenius(b, 1)))

    def test_degree_adds(self, f16, rng):
        for _ in range(30):
            f, g = rand_poly(f16, rng, 2), rand_poly(f16, rng, 3)
            assert (f * g).deg_q == f.deg_q + g.deg_q

    def test_evaluation_homomorphism_exhaustive(self, f16_any, rng):
        t = f16_any
        for _ in range(25):
            f, g = rand_poly(t, rng, 2), rand_poly(t, rng, 2)
            fg = f * g
            for x in t.elements():
                assert fg(x) == f(g(x))

    def test_associative_and_distributive(self, f16, f9, rng):
        for t in (f16, f9):
            for _ in range(40):
                f, g, h = (rand_poly(t, rng, 2) for _ in range(3))
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                assert (f + g) * h == f * h + g * h

    def test_noncommutative_in_general(self, f16):
        f = LinearizedPoly.monomial(f16, W, 1)
        g = LinearizedPoly.monomial(f16, f16.pow_(W, 3), 0)
        assert f * g != g * f


class TestKernel:
    def test_identity_injective(self, f16):
        assert LinearizedPoly.x(f16).kernel_basis() == []

    def test_xq_minus_x(self, f16, f9):
        # roots of x^q - x are exactly F_q
        for t in (f16, f9):
            f = LinearizedPoly(t, (t.neg(1), 1))
            assert f.kernel_basis() == [1]

    def test_kernel_equals_span_exhaustive(self, f16_any, rng):
        t = f16_any
        for _ in range(10):
            gens = [t.random_element(rng) for _ in range(2)]
            ann = annihilator(t, gens)
            kernel = {x for x in t.elements() if ann(x) == 0}
            assert kernel == set(t.fq_span(gens))
            basis = ann.kernel_basis()
            assert set(t.fq_span(basis)) == kernel

    def test_dim_bounded_by_degree(self, f16, rng):
        for _ in range(40):
            f = rand_poly(f16, rng, 3)
            assert len(f.kernel_basis()) <= f.deg_q

    def test_zero_poly_rejected(self, f16):
        with pytest.raises(ValueError):
            LinearizedPoly.zero(f16).kernel_basis()


class TestAnnihilator:
    def test_empty_span(self, f16):
        assert annihilator(f16, []).coeffs == (1,)  # the single factor x

    def test_span_of_one(self, f16):
        # (x - 0)(x - 1) = x^2 + x in characteristic 2
        assert annihilator(f16, [1]).coeffs == (1, 1)

    def test_matches_literal_product(self, f16_any, f9, rng):
        for t in (f16_any, f9):
            for _ in range(8):
                gens = [t.random_element(rng) for _ in range(2)]
                assert annihilator(t, gens) == annihilator_product(t, gens)

    def test_degree_is_span_rank(self, f16, rng):
        for _ in range(30):
            gens = [f16.random_element(rng) for _ in range(3)]
            assert annihilator(f16, gens).deg_q == f16.fq_rank(gens)

    def test_monic(self, f16, rng):
        gens = [f16.random_element(rng) for _ in range(2)]
        ann = annihilator(f16, gens)
        assert ann.coeffs[-1] == 1

    def test_four_element_span_product(self, f16):
        # the degree-q^2 polynomial vanishing exactly on {0, 1, w, w+1}
        ann = annihilator_product(f16, [1, W])
        assert ann.deg_q == 2
        roots = {x for x in f16.elements() if ann(x) == 0}
        assert roots == {0, 1, W, f16.add(1, W)}


class TestRightDivision:
    def test_self_division(self, f16, rng):
        d = rand_poly(f16, rng, 2)
        q, r = d.right_divmod(d)
        assert q.coeffs == (1,) and r.is_zero

    def test_small_degree(self, f16, rng):
        f, d = rand_poly(f16, rng, 1), rand_poly(f16, rng, 3)
        q, r = f.right_divmod(d)
        assert q.is_zero and r == f

    def test_recovers_left_factor(self, f16_any, rng):
        t = f16_any
        for _ in range(40):
            h, d = rand_poly(t, rng, 2), rand_poly(t, rng, 2)
            q, r = (h * d).right_divmod(d)
            assert r.is_zero and q == h

    def test_division_identity_exact(self, f16, rng):
        for _ in range(60):
            f, d = rand_poly(f16, rng, 4), rand_poly(f16, rng, 2)
            q, r = f.right_divmod(d)
            assert q * d + r == f
            assert r.deg_q < d.deg_q

    def test_annihilator_divides_vanishing_poly(self, f16, rng):
        # a polynomial vanishing on the span is a left multiple of its annihilator
        t = f16
        gens = [t.random_nonzero(rng), t.random_nonzero(rng)]
        ann = annihilator(t, gens)
        h = rand_poly(t, rng, 1)
        f = h * ann
        assert all(f(x) == 0 for x in t.fq_span(gens))
        _, r = f.right_divmod(ann)
        assert r.is_zero

    def test_zero_divisor(self, f16, rng):
        with pytest.raises(ZeroDivisionError):
            rand_poly(f16, rng, 1).right_divmod(LinearizedPoly.zero(f16))


@st.composite
def towers(draw):
    p, e, m = draw(st.sampled_from(DISTANCE_TOWERS))
    return tower_from(p, e, m, draw(st.integers(0, p ** (e * m) - 1)))


def polys(t, max_deg):
    """A linearized polynomial of q-degree at most max_deg, possibly zero."""
    coeffs = st.lists(st.integers(0, t.order - 1), max_size=max_deg + 1)
    return coeffs.map(lambda cs: LinearizedPoly(t, cs))


@settings(max_examples=40, deadline=None)
@given(t=towers(), data=st.data())
def test_annihilator_matches_literal_product_over_random_towers(t, data):
    # 0..3 generators, often F_q-dependent: a repeat, zero or an F_q-multiple
    gens = data.draw(st.lists(st.integers(0, t.order - 1), max_size=3))
    if gens and data.draw(st.booleans()):
        gens.append(t.mul(data.draw(st.integers(0, t.q - 1)), data.draw(st.sampled_from(gens))))
    ann = annihilator(t, gens)
    assert ann == annihilator_product(t, gens)
    assert ann.deg_q == t.fq_rank(gens)


@settings(max_examples=40, deadline=None)
@given(t=towers(), data=st.data())
def test_right_divmod_reconstructs_its_input_over_random_towers(t, data):
    f = data.draw(polys(t, 5))
    d = data.draw(polys(t, 3).filter(lambda d: not d.is_zero))
    quot, rem = f.right_divmod(d)
    assert quot * d + rem == f
    assert rem.deg_q < d.deg_q  # -1 for the zero remainder
