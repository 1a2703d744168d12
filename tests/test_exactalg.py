import random
from fractions import Fraction

import pytest

from dt4vertex.exactalg import (
    DivisionNotUnit,
    FactoredWeightProduct,
    LambdaRat,
    QSeries,
    TChar,
    TLaurent,
    bar_involution,
    binomial_laurent,
    canonical_form,
    laurent_div_binomial,
    poly_div_linear,
    poly_from_form,
    poly_mul,
    qexp,
    tchar_reduce,
    weight_form,
)

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def random_laurent(rng, nterms, span=4):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randint(-span, span) for _ in range(4))
        terms[w] = terms.get(w, 0) + rng.randint(-5, 5)
    return TLaurent({w: c for w, c in terms.items() if c})


def random_lambdarat(rng, deg=2):
    num = {}
    for _ in range(rng.randint(1, 4)):
        m = tuple(rng.randint(0, deg) for _ in range(3))
        num[m] = num.get(m, 0) + rng.randint(-4, 4)
    num = {m: c for m, c in num.items() if c}
    if not num:
        num = {(0, 0, 0): 1}
    f = (rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2))
    return LambdaRat(num) * inverse_form(f)


def inverse_form(f):
    """1/f for any nonzero integer linear form f."""
    return FactoredWeightProduct.one().mul_form(f, -1).expand()


def assert_same(x, y):
    """Equal values in one normal form: equal, and rendered identically."""
    assert x == y
    assert x.render() == y.render()


class TestBarInvolution:
    def test_two_terms(self):
        p = TLaurent({(1, 1, 0, 0): 1, (0, 0, 0, 0): 3})
        assert bar_involution(p) == TLaurent({(-1, -1, 0, 0): 1, (0, 0, 0, 0): 3})

    def test_zero(self):
        assert bar_involution(TLaurent.zero()) == TLaurent.zero()

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_laurent(rng, rng.randint(0, 50))
            assert bar_involution(bar_involution(p)) == p


class TestTCharReduce:
    def test_geometric_factor(self):
        z = TChar(TLaurent({(0, 0, 0, 0): 1, (2, 0, 0, 0): -1}), (E1,))
        assert tchar_reduce(z) == TLaurent({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})

    def test_non_divisible_unchanged(self):
        z = TChar(TLaurent({(0, 0, 0, 0): 1, (1, 1, 0, 0): -1}), (E1,))
        r = tchar_reduce(z)
        assert isinstance(r, TChar)
        assert r.num == z.num and r.den == z.den

    def test_full_cancellation(self):
        num = binomial_laurent(E1) * binomial_laurent(E2)
        z = TChar(num, (E1, E2))
        assert tchar_reduce(z) == TLaurent.one()

    def test_idempotent_and_value_preserving(self):
        rng = random.Random(5)
        for _ in range(40):
            q = random_laurent(rng, rng.randint(1, 6), span=2)
            dens = [
                (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1),
            ][: rng.randint(1, 3)]
            num = q
            for d in dens:
                num = num * binomial_laurent(d)
            z = TChar(num, tuple(dens))
            r = z.reduce()
            assert r.reduce() == r
            assert r.eq_rational(z)

    def test_division_guard_rejects_inexact(self):
        assert laurent_div_binomial(TLaurent.one(), E1) is None
        p = binomial_laurent(E1) * TLaurent({(0, 1, 0, 0): 2, (3, 0, 1, 0): -1})
        assert laurent_div_binomial(p, E1) == TLaurent(
            {(0, 1, 0, 0): 2, (3, 0, 1, 0): -1}
        )


class TestTCharArith:
    def test_common_denominator(self):
        a = TChar(TLaurent.one(), (E1,))
        b = TChar(TLaurent.one(), (E2,))
        s = a + b
        expect = TChar(
            TLaurent({(0, 0, 0, 0): 2, (1, 0, 0, 0): -1, (0, 1, 0, 0): -1}),
            (E1, E2),
        )
        assert s.eq_rational(expect)

    def test_add_zero_identity(self):
        z = TChar(TLaurent({(1, 0, 2, 0): 3}), (E3,))
        assert (z + TChar(TLaurent.zero())).eq_rational(z)

    def test_inverse_pair(self):
        a = TChar(TLaurent.one(), (E1,))
        b = TChar(binomial_laurent(E1))
        assert (a * b).eq_rational(TChar(TLaurent.one()))

    def test_bar_value(self):
        # bar(1/(1-t1)) = 1/(1-t1^{-1}) = -t1/(1-t1)
        z = TChar(TLaurent.one(), (E1,))
        assert z.bar() == TChar(TLaurent({(1, 0, 0, 0): -1}), (E1,))


class TestWeightForm:
    def test_examples(self):
        assert weight_form((1, 0, 0, 0)) == (1, 0, 0)
        assert weight_form((0, 0, 0, 1)) == (-1, -1, -1)
        assert weight_form((1, 1, 1, 1)) == (0, 0, 0)

    def test_zero_iff_diagonal(self):
        rng = random.Random(2)
        for _ in range(200):
            w = tuple(rng.randint(-4, 4) for _ in range(4))
            iszero = weight_form(w) == (0, 0, 0)
            assert iszero == (w[0] == w[1] == w[2] == w[3])


class TestPolyDivLinear:
    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            q = {}
            for _ in range(rng.randint(1, 8)):
                m = tuple(rng.randint(0, 4) for _ in range(3))
                q[m] = q.get(m, 0) + rng.randint(-9, 9)
            q = {m: c for m, c in q.items() if c}
            f = (0, 0, 0)
            while not any(f):
                f = tuple(rng.randint(-3, 3) for _ in range(3))
            f = canonical_form(f)[2]
            p = poly_mul(q, poly_from_form(f))
            assert poly_div_linear(p, f) == q

    def test_inexact_returns_none(self):
        assert poly_div_linear({(0, 0, 0): 1}, (1, 0, 0)) is None
        assert poly_div_linear({(1, 0, 0): 1, (0, 0, 0): 1}, (1, 1, 0)) is None


class TestLambdaRat:
    def test_one_normal_form(self):
        # l1/l2 == 2l1 / 2l2: the content cancels into the same fields
        a = LambdaRat(poly_from_form((1, 0, 0)), 1, {(0, 1, 0): 1})
        b = LambdaRat(poly_from_form((2, 0, 0))) * inverse_form((0, 2, 0))
        assert a == b
        assert (a.num, a.scalar, a.factors) == (b.num, b.scalar, b.factors)
        with pytest.raises(ValueError):
            LambdaRat(poly_from_form((1, 0, 0)), -2, {(0, 1, 0): 1})

    def test_cross_factors_cancel(self):
        l1_over_l2 = LambdaRat(poly_from_form((1, 0, 0))) * inverse_form((0, 1, 0))
        l2_over_l1 = LambdaRat(poly_from_form((0, 1, 0))) * inverse_form((1, 0, 0))
        assert (l1_over_l2 * l2_over_l1).render() == "1"

    def test_sum_reduces_content(self):
        half = LambdaRat({(0, 0, 0): 1}, 2, {(0, 1, 0): 2})
        assert (half + half).render() == "(1) / (l2^2)"

    def test_equal_values_render_identically(self):
        # (l1^2 + l1*l2) / (l1*l2) == (l1 + l2) / l2
        a = LambdaRat({(2, 0, 0): 1, (1, 1, 0): 1}) * inverse_form((1, 0, 0))
        a = a * inverse_form((0, 1, 0))
        b = LambdaRat(poly_from_form((1, 1, 0))) * inverse_form((0, 1, 0))
        assert_same(a, b)

    def test_inv_of_non_unit_raises(self):
        # (l1*l2 + l1 + l2) / l2
        x = LambdaRat({(1, 1, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1})
        x = x * inverse_form((0, 1, 0))
        with pytest.raises(DivisionNotUnit):
            x.inv()
        unit = LambdaRat({(0, 0, 0): -3}, 2, {(0, 1, 0): 1})
        assert_same(unit * unit.inv(), LambdaRat.from_int(1))

    def test_field_ops_random(self):
        rng = random.Random(13)
        forms = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)]
        for _ in range(30):
            a = random_lambdarat(rng)
            b = random_lambdarat(rng)
            c = random_lambdarat(rng)
            w = FactoredWeightProduct(
                rng.choice([1, -1]),
                Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                {f: rng.randint(-2, 2) for f in rng.sample(forms, 2)},
            )
            assert_same((a + b) * c, a * c + b * c)
            assert_same(a - a, LambdaRat.from_int(0))
            assert_same((a * (w**-1).expand()) * w.expand(), a)

    def test_factored_expand_homomorphism(self):
        rng = random.Random(17)
        forms = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)]
        for _ in range(40):
            fa = FactoredWeightProduct(
                rng.choice([1, -1]),
                Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                {f: rng.randint(-2, 2) for f in rng.sample(forms, 3)},
            )
            fb = FactoredWeightProduct(
                rng.choice([1, -1]),
                Fraction(rng.randint(1, 5)),
                {f: rng.randint(-2, 2) for f in rng.sample(forms, 2)},
            )
            assert (fa * fb).expand() == fa.expand() * fb.expand()

    def test_mul_form_tracks_sign_and_content(self):
        f = FactoredWeightProduct.one().mul_form((-2, 0, 2), 1)
        # -2l1 + 2l3 = -(2)(l1 - l3)
        assert f.sign == -1
        assert f.scalar == 2
        assert f.factors == {(1, 0, -1): 1}


class TestQSeries:
    def test_product_example(self):
        a = LambdaRat(poly_from_form((1, 2, 0)))
        one = LambdaRat.from_int(1)
        p = QSeries(4, {0: one, 1: a})
        m = QSeries(4, {0: one, 1: -a})
        prod = p * m
        assert prod.coefficient(0) == one
        assert prod.coefficient(1).is_zero()
        assert prod.coefficient(2) == -(a * a)

    def test_exp_series_inverse(self):
        rng = random.Random(23)
        for _ in range(5):
            c = random_lambdarat(rng)
            a = qexp(c, 4)
            b = qexp(-c, 4)
            assert (a * b).eq_mod(QSeries.one(4), 4)

    def test_divide_by_unit_geometric(self):
        one = LambdaRat.from_int(1)
        denom = QSeries(5, {0: one, 1: one})
        quot = QSeries.one(5).divide_by_unit(denom)
        for k in range(5):
            assert quot.coefficient(k) == LambdaRat.from_int((-1) ** k)

    def test_divide_by_non_unit_raises(self):
        one = LambdaRat.from_int(1)
        with pytest.raises(DivisionNotUnit):
            QSeries.one(3).divide_by_unit(QSeries(3, {1: one}))

    def test_mul_assoc_comm_up_to_truncation(self):
        rng = random.Random(29)
        for _ in range(10):
            def rnd():
                trunc = rng.randint(3, 5)
                return QSeries(
                    trunc,
                    {
                        k: random_lambdarat(rng, deg=1)
                        for k in rng.sample(range(-1, trunc), rng.randint(1, 3))
                    },
                )

            a, b, c = rnd(), rnd(), rnd()
            assert (a * b).eq_mod(b * a)
            lhs = (a * b) * c
            rhs = a * (b * c)
            assert lhs.eq_mod(rhs, min(lhs.trunc, rhs.trunc))

    def test_truncation_never_reads_above(self):
        one = LambdaRat.from_int(1)
        with pytest.raises(ValueError):
            QSeries(2, {2: one})
        s = QSeries(3, {0: one})
        with pytest.raises(ValueError):
            s.coefficient(3)
