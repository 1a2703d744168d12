import math
import random
from fractions import Fraction

import pytest

from dt4vertex import exactalg, packed
from dt4vertex.exactalg import (
    PRIME,
    DivisionNotUnit,
    FactoredWeightProduct,
    LambdaRat,
    QSeries,
    TLaurent,
    bar_involution,
    binomial_laurent,
    canonical_form,
    evaluate_all_mod,
    laurent_div_binomial,
    lambdarat_sum,
    poly_add,
    poly_from_form,
    poly_linear_mul,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
    qexp,
    weight_form,
)
from dt4vertex.packed import (
    SCREEN_PRIME,
    _WIDER,
    _cancel_forms,
    _chunks,
    _divide_chunks,
    _drop_content,
    _lift,
    _narrowest,
    _pack,
    _product_chunks,
    _reslot,
    _screen_chunks,
    _unchunk,
)
from dt4vertex.partitions import enumerate_pointlike
from dt4vertex.toric import load_geometry
from dt4vertex.vertexcalc import dt_vertex_root, relabel_root, substitution_forms

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


def random_factored(rng):
    """A random nonzero sign * scalar * prod p^e, with up to four primitive
    forms p and exponents e in -3..3."""
    factors = {}
    for _ in range(rng.randint(0, 4)):
        f = (rng.randint(0, 2), rng.randint(-2, 2), rng.randint(-1, 2))
        if any(f):
            factors[canonical_form(f)[2]] = rng.randint(-3, 3)
    scalar = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return FactoredWeightProduct(rng.choice([1, -1]), scalar, factors)


def lift_to(x, scalar, factors):
    """The numerator of x over the common denominator scalar * prod p^e."""
    num = poly_scale(x.num, scalar // x.scalar)
    for p, e in factors.items():
        for _ in range(e - x.factors.get(p, 0)):
            num = poly_mul(num, poly_from_form(p))
    return num


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


class TestLaurentDivBinomial:
    def test_geometric_factor(self):
        num = TLaurent({(0, 0, 0, 0): 1, (2, 0, 0, 0): -1})
        assert laurent_div_binomial(num, E1) == TLaurent({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})

    def test_full_cancellation(self):
        num = binomial_laurent(E1) * binomial_laurent(E2)
        assert laurent_div_binomial(laurent_div_binomial(num, E1), E2) == TLaurent.one()

    def test_random_exact_quotients(self):
        rng = random.Random(5)
        for _ in range(40):
            q = random_laurent(rng, rng.randint(1, 6), span=2)
            dens = [
                (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (-1, 0, 0, 0),
            ][: rng.randint(1, 5)]
            num = q
            for d in dens:
                num = num * binomial_laurent(d)
            for d in reversed(dens):
                num = laurent_div_binomial(num, d)
            assert num == q

    def test_non_divisible_returns_none(self):
        num = TLaurent({(0, 0, 0, 0): 1, (1, 1, 0, 0): -1})
        assert laurent_div_binomial(num, E1) is None
        assert num == TLaurent({(0, 0, 0, 0): 1, (1, 1, 0, 0): -1})

    def test_division_guard_rejects_inexact(self):
        assert laurent_div_binomial(TLaurent.one(), E1) is None
        p = binomial_laurent(E1) * TLaurent({(0, 1, 0, 0): 2, (3, 0, 1, 0): -1})
        assert laurent_div_binomial(p, E1) == TLaurent(
            {(0, 1, 0, 0): 2, (3, 0, 1, 0): -1}
        )


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


def poly_div_linear(p, form):
    """Dict oracle: the exact quotient of an integer polynomial by a
    primitive linear form, or None when the division is not exact.

    Writing p = sum_k A_k x^k in the pivot variable and f = a*x + r, the
    scaled tails T_0 = A_d, T_j = a^j A_{d-j} - r T_{j-1} stay integral and
    give Q_{d-1-j} = T_j / a^{j+1} with remainder T_d."""
    if not p:
        return {}
    piv = 0 if form[0] else (1 if form[1] else 2)
    a = form[piv]
    rest = tuple(0 if i == piv else form[i] for i in range(3))
    levels = {}
    for m, c in p.items():
        base = list(m)
        k = base[piv]
        base[piv] = 0
        lvl = levels.setdefault(k, {})
        lvl[tuple(base)] = lvl.get(tuple(base), 0) + c
    deg = max(levels)
    if deg == 0:
        return None
    tails = [levels.get(deg, {})]
    t = tails[0]
    apow = 1
    for j in range(1, deg + 1):
        apow *= a
        t = poly_sub(poly_scale(levels.get(deg - j, {}), apow), poly_linear_mul(t, rest))
        if j < deg:
            tails.append(t)
    if t:
        return None
    out = {}
    apow = 1
    for j, tail in enumerate(tails):
        apow *= a
        for m, c in tail.items():
            assert c % apow == 0
            key = list(m)
            key[piv] = deg - 1 - j
            out[tuple(key)] = c // apow
    return out


def packed_div(p, f):
    """The quotient of p by f from the packed kernels, as ``_cancel_forms``
    runs them: chunks, division, and wider slots until one decides."""
    if not p:
        return {}
    comps, size = _chunks(p)
    q = _divide_chunks(comps, size, f)
    while q is _WIDER:
        comps, size = _reslot(comps, size, 2 * size), 2 * size
        q = _divide_chunks(comps, size, f)
    return None if q is None else _unchunk(q, size)


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
            assert packed_div(p, f) == q

    def test_inexact_returns_none(self):
        for p, f in [({(0, 0, 0): 1}, (1, 0, 0)), ({(1, 0, 0): 1, (0, 0, 0): 1}, (1, 1, 0))]:
            assert poly_div_linear(p, f) is None
            assert packed_div(p, f) is None


def random_poly(rng, nterms, deg=4, coeff=9):
    """A random integer polynomial, in general not homogeneous."""
    p = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, deg) for _ in range(3))
        p[m] = p.get(m, 0) + rng.randint(-coeff, coeff)
    return {m: c for m, c in p.items() if c}


def lift_chain(p, forms):
    for f in forms:
        p = poly_linear_mul(p, f)
    return p


def lift_add_reference(n1, forms1, n2, forms2):
    return poly_add(lift_chain(n1, forms1), lift_chain(n2, forms2))


def pack_narrowest(p):
    """A polynomial packed at its narrowest width; zero is ({}, 1)."""
    return _chunks(p) if p else ({}, 1)


def poly_lift_add(n1, forms1, n2, forms2):
    """n1 * prod(forms1) + n2 * prod(forms2) for integer polynomials n1, n2
    and lists of linear forms, through the packed ``_lift``."""
    return _unchunk(*_lift(((*pack_narrowest(n1), 1, forms1), (*pack_narrowest(n2), 1, forms2))))


# forms with zero and negative coefficients and a non-unit lead
LIFT_FORMS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (0, 1, -1),
              (1, 1, 1), (2, 1, 0), (1, -2, 3), (3, 0, -1), (0, 2, 1)]


class TestPolyLiftAdd:
    def test_matches_dict_lifting_random(self):
        rng = random.Random(101)
        for _ in range(300):
            n1 = random_poly(rng, rng.randint(0, 10), coeff=rng.choice([1, 9, 10**30]))
            n2 = random_poly(rng, rng.randint(0, 10), coeff=rng.choice([1, 9, 10**30]))
            forms1 = [rng.choice(LIFT_FORMS) for _ in range(rng.randint(0, 6))]
            forms2 = [rng.choice(LIFT_FORMS) for _ in range(rng.randint(0, 6))]
            assert poly_lift_add(n1, forms1, n2, forms2) == lift_add_reference(
                n1, forms1, n2, forms2
            )

    def test_empty_addends_and_constants(self):
        rng = random.Random(103)
        n = random_poly(rng, 6)
        forms = [(2, 1, 0), (1, -1, 0), (0, 0, 1)]
        assert poly_lift_add({}, [], {}, []) == {}
        assert poly_lift_add({}, forms, {}, forms) == {}
        assert poly_lift_add(n, forms, {}, forms) == lift_chain(n, forms)
        assert poly_lift_add({}, [], n, forms) == lift_chain(n, forms)
        assert poly_lift_add(n, [], {}, []) == n
        assert poly_lift_add({(0, 0, 0): 5}, [], {(0, 0, 0): -7}, []) == {(0, 0, 0): -2}
        assert poly_lift_add({(0, 0, 0): 3}, [(2, 1, 0)], {(0, 0, 0): -1}, []) == {
            (1, 0, 0): 6, (0, 1, 0): 3, (0, 0, 0): -1
        }

    def test_sum_cancelling_to_zero(self):
        rng = random.Random(107)
        for _ in range(50):
            n = random_poly(rng, rng.randint(1, 8))
            f = [rng.choice(LIFT_FORMS) for _ in range(rng.randint(0, 3))]
            g = [rng.choice(LIFT_FORMS) for _ in range(rng.randint(0, 3))]
            # n*f * g - (n*g) * f
            assert poly_lift_add(lift_chain(n, f), g, poly_neg(lift_chain(n, g)), f) == {}

    @pytest.mark.parametrize("bits", [7, 8, 9, 15, 16, 17, 64, 120, 128])
    def test_coefficients_at_the_slot_bound(self, bits):
        # the bound ||n1||_1 prod ||f||_1 + ||n2||_1 prod ||g||_1 is attained:
        # one monomial per addend and forms with one nonzero coefficient
        for bound in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
            half = bound // 2
            for n1, forms1, n2, forms2 in [
                ({(1, 0, 2): half}, [], {(1, 0, 2): bound - half}, []),
                ({(1, 0, 2): -half}, [], {(1, 0, 2): half - bound}, []),
                ({(0, 1, 0): half}, [(0, 0, 1)], {(0, 1, 1): bound - half}, []),
                ({(2, 0, 0): 1}, [(0, -1, 0)], {(0, 0, 0): -(bound - 1)}, [(0, 0, 1)] * 3),
                ({(0, 0, 0): 1}, [(half, 0, 0)], {(1, 0, 0): bound - half}, []),
            ]:
                got = poly_lift_add(n1, forms1, n2, forms2)
                assert got == lift_add_reference(n1, forms1, n2, forms2)
                assert max(abs(c) for c in got.values()) in (bound, bound - 1)
        # and where the result has only small coefficients
        n1 = {(0, 0, 0): (1 << bits) - 1, (1, 0, 0): 1}
        n2 = {(0, 0, 0): 1 - (1 << bits), (0, 1, 0): 1}
        assert poly_lift_add(n1, [], n2, []) == {(1, 0, 0): 1, (0, 1, 0): 1}


# forms with c2 = 0, l2 alone (c1 = c3 = 0) and three nonzero coefficients,
# with negative coefficients among each kind
LIFT_BRANCH_FORMS = [(1, 0, 0), (0, 0, 1), (3, 0, -1), (-2, 0, 5), (0, 1, 0), (0, -3, 0),
                     (1, -1, 0), (0, 2, -1), (-1, 2, 3), (2, -1, -4)]


def lift_reference(addends):
    out = {}
    for n, k, forms in addends:
        out = poly_add(out, poly_scale(lift_chain(n, forms), k))
    return out


def homogeneous_part(p, t):
    return {m: c for m, c in p.items() if sum(m) == t}


class TestChunkLift:
    @pytest.mark.parametrize("k", [-3, 2, 10**20])
    def test_matches_dict_lifting(self, k):
        rng = random.Random(113 + k % 1000)
        for _ in range(150):
            addends = [
                (random_poly(rng, rng.randint(1, 8), coeff=rng.choice([1, 9, 10**30])),
                 rng.choice([1, k]),
                 [rng.choice(LIFT_BRANCH_FORMS) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 3))
            ]
            comps, size = _lift([(*pack_narrowest(n), k, forms) for n, k, forms in addends])
            assert _unchunk(comps, size) == lift_reference(addends)
            assert all(any(ch) and len(ch) == t + 1 for t, ch in comps.items())
            # addends held wider than their narrowest width lift alike
            wide = []
            for n, k, forms in addends:
                c, s = pack_narrowest(n)
                wide.append((_reslot(c, s, s + 2), s + 2, k, forms))
            assert _lift(wide) == (comps, size)

    @pytest.mark.parametrize("k", [-3, 2, 10**20])
    def test_cancelling_components_are_dropped(self, k):
        rng = random.Random(127 + k % 1000)
        for _ in range(60):
            n = random_poly(rng, rng.randint(2, 8))
            f = [rng.choice(LIFT_BRANCH_FORMS) for _ in range(rng.randint(0, 3))]
            g = [rng.choice(LIFT_BRANCH_FORMS) for _ in range(rng.randint(0, 3))]
            # k*(n*f)*g - k*(n*g)*f is zero in every component
            whole = ((lift_chain(n, f), k, g), (poly_neg(lift_chain(n, g)), k, f))
            assert _lift([(*pack_narrowest(n), k, f) for n, k, f in whole])[0] == {}
            # cancelling one component of n leaves the others
            if not n:
                continue
            t = rng.choice(sorted({sum(m) for m in n}))
            part = ((n, k, f), (poly_neg(homogeneous_part(n, t)), k, f))
            comps, size = _lift([(*pack_narrowest(n), k, f) for n, k, f in part])
            assert t + len(f) not in comps
            assert _unchunk(comps, size) == lift_reference(part)


# primitive positive-lead forms whose pivot is l1, l2 or l3
PIVOT_FORMS = {
    0: [(1, 0, 0), (1, 1, 0), (1, -1, 0), (2, 1, 0), (1, 2, -3), (3, 0, 1), (1, 1, 1)],
    1: [(0, 1, 0), (0, 1, 1), (0, 1, -1), (0, 2, 3), (0, 3, -2)],
    2: [(0, 0, 1)],
}


def cancel(num, factors, forms):
    """``_cancel_forms`` on a polynomial: the quotient, or num itself when no
    form divides."""
    comps, size = _chunks(num)
    cancelled = _cancel_forms(comps, size, factors, forms)
    return _unchunk(*cancelled) if cancelled else num


class TestTrialDivisionScreen:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_planted_powers_are_removed(self, axis):
        rng = random.Random(109 + axis)
        for f in PIVOT_FORMS[axis]:
            for k in range(1, 4):
                for _ in range(8):
                    q = random_poly(rng, rng.randint(1, 8))
                    while poly_div_linear(q, f) is not None:
                        q = random_poly(rng, rng.randint(1, 8))
                    extra = rng.randint(0, 2)
                    other = rng.choice(PIVOT_FORMS[(axis + 1) % 3])
                    factors = {f: k + extra, other: 1}
                    num = lift_chain(q, [f] * k)
                    assert f in _screen_chunks(*_chunks(num), [f, other])
                    got = cancel(num, factors, sorted(factors))
                    assert poly_div_linear(got, f) is None
                    if poly_div_linear(q, other) is None:
                        assert got == q
                        assert factors == ({f: extra, other: 1} if extra else {other: 1})

    def test_rejections_agree_with_exact_division(self):
        rng = random.Random(113)
        forms = sorted(f for fs in PIVOT_FORMS.values() for f in fs)
        rejected = kept = 0
        for _ in range(200):
            num = random_poly(rng, rng.randint(1, 12))
            for _ in range(rng.randint(0, 3)):
                num = poly_linear_mul(num, rng.choice(forms))
            if not num:
                continue
            screened = _screen_chunks(*_chunks(num), forms)
            assert screened == [f for f in forms if f in screened]
            for f in forms:
                if f in screened:
                    kept += 1
                else:
                    rejected += 1
                    assert f[1]
                    assert poly_div_linear(num, f) is None
        assert rejected and kept

    def test_two_generates_the_screen_group(self):
        # so beta = 2^w modulo the prime is 1 only if p - 1 divides w
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        p = SCREEN_PRIME
        factors = (2, 7, 2341, 16381)
        assert is_prime(p) and all(map(is_prime, factors))
        assert p - 1 == 2 * 2 * 7 * 2341 * 16381
        assert all(pow(2, (p - 1) // q, p) != 1 for q in factors)

    def test_large_coefficients(self):
        # coefficients far above SCREEN_PRIME reduce before the evaluation
        f = (2, 1, 0)
        q = {(3, 0, 0): SCREEN_PRIME * 5 + 1, (0, 2, 1): -(SCREEN_PRIME ** 2), (0, 0, 0): 7}
        num = lift_chain(q, [f, f])
        factors = {f: 3}
        assert cancel(num, factors, [f]) == q
        assert factors == {f: 1}
        # a numerator the screen cannot rule out, which the division rejects
        assert _screen_chunks(*_chunks({(0, 0, 0): SCREEN_PRIME}), [f]) == [f]
        assert packed_div({(0, 0, 0): SCREEN_PRIME}, f) is None


# primitive positive-lead forms: leads a != 1, c2 = 0, and l3
DIV_FORMS = sorted(set(LIFT_FORMS) | {f for fs in PIVOT_FORMS.values() for f in fs}
                   | {(2, 0, 1), (1, 0, -2), (3, -1, 2), (0, 3, 1), (4, 0, -3)})


def chunk_values(p, w):
    """{t: [n_0, .., n_t]}: the chunk ints of p at l1 = 2^w, whatever the
    size of its coefficients."""
    comps = {}
    for (a, b, c), k in p.items():
        t = a + b + c
        ch = comps.setdefault(t, [0] * (t + 1))
        ch[b] += k << (w * a)
    return comps


def balanced(comps, size):
    """The polynomial whose chunks at w = 8*size are the ints of comps, with
    digits in (-2^(w-1), 2^(w-1)); None if a chunk needs more slots."""
    w = 8 * size
    out = {}
    for t, ch in comps.items():
        for b, n in enumerate(ch):
            for a in range(t - b + 1):
                d = (n + (1 << (w - 1))) % (1 << w) - (1 << (w - 1))
                if d == -(1 << (w - 1)):
                    return None
                if d:
                    out[a, b, t - a - b] = d
                n = (n - d) >> w
            if n:
                return None
    return out


class TestPackedDivision:
    def test_divisible_random(self):
        rng = random.Random(131)
        for _ in range(400):
            f = rng.choice(DIV_FORMS)
            q = random_poly(rng, rng.randint(1, 10), coeff=rng.choice([1, 9, 200, 10**20]))
            if not q:
                continue
            p = poly_linear_mul(q, f)
            assert packed_div(p, f) == q

    def test_non_divisible_random(self):
        rng = random.Random(137)
        tried = 0
        for _ in range(400):
            f = rng.choice(DIV_FORMS)
            q = random_poly(rng, rng.randint(1, 10), coeff=rng.choice([1, 9, 10**20]))
            p = poly_add(poly_linear_mul(q, f), random_poly(rng, rng.randint(1, 3)))
            if p:
                tried += 1
                assert packed_div(p, f) == poly_div_linear(p, f)
        assert tried > 300

    def test_non_homogeneous_components_divide_alone(self):
        # f divides every component but one: the division fails
        rng = random.Random(139)
        for f in DIV_FORMS:
            q = {(2, 1, 0): 3, (0, 0, 1): -5, (1, 1, 1): 7}
            p = poly_linear_mul(q, f)
            assert packed_div(p, f) == q
            for m in [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 0), (3, 1, 0)]:
                if f in ((1, 0, 0), (0, 1, 0)) and m[f.index(1)]:
                    continue  # l1 or l2 divides the monomial
                bad = poly_add(p, {m: rng.choice([-1, 1])})
                assert poly_div_linear(bad, f) is None
                assert packed_div(bad, f) is None

    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_coefficients_at_the_slot_bound(self, size):
        top = (1 << (8 * size - 1)) - 1  # the largest coefficient of ``size`` bytes
        for f in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 1), (0, 3, -2)]:
            for c in (top, -top, top // 3, -(top // 5)):
                q = {(1, 0, 1): c, (0, 2, 0): -c, (0, 0, 2): 1}
                p = poly_linear_mul(q, f)
                assert packed_div(p, f) == q
                comps, size_p = _chunks(p)
                assert _unchunk(comps, size_p) == p
                assert _unchunk(_reslot(comps, size_p, 2 * size_p), 2 * size_p) == p
        # the widest coefficient of a size decides the size, one bit more does not fit
        assert _chunks({(1, 1, 0): top})[1] == size
        assert _chunks({(1, 1, 0): -top - 1})[1] == size + 1
        assert _chunks({(1, 1, 0): top + 1})[1] == size + 1

    def test_quotients_wider_than_the_numerator_widen(self):
        # (l1 + l2) * sum_j (-1)^j l1^(n-j) l2^j = l1^(n+1) + (-1)^n l2^(n+1): the
        # quotient's digits are as wide as the numerator's, then far wider
        f = (1, 1, 0)
        for c in (100, 127, 2**23 - 1):
            q = {(3 - j, j, 0): c * (-1) ** j for j in range(4)}
            p = poly_linear_mul(q, f)
            assert max(map(abs, p.values())) == c
            comps, size = _chunks(p)
            assert _divide_chunks(comps, size, f) is _WIDER
            assert packed_div(p, f) == q
        q = {(1, 0, 0): 1, (0, 1, 0): -1}
        for _ in range(6):
            q = poly_mul(q, q)
        p = poly_linear_mul(q, (1, 1, 1))
        assert packed_div(p, (1, 1, 1)) == q

    @pytest.mark.parametrize("f", [(1, 1, 1), (2, 0, 1), (1, -2, 0)])
    def test_digit_bound_is_tight(self, f):
        # ||f||_1 = 3, so quotient digits must lie in [-2^(w-3), 2^(w-3)).  A
        # quotient Q with digits just inside [-2^(w-2), 2^(w-2)) gives a
        # numerator N whose chunks are those of f*Q with the digits carried:
        # every remainder and identity holds for N, so only the digit bound
        # rules out f*Q = N, and N is not divisible by f.
        rng = random.Random(149)
        size, found = 1, 0
        w = 8 * size
        for _ in range(2000):
            q = {(a, b, 2 - a - b): rng.choice([-1, 1]) * rng.randint(48, 63)
                 for a in range(3) for b in range(3 - a) if rng.random() < 0.7}
            if not q:
                continue
            n = balanced(chunk_values(poly_linear_mul(q, f), w), size)
            if n is None or poly_div_linear(n, f) is not None:
                continue
            comps, size_n = _chunks(n)
            if size_n != size:
                continue
            found += 1
            assert _divide_chunks(comps, size, f) is _WIDER
            assert packed_div(n, f) is None
        assert found >= 20

    def test_l3_tests_the_top_slot(self):
        l3 = (0, 0, 1)
        assert packed_div({(0, 0, 1): 5, (1, 1, 1): -2, (0, 0, 3): 1}, l3) == {
            (0, 0, 0): 5, (1, 1, 0): -2, (0, 0, 2): 1
        }
        for m in [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 0)]:
            for c in (1, -1, 127, -127, 128, 10**9):
                p = {(1, 0, 1): 3, (0, 1, 1): -1, m: c}
                assert packed_div(p, l3) is None

    def test_expand_product_is_the_chain(self):
        rng = random.Random(151)
        assert _unchunk(*_product_chunks(5, {})) == {(0, 0, 0): 5}
        for _ in range(100):
            factors = {f: rng.randint(1, 4) for f in rng.sample(DIV_FORMS, rng.randint(1, 5))}
            c = rng.choice([1, -1, 3, 10**12])
            chain = poly_const_chain(c, factors)
            assert _unchunk(*_product_chunks(c, factors)) == chain


def poly_const_chain(c, factors):
    out = {(0, 0, 0): c}
    for p in sorted(factors):
        for _ in range(factors[p]):
            out = poly_linear_mul(out, p)
    return out


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

    def test_sum_cancels_form_with_equal_exponents(self):
        # 1/(l1*(l1+l2)) + 1/(l2*(l1+l2)) = 1/(l1*l2)
        a = inverse_form((1, 0, 0)) * inverse_form((1, 1, 0))
        b = inverse_form((0, 1, 0)) * inverse_form((1, 1, 0))
        assert (a + b).render() == "(1) / (l1*l2)"

    def test_sum_matches_reduced_common_denominator(self):
        rng = random.Random(23)
        forms = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)]
        for _ in range(60):
            shared = rng.choice(forms)
            a = random_lambdarat(rng) * inverse_form(shared) ** rng.randint(0, 2)
            b = random_lambdarat(rng) * inverse_form(shared) ** rng.randint(0, 2)
            b = b.scale(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
            scalar = a.scalar * b.scalar // math.gcd(a.scalar, b.scalar)
            factors = dict(a.factors)
            for p, e in b.factors.items():
                factors[p] = max(e, factors.get(p, 0))
            num = poly_add(lift_to(a, scalar, factors), lift_to(b, scalar, factors))
            expect = LambdaRat(num, scalar, factors)
            got = a + b
            assert (got.num, got.scalar, got.factors) == (
                expect.num, expect.scalar, expect.factors
            )
            assert_same(got, expect)
            # b - a has every pole of a, and all those not in b cancel again
            assert_same(a + (b - a), b)

    def test_sum_is_left_fold(self):
        rng = random.Random(29)
        assert_same(lambdarat_sum([]), LambdaRat.from_int(0))
        x = random_lambdarat(rng)
        assert_same(lambdarat_sum([x]), x)
        for n in range(2, 12):
            terms = [random_lambdarat(rng) for _ in range(n)]
            fold = LambdaRat.from_int(0)
            for t in terms:
                fold = fold + t
            assert_same(lambdarat_sum(terms), fold)
            assert_same(lambdarat_sum(iter(terms)), fold)

    def test_den_on_demand(self):
        # 1/(l1*(l1+l2)) + 1/(l2*(l1+l2)) against 1/(l1*l2) built directly
        def summed():
            a = inverse_form((1, 0, 0)) * inverse_form((1, 1, 0))
            return a + inverse_form((0, 1, 0)) * inverse_form((1, 1, 0))

        built = LambdaRat({(0, 0, 0): 1}, 1, {(1, 0, 0): 1, (0, 1, 0): 1})
        assert summed().den == built.den == {(1, 1, 0): 1}
        assert inverse_form((2, 2, 0)).den == {(1, 0, 0): 2, (0, 1, 0): 2}
        assert summed().render() == built.render()
        assert summed().evaluate_mod((2, 3, 5), 101) == built.evaluate_mod((2, 3, 5), 101)
        assert_same(summed().inv(), built.inv())
        assert summed().inv().render() == "l1*l2"
        # scale a value before and after its denominator was read
        third = Fraction(1, 3)
        expanded = summed()
        assert expanded.den == built.den
        for x in (summed(), expanded):
            y = x.scale(third)
            assert_same(y, built.scale(third))
            assert y.den == built.scale(third).den == {(1, 1, 0): 3}

    def test_evaluate_mod_from_factors(self, monkeypatch):
        # the value is num(pt) / den(pt) of the expanded polynomials, found
        # without expanding den, and None where a form vanishes mod p
        def expanded(*args):
            raise AssertionError("evaluate_mod expanded a denominator")

        def poly_at(p, point, mod):
            x, y, z = point
            return sum(c * x**a * y**b * z**e for (a, b, e), c in p.items()) % mod

        rng = random.Random(29)
        mod = (1 << 61) - 1
        for _ in range(20):
            v = random_lambdarat(rng) + random_lambdarat(rng)
            v = v.scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            point = tuple(rng.randrange(mod) for _ in range(3))
            with monkeypatch.context() as m:
                m.setattr(exactalg, "_product_chunks", expanded)
                got = v.evaluate_mod(point, mod)
            want = poly_at(v.num, point, mod) * pow(poly_at(v.den, point, mod), -1, mod)
            assert got == want % mod
        v = random_lambdarat(rng) * inverse_form((1, 1, 0))
        monkeypatch.setattr(exactalg, "_product_chunks", expanded)
        assert v.evaluate_mod((3, mod - 3, 5), mod) is None
        assert v.evaluate_mod((3, 2 * mod - 3, 5), mod) is None

    def test_evaluate_all_mod_matches_one_by_one(self):
        rng = random.Random(31)
        values = [random_lambdarat(rng) for _ in range(12)] + [LambdaRat.from_int(0)]
        values.append(inverse_form((1, 0, 0)))
        points = [(2, 3, 5), (0, 7, 11), (101 * 4, 1, 1)]
        assert evaluate_all_mod(values, points, 101) == [
            [v.evaluate_mod(point, 101) for point in points] for v in values
        ]
        assert evaluate_all_mod(values, points, 101)[-1][1] is None
        assert evaluate_all_mod(values, [], 101) == [[] for _ in values]

        # a FactoredWeightProduct is evaluated unexpanded, to the residues
        # and poles of its expansion, beside LambdaRats sharing its powers of
        # forms: random products, the roots of the empty vertex through q^3
        # and those roots relabelled into a chart of local P^2
        roots = [dt_vertex_root(sp)[1] for n in range(4) for sp in enumerate_pointlike(n)]
        forms = substitution_forms(load_geometry("localp2").charts[1])
        roots += [relabel_root(r, forms)[1] for r in roots]
        factored = [random_factored(rng) for _ in range(12)] + [r.value for r in roots]
        factored += [FactoredWeightProduct.zero(), FactoredWeightProduct(-1, Fraction(3, 4))]
        expanded = [f.expand() for f in factored]
        # points on the poles l1, l1 + l2 and l1 + l2 + l3, and random ones
        for mod in (101, PRIME):
            points = [(0, 7, 11), (3, mod - 3, 5), (1, 1, mod - 2)]
            points += [tuple(rng.randrange(mod) for _ in range(3)) for _ in range(6)]
            got = evaluate_all_mod(factored + values, points, mod)
            assert got == evaluate_all_mod(expanded + values, points, mod)
            assert any(None in col for col in got[12:len(roots) + 12])

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


def poly_content(p):
    return math.gcd(*p.values())


def drop_content_reference(num, scalar):
    """Dict oracle of ``_drop_content``: the polynomial and the scalar over
    their common integer content."""
    g = math.gcd(poly_content(num), scalar)
    return {m: c // g for m, c in num.items()}, scalar // g


def narrowest_reference(p):
    """The fewest bytes s with every coefficient of p in [-2^(8s-1),
    2^(8s-1))."""
    s = 1
    while not all(-(1 << (8 * s - 1)) <= c < 1 << (8 * s - 1) for c in p.values()):
        s += 1
    return s


class TestPackedNumerators:
    def test_sum_orders_agree(self):
        # the balanced tree, a left fold and a shuffled tree leave their
        # numerators at different widths, yet give equal fields and text
        rng = random.Random(157)
        roots = [dt_vertex_root(sp)[1] for n in range(4) for sp in enumerate_pointlike(n)]
        for n in range(2, 16):
            terms = [
                random_lambdarat(rng).scale(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
                for _ in range(n)
            ]
            terms += [r.expand().scale(rng.choice([1, -1])) for r in rng.sample(roots, 4)]
            tree = lambdarat_sum(terms)
            fold = LambdaRat.from_int(0)
            for t in terms:
                fold = fold + t
            shuffled = terms[:]
            rng.shuffle(shuffled)
            for other in (fold, lambdarat_sum(shuffled)):
                assert_same(tree, other)
                assert (tree.num, tree.scalar, tree.factors) == (
                    other.num, other.scalar, other.factors
                )

    @pytest.mark.parametrize("s", [1, 2, 3, 8])
    def test_extreme_digits_pass_exactly(self, s):
        top = (1 << (8 * s - 1)) - 1
        num = {(2, 0, 0): top, (1, 1, 0): -top, (0, 1, 1): top, (0, 0, 2): -1}
        facs = {(1, 1, 0): 1}
        x = LambdaRat(num, 1, facs)
        assert (x.num, x.size, _narrowest(x.comps, x.size)) == (num, s, s)
        for neg in (-x, x.scale(-1), x.scale(Fraction(-2, 2))):
            assert (neg.num, neg.size) == (poly_neg(num), s)
            assert_same(-neg, x)
        assert (x + x).num == poly_scale(num, 2)
        assert (x - x).is_zero()
        assert_same((x + x) - x, x)
        assert_same(lambdarat_sum([x, -x, x.scale(-1), x, x]), x)
        # a content of 2 shared with the scalar cancels in the sum
        half = LambdaRat(num, 2, facs)
        assert_same(half + half, x)
        assert (half + half).num == num

    def test_reslot_round_trip(self):
        rng = random.Random(163)
        for _ in range(150):
            p = random_poly(rng, rng.randint(1, 12), coeff=rng.choice([1, 127, 128, 10**6, 10**30]))
            if not p:
                continue
            comps, size = _chunks(p)
            s = narrowest_reference(p)
            assert _narrowest(comps, size) == s <= size
            for new in (size + 1, size + 3, 2 * size):
                wide = _reslot(comps, size, new)
                assert _unchunk(wide, new) == p
                assert _narrowest(wide, new) == s
                assert _reslot(wide, new, size) == comps
                narrow = _reslot(wide, new, s + 1)
                assert _unchunk(narrow, s + 1) == p
                assert _reslot(narrow, s + 1, new) == wide

    def test_drop_content_matches_dict_oracle(self):
        # odd primes below and above 2^16, and products of two primes above
        # 2^16, the largest past 2^32
        big = [65537, 2**31 - 1, 65537 * 65539, (2**31 - 1) ** 2]
        rng = random.Random(167)
        cancelled = 0
        for _ in range(400):
            q = random_poly(rng, rng.randint(1, 10), coeff=rng.choice([1, 9, 10**20]))
            if not q:
                continue
            c = rng.choice([1, 2, 3, 5, 9, 16, 27, 45, *big])
            num = poly_scale(q, c * rng.choice([1, -1]))
            scalar = rng.choice([1, 2, 3, 4, 6, 9, 12, 24, 120, 720, 3**7, 2**20, *big])
            scalar *= rng.choice([1, c, 3])
            want = drop_content_reference(num, scalar)
            cancelled += want[1] < scalar
            comps, size = _chunks(num)
            for width in (size, size + 1, 2 * size + 1):
                got, got_size, got_scalar = _drop_content(
                    _reslot(comps, size, width), width, scalar
                )
                assert (_unchunk(got, got_size), got_scalar) == want
        assert cancelled > 100
        # both primes of 65537 * 65539 divide every chunk of 65537 * (l1 + c*l3)
        # at 5-byte slots, but only 65537 divides its content
        size = 5
        c = -pow(2, 8 * size, 65539)
        num = {(1, 0, 0): 65537, (0, 0, 1): 65537 * c}
        comps = _pack(num, size)
        assert all(n % (65537 * 65539) == 0 for ch in comps.values() for n in ch)
        got, got_size, got_scalar = _drop_content(comps, size, 65537 * 65539)
        assert (_unchunk(got, got_size), got_scalar) == ({(1, 0, 0): 1, (0, 0, 1): c}, 65539)

    def test_planted_content_of_three_cancels(self):
        rng = random.Random(173)
        for _ in range(40):
            q = random_poly(rng, rng.randint(1, 8))
            if not q or poly_content(q) % 3 == 0:
                continue
            for c, scalar in ((3, 3), (9, 3), (3, 9), (9, 27), (6, 12), (3, 6)):
                x = LambdaRat(poly_scale(q, c), scalar)
                g = math.gcd(c * poly_content(q), scalar)
                assert (x.num, x.scalar) == ({m: v * c // g for m, v in q.items()}, scalar // g)
                assert math.gcd(poly_content(x.num), x.scalar) == 1
            # and in a sum: q/6 + q/6 + q/6 = q/2
            third = LambdaRat(q, 6)
            assert_same(lambdarat_sum([third] * 3), LambdaRat(q, 2))

    def test_content_prime_to_three_survives(self):
        # l1^3*l3 - l1*l3^3 vanishes at every point of F_3^3, and with l1 =
        # 2^w every chunk is divisible by 3, yet its content is 1: 3 must
        # not cancel against the scalar
        num = {(3, 0, 1): 1, (1, 0, 3): -1}
        assert all(
            sum(c * x**a * y**b * z**e for (a, b, e), c in num.items()) % 3 == 0
            for x in range(3) for y in range(3) for z in range(3)
        )
        comps, size = _chunks(num)
        assert all(n % 3 == 0 for ch in comps.values() for n in ch)
        x = LambdaRat(num, 3)
        assert (x.num, x.scalar) == (num, 3)
        assert x.render() == "(l1^3*l3 - l1*l3^3) / (3)"
        y = LambdaRat({(3, 0, 1): 1}, 3) + LambdaRat({(1, 0, 3): -2}, 3)
        assert_same(y + LambdaRat({(1, 0, 3): 1}, 3), x)
        assert_same(x.scale(3), LambdaRat(num))
        assert_same(x.scale(Fraction(3, 5)), LambdaRat(num, 5))

    def test_sums_of_expanded_roots_never_unpack(self, monkeypatch):
        # the expansions and every sum stay packed: no numerator is decoded
        # (_unchunk) or encoded from a dict (_pack) between them
        rng = random.Random(179)
        roots = [dt_vertex_root(sp)[1] for n in range(6) for sp in enumerate_pointlike(n)]
        calls = []
        for module in (exactalg, packed):
            for name in ("_unchunk", "_pack"):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(
                        module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
                    )
        total = lambdarat_sum(r.value.expand().scale(rng.choice([1, -1])) for r in roots)
        parts = [lambdarat_sum(r.value.expand() for r in roots[i::3]) for i in range(3)]
        assert calls == []
        monkeypatch.undo()
        fold = LambdaRat.from_int(0)
        for p in parts:
            fold = fold + p
        assert_same(lambdarat_sum(parts), fold)
        assert not total.is_zero()


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
