"""Exact arithmetic kernels for equivariant vertex computations.

Four layers, all exact (no floating point anywhere):

* ``TLaurent`` -- Laurent polynomials in the torus characters t1..t4 with
  integer coefficients and Z^4 exponents.
* ``TChar`` -- fractions of Laurent polynomials whose denominators are
  products of factors (1 - t^w); the home of rational characters.
* ``LambdaRat`` / ``FactoredWeightProduct`` -- rational functions in the
  equivariant parameters l1, l2, l3 (l4 is eliminated through
  l1+l2+l3+l4 = 0) whose denominators are products of linear forms, as
  Euler classes are.  A LambdaRat has one normal form, num / (scalar *
  prod p^e), so equal values are equal fields and render to equal text;
  it divides by units and, through ``FactoredWeightProduct``, by any
  product of linear forms.
* ``QSeries`` -- truncated Laurent series in q with LambdaRat coefficients.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Weight = tuple  # 4-tuple of ints, the exponent vector of t^w
Form = tuple    # 3-tuple of ints, the coefficients of c1*l1+c2*l2+c3*l3

ONE4 = (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# dict kernels: Laurent polynomials in t1..t4 map 4-tuples of exponents to
# nonzero integers, polynomials in l1..l3 map 3-tuples; no kernel mutates
# its inputs.


def laurent_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def laurent_sub(a, b):
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) - c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def laurent_neg(a):
    return {w: -c for w, c in a.items()}


def laurent_scale(a, k):
    if k == 0:
        return {}
    if k == 1:
        return dict(a)
    return {w: c * k for w, c in a.items()}


def laurent_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bi = list(b.items())
    for (w1, w2, w3, w4), c in a.items():
        for (v1, v2, v3, v4), d in bi:
            w = (w1 + v1, w2 + v2, w3 + v3, w4 + v4)
            s = out.get(w, 0) + c * d
            if s:
                out[w] = s
            else:
                del out[w]
    return out


def laurent_shift(a, w):
    w1, w2, w3, w4 = w
    if not (w1 or w2 or w3 or w4):
        return dict(a)
    return {(v1 + w1, v2 + w2, v3 + w3, v4 + w4): c
            for (v1, v2, v3, v4), c in a.items()}


def laurent_bar(a):
    return {(-w1, -w2, -w3, -w4): c for (w1, w2, w3, w4), c in a.items()}


def laurent_subst(a, cols):
    """Substitute t_i -> t^cols[i]; cols are four 4-tuples (a matrix by columns)."""
    (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3), (a4, b4, c4, d4) = cols
    out = {}
    for (w1, w2, w3, w4), c in a.items():
        w = (w1 * a1 + w2 * a2 + w3 * a3 + w4 * a4,
             w1 * b1 + w2 * b2 + w3 * b3 + w4 * b4,
             w1 * c1 + w2 * c2 + w3 * c3 + w4 * c4,
             w1 * d1 + w2 * d2 + w3 * d3 + w4 * d4)
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            del out[w]
    return out


def poly_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_sub(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_neg(a):
    return {m: -c for m, c in a.items()}


def poly_scale(a, k):
    if k == 0:
        return {}
    if k == 1:
        return dict(a)
    return {m: c * k for m, c in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bi = list(b.items())
    for (e1, e2, e3), c in a.items():
        for (f1, f2, f3), d in bi:
            m = (e1 + f1, e2 + f2, e3 + f3)
            s = out.get(m, 0) + c * d
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def poly_linear_mul(p, form):
    """Multiply p by the linear form c1*l1 + c2*l2 + c3*l3."""
    c1, c2, c3 = form
    out = {}
    for (e1, e2, e3), c in p.items():
        if c1:
            m = (e1 + 1, e2, e3)
            s = out.get(m, 0) + c * c1
            if s:
                out[m] = s
            else:
                del out[m]
        if c2:
            m = (e1, e2 + 1, e3)
            s = out.get(m, 0) + c * c2
            if s:
                out[m] = s
            else:
                del out[m]
        if c3:
            m = (e1, e2, e3 + 1)
            s = out.get(m, 0) + c * c3
            if s:
                out[m] = s
            else:
                del out[m]
    return out


class NotPolynomial(Exception):
    """A rational character failed to clear its denominator exactly."""


class DivisionNotUnit(Exception):
    """Division by a non-unit: a LambdaRat whose numerator is not constant,
    or a q-series whose order-0 coefficient is not such a unit."""


# ---------------------------------------------------------------------------
# weights and linear forms


def weight_form(w):
    """Linear form of t^w on the Calabi-Yau torus: w1*l1+w2*l2+w3*l3+w4*l4
    with l4 = -l1-l2-l3, i.e. the coefficient tuple (w1-w4, w2-w4, w3-w4)."""
    return (w[0] - w[3], w[1] - w[3], w[2] - w[3])


def canonical_form(f):
    """Split a nonzero form as sign * content * primitive, with the primitive
    part having positive first nonzero coefficient."""
    g = gcd(gcd(abs(f[0]), abs(f[1])), abs(f[2]))
    lead = f[0] if f[0] else (f[1] if f[1] else f[2])
    sign = 1 if lead > 0 else -1
    return sign, g, (f[0] // (sign * g), f[1] // (sign * g), f[2] // (sign * g))


def render_form(f):
    parts = []
    for c, name in zip(f, ("l1", "l2", "l3")):
        if c == 0:
            continue
        if not parts:
            parts.append(f"{c}*{name}" if abs(c) != 1 else (name if c > 0 else f"-{name}"))
        else:
            op = "+" if c > 0 else "-"
            a = abs(c)
            parts.append(f"{op}{a}*{name}" if a != 1 else f"{op}{name}")
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Laurent polynomials in t1..t4


class TLaurent:
    """Laurent polynomial in t1..t4; terms are held in a weight -> int map
    with no stored zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = (
            {tuple(w): c for w, c in terms.items() if c} if terms else {}
        )

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def monomial(cls, w, c=1):
        return cls({tuple(w): c}) if c else cls()

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def coeff(self, w):
        return self.terms.get(tuple(w), 0)

    def sorted_items(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        return TLaurent(laurent_add(self.terms, other.terms))

    def __sub__(self, other):
        return TLaurent(laurent_sub(self.terms, other.terms))

    def __neg__(self):
        return TLaurent(laurent_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return TLaurent(laurent_scale(self.terms, other))
        return TLaurent(laurent_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def shift(self, w):
        """Multiply by the monomial t^w."""
        return TLaurent(laurent_shift(self.terms, tuple(w)))

    def bar(self):
        """The involution t^w -> t^{-w}."""
        return TLaurent(laurent_bar(self.terms))

    def subst(self, cols):
        """Substitute t_i -> t^{cols[i]} for four weight vectors cols."""
        return TLaurent(laurent_subst(self.terms, tuple(map(tuple, cols))))

    def eval_at_one(self):
        return sum(self.terms.values())

    def min_total_degree(self):
        return min((sum(w) for w in self.terms), default=0)

    def truncate_total_degree(self, bound):
        return TLaurent({w: c for w, c in self.terms.items() if sum(w) <= bound})

    def __eq__(self, other):
        return isinstance(other, TLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.sorted_items()))

    def render(self):
        if not self.terms:
            return "0"
        chunks = []
        for w, c in self.sorted_items():
            mono = "*".join(
                f"t{i + 1}^{e}" if e != 1 else f"t{i + 1}"
                for i, e in enumerate(w)
                if e
            )
            a = abs(c)
            body = mono if (a == 1 and mono) else (f"{a}*{mono}" if mono else str(a))
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"TLaurent({self.render()})"

    def to_json(self):
        return [[list(w), c] for w, c in self.sorted_items()]

    @classmethod
    def from_json(cls, data):
        return cls({tuple(w): c for w, c in data})


def bar_involution(p):
    """t^w -> t^{-w}, termwise."""
    return p.bar()


def binomial_laurent(d):
    """The Laurent polynomial 1 - t^d."""
    d = tuple(d)
    return TLaurent({(0, 0, 0, 0): 1, d: -1}) if any(d) else TLaurent()


def laurent_div_binomial(num, d):
    """Exact division of a Laurent polynomial by (1 - t^d); None if inexact.

    Terms are eliminated in decreasing order of s(w) = -<d, w>; the divisor's
    leading term under this order is 1, so each step trades the current
    leading term for one with strictly smaller s.  Quotient terms of an exact
    division satisfy s >= smin(num) + |d|^2, which bounds the search.
    """
    terms = dict(num.terms)
    if not terms:
        return TLaurent()
    d = tuple(d)
    dd = sum(x * x for x in d)

    def skey(w):
        return -(d[0] * w[0] + d[1] * w[1] + d[2] * w[2] + d[3] * w[3])

    smin = min(skey(w) for w in terms)
    quot = {}
    import heapq

    heap = [(-skey(w), w) for w in terms]
    heapq.heapify(heap)
    while heap:
        negs, w = heapq.heappop(heap)
        c = terms.get(w)
        if not c:
            continue
        s = -negs
        if s < smin + dd:
            return None
        quot[w] = quot.get(w, 0) + c
        del terms[w]
        w2 = (w[0] + d[0], w[1] + d[1], w[2] + d[2], w[3] + d[3])
        prev = terms.get(w2, 0)
        new = prev + c
        if new:
            if not prev:
                heapq.heappush(heap, (-skey(w2), w2))
            terms[w2] = new
        else:
            terms.pop(w2, None)
    if terms:
        return None
    return TLaurent(quot)


# ---------------------------------------------------------------------------
# rational characters


class TChar:
    """Fraction num / prod_d (1 - t^d); the denominator is a multiset of
    nonzero weights.  Cancellation happens only by exact polynomial division,
    so equality of values is decided by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        if isinstance(num, TLaurent):
            self.num = num
        else:
            self.num = TLaurent(num)
        den = tuple(sorted(tuple(d) for d in den))
        for d in den:
            if not any(d):
                raise ValueError("denominator weight must be nonzero")
        self.den = den

    @classmethod
    def from_laurent(cls, p):
        return cls(p, ())

    def is_polynomial(self):
        return not self.den

    def to_laurent(self):
        reduced = self.reduce()
        if reduced.den:
            raise NotPolynomial(
                "denominator factors remain: "
                + ", ".join(f"(1-t^{list(d)})" for d in reduced.den)
            )
        return reduced.num

    def reduce(self):
        """Divide the numerator by denominator factors whenever the division
        is exact; idempotent and value-preserving."""
        num = self.num
        remaining = []
        for d in self.den:
            if num.is_zero():
                continue
            q = laurent_div_binomial(num, d)
            if q is None:
                remaining.append(d)
            else:
                num = q
        if num.is_zero():
            remaining = []
        return TChar(num, remaining)

    def den_laurent(self):
        out = TLaurent.one()
        for d in self.den:
            out = out * binomial_laurent(d)
        return out

    def __add__(self, other):
        if isinstance(other, TLaurent):
            other = TChar(other)
        from collections import Counter

        ca, cb = Counter(self.den), Counter(other.den)
        common = ca | cb
        exa = list((common - ca).elements())
        exb = list((common - cb).elements())
        na = self.num
        for d in exa:
            na = na * binomial_laurent(d)
        nb = other.num
        for d in exb:
            nb = nb * binomial_laurent(d)
        return TChar(na + nb, tuple(common.elements())).reduce()

    def __sub__(self, other):
        if isinstance(other, TLaurent):
            other = TChar(other)
        return self + TChar(-other.num, other.den)

    def __neg__(self):
        return TChar(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, TLaurent):
            other = TChar(other)
        return TChar(self.num * other.num, self.den + other.den).reduce()

    def bar(self):
        """Apply t^w -> t^{-w} to the value, keeping denominators in the
        standard (1 - t^d) shape: 1/(1-t^{-d}) = -t^d/(1-t^d)."""
        shift = (0, 0, 0, 0)
        for d in self.den:
            shift = (shift[0] + d[0], shift[1] + d[1], shift[2] + d[2], shift[3] + d[3])
        num = self.num.bar().shift(shift)
        if len(self.den) % 2:
            num = -num
        return TChar(num, self.den)

    def eq_rational(self, other):
        if isinstance(other, TLaurent):
            other = TChar(other)
        return self.num * other.den_laurent() == other.num * self.den_laurent()

    def expand_series(self, bound):
        """Truncated expansion as a Laurent series, keeping terms of total
        degree <= bound.  Denominator weights must be componentwise >= 0 or
        componentwise <= 0 (each factor expands with non-negative degrees)."""
        out = self.num
        extra = max(0, -out.min_total_degree())
        fbound = bound + extra
        for d in self.den:
            if all(x >= 0 for x in d):
                step, pref, sign = d, (0, 0, 0, 0), 1
            elif all(x <= 0 for x in d):
                nd = tuple(-x for x in d)
                step, pref, sign = nd, nd, -1
            else:
                raise ValueError(f"cannot expand denominator weight {d}")
            degstep = sum(step)
            geom = {}
            w = pref
            while sum(w) <= fbound:
                geom[w] = sign
                w = (w[0] + step[0], w[1] + step[1], w[2] + step[2], w[3] + step[3])
            out = (out * TLaurent(geom)).truncate_total_degree(fbound)
        return out.truncate_total_degree(bound)

    def __eq__(self, other):
        return (
            isinstance(other, TChar)
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self):
        if not self.den:
            return f"TChar({self.num.render()})"
        den = " * ".join(f"(1-t^{list(d)})" for d in self.den)
        return f"TChar(({self.num.render()}) / {den})"


def tchar_reduce(z):
    """Reduce a rational character; returns a TLaurent when the denominator
    multiset empties and the reduced TChar otherwise."""
    r = z.reduce()
    return r.num if not r.den else r


# ---------------------------------------------------------------------------
# polynomials in l1..l3 (plain dict helpers)


def poly_const(c):
    return {(0, 0, 0): c} if c else {}


def poly_from_form(f):
    out = {}
    for i, c in enumerate(f):
        if c:
            m = [0, 0, 0]
            m[i] = 1
            out[tuple(m)] = c
    return out


def poly_content(p):
    g = 0
    for c in p.values():
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def poly_div_exact_int(p, k):
    return {m: c // k for m, c in p.items()}


def poly_div_linear(p, form):
    """Exact division of an integer polynomial by a primitive linear form;
    returns the integer quotient or None when the division is not exact.

    Writing p = sum_k A_k x^k in the pivot variable and f = a*x + r, the
    scaled tails T_0 = A_d, T_j = a^j A_{d-j} - r T_{j-1} stay integral and
    give Q_{d-1-j} = T_j / a^{j+1} with remainder T_d; everything runs on
    integer polynomial kernels.
    """
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
    tails = []
    t = levels.get(deg, {})
    tails.append(t)
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
        kpiv = deg - 1 - j
        for m, c in tail.items():
            if c % apow:
                # cannot happen for a primitive divisor over the integers
                return None
            q = c // apow
            if q:
                key = (kpiv, m[1], m[2]) if piv == 0 else (
                    (m[0], kpiv, m[2]) if piv == 1 else (m[0], m[1], kpiv)
                )
                out[key] = q
    return out


def poly_eval_mod(p, point, mod):
    x, y, z = (a % mod for a in point)
    total = 0
    for (e1, e2, e3), c in p.items():
        total = (total + c * pow(x, e1, mod) * pow(y, e2, mod) * pow(z, e3, mod)) % mod
    return total


def render_poly(p):
    if not p:
        return "0"
    chunks = []
    for m, c in sorted(p.items(), reverse=True):
        mono = "*".join(
            f"l{i + 1}^{e}" if e != 1 else f"l{i + 1}" for i, e in enumerate(m) if e
        )
        a = abs(c)
        body = mono if (a == 1 and mono) else (f"{a}*{mono}" if mono else str(a))
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# the rational function field in l1, l2, l3


def _expand_product(c, factors):
    """The polynomial c * prod p^e, multiplied out in sorted factor order."""
    out = poly_const(c)
    for p in sorted(factors):
        for _ in range(factors[p]):
            out = poly_linear_mul(out, p)
    return out


class LambdaRat:
    """Exact rational function num / (scalar * prod p^e) in l1, l2, l3.

    ``num`` is an integer polynomial, ``scalar`` a positive int and each
    ``p`` a primitive linear form with positive first nonzero coefficient,
    the shape of every equivariant Euler class.  In the normal form no ``p``
    divides ``num`` and gcd(content(num), scalar) = 1; zero is 0 / 1.  The
    form is unique, so equality compares fields and equal values render to
    equal text.  ``den`` is the expanded denominator.  Division is by units
    (``inv``) or, for any product of linear forms, by multiplying with
    ``(FactoredWeightProduct ** -1).expand()``.
    """

    __slots__ = ("num", "scalar", "factors", "den")

    def __init__(self, num, scalar=1, factors=None):
        """``factors`` maps primitive positive-lead forms to positive
        exponents; the factors dividing ``num`` and the common integer
        content cancel."""
        num = {tuple(m): c for m, c in num.items() if c}
        if scalar < 1:
            raise ValueError("scalar must be a positive int")
        out_facs = {}
        for p in sorted(factors or ()):
            e = factors[p]
            while e > 0 and num:
                q = poly_div_linear(num, p)
                if q is None:
                    break
                num = q
                e -= 1
            if e > 0:
                out_facs[p] = e
        if not num:
            scalar, out_facs = 1, {}
        g = gcd(poly_content(num), scalar)
        if g > 1:
            num, scalar = poly_div_exact_int(num, g), scalar // g
        self.num, self.scalar, self.factors = num, scalar, out_facs
        self.den = _expand_product(scalar, out_facs)

    @classmethod
    def _normal(cls, num, scalar, factors, den):
        """Wrap fields already in normal form, skipping the reductions."""
        out = cls.__new__(cls)
        out.num, out.scalar, out.factors, out.den = num, scalar, factors, den
        return out

    @classmethod
    def from_int(cls, k):
        return cls(poly_const(k))

    def is_zero(self):
        return not self.num

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, int):
            other = LambdaRat.from_int(other)
        if not self.num:
            return other
        if not other.num:
            return self
        s1, f1 = self.scalar, self.factors
        s2, f2 = other.scalar, other.factors
        ls = s1 * s2 // gcd(s1, s2)
        keys = sorted(set(f1) | set(f2))
        lf = {p: max(f1.get(p, 0), f2.get(p, 0)) for p in keys}
        n1 = poly_scale(self.num, ls // s1)
        for p in keys:
            for _ in range(lf[p] - f1.get(p, 0)):
                n1 = poly_linear_mul(n1, p)
        n2 = poly_scale(other.num, ls // s2)
        for p in keys:
            for _ in range(lf[p] - f2.get(p, 0)):
                n2 = poly_linear_mul(n2, p)
        return LambdaRat(poly_add(n1, n2), ls, lf)

    __radd__ = __add__

    def __neg__(self):
        return LambdaRat._normal(
            poly_neg(self.num), self.scalar, self.factors, self.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        facs = dict(self.factors)
        for p, e in other.factors.items():
            facs[p] = facs.get(p, 0) + e
        return LambdaRat(
            poly_mul(self.num, other.num), self.scalar * other.scalar, facs
        )

    __rmul__ = __mul__

    def scale(self, k):
        """Multiply by a rational constant; no factor can start dividing the
        numerator, so only the integer content is reduced."""
        k = Fraction(k)
        if k == 0 or not self.num:
            return LambdaRat.from_int(0)
        num = poly_scale(self.num, k.numerator)
        scalar = self.scalar * k.denominator
        g = gcd(poly_content(num), scalar)
        if g > 1:
            num, scalar = poly_div_exact_int(num, g), scalar // g
        den = self.den
        if scalar != self.scalar:
            den = {m: c // self.scalar * scalar for m, c in den.items()}
        return LambdaRat._normal(num, scalar, self.factors, den)

    def inv(self):
        """The inverse of a unit, a value with a constant numerator."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        c = self.num.get((0, 0, 0))
        if c is None or len(self.num) != 1:
            raise DivisionNotUnit(f"{self.render()} is not a unit")
        return LambdaRat(poly_scale(self.den, 1 if c > 0 else -1), abs(c))

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.scale(Fraction(1, other))
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = LambdaRat.from_int(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = LambdaRat.from_int(other)
        if not isinstance(other, LambdaRat):
            return NotImplemented
        return (
            self.num == other.num
            and self.scalar == other.scalar
            and self.factors == other.factors
        )

    __hash__ = None

    # -- evaluation (used for hashing in the sign solver)

    def evaluate_mod(self, point, mod):
        den = poly_eval_mod(self.den, point, mod)
        if den == 0:
            return None
        num = poly_eval_mod(self.num, point, mod)
        return num * pow(den, -1, mod) % mod

    def render(self):
        if not self.num:
            return "0"
        if self.scalar == 1 and not self.factors:
            return render_poly(self.num)
        return f"({render_poly(self.num)}) / ({render_poly(self.den)})"

    def __repr__(self):
        return f"LambdaRat({self.render()})"


def lambdarat_sum(terms):
    """Deterministic left fold of a list of LambdaRats."""
    total = LambdaRat.from_int(0)
    for t in terms:
        total = total + t
    return total


# ---------------------------------------------------------------------------
# factored products of linear forms


class FactoredWeightProduct:
    """sign * scalar * prod form^exp with primitive positive-lead linear
    forms; the factored shape of (square roots of) equivariant Euler classes.
    ``scalar`` is a positive rational, or 0 for the zero product."""

    __slots__ = ("sign", "scalar", "factors")

    def __init__(self, sign=1, scalar=Fraction(1), factors=None):
        scalar = Fraction(scalar)
        if scalar < 0:
            raise ValueError("scalar must be non-negative; use sign")
        if scalar == 0:
            sign, factors = 1, {}
        self.sign = 1 if sign >= 0 else -1
        self.scalar = scalar
        self.factors = {tuple(f): e for f, e in (factors or {}).items() if e}
        for f in self.factors:
            s, g, p = canonical_form(f)
            if s != 1 or g != 1 or p != f:
                raise ValueError(f"factor {f} is not primitive with positive lead")

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def zero(cls):
        return cls(scalar=Fraction(0))

    def is_zero(self):
        return self.scalar == 0

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FactoredWeightProduct.zero()
        factors = dict(self.factors)
        for f, e in other.factors.items():
            factors[f] = factors.get(f, 0) + e
        return FactoredWeightProduct(
            self.sign * other.sign, self.scalar * other.scalar, factors
        )

    def __pow__(self, k):
        if self.is_zero():
            if k <= 0:
                raise ZeroDivisionError("zero product to a non-positive power")
            return self
        return FactoredWeightProduct(
            self.sign if k % 2 else 1,
            self.scalar**k,
            {f: e * k for f, e in self.factors.items()},
        )

    def mul_form(self, f, exp=1):
        """Multiply by an arbitrary nonzero integer linear form to a power."""
        s, g, p = canonical_form(f)
        factors = dict(self.factors)
        factors[p] = factors.get(p, 0) + exp
        if not factors[p]:
            del factors[p]
        sign = self.sign * (s ** (exp % 2))
        return FactoredWeightProduct(sign, self.scalar * Fraction(g) ** exp, factors)

    def expand(self):
        """Expand to a LambdaRat: the positive factors into the numerator,
        the negative ones into the denominator."""
        if self.is_zero():
            return LambdaRat.from_int(0)
        pos = {f: e for f, e in self.factors.items() if e > 0}
        neg = {f: -e for f, e in self.factors.items() if e < 0}
        num = _expand_product(self.sign * self.scalar.numerator, pos)
        den = _expand_product(self.scalar.denominator, neg)
        # distinct primitive forms are coprime and the Fraction is reduced,
        # so the quotient is already in normal form
        return LambdaRat._normal(num, self.scalar.denominator, neg, den)

    def __eq__(self, other):
        return (
            isinstance(other, FactoredWeightProduct)
            and self.sign == other.sign
            and self.scalar == other.scalar
            and self.factors == other.factors
        )

    __hash__ = None

    def render(self):
        if self.is_zero():
            return "0"
        head = f"{'+' if self.sign > 0 else '-'}{self.scalar}"
        body = " * ".join(
            f"({render_form(f)})^{e}" if e != 1 else f"({render_form(f)})"
            for f, e in sorted(self.factors.items())
        )
        return f"{head} * {body}" if body else head

    def __repr__(self):
        return f"FactoredWeightProduct({self.render()})"

    def to_json(self):
        return {
            "sign": self.sign,
            "scalar": [self.scalar.numerator, self.scalar.denominator],
            "factors": [[list(f), e] for f, e in sorted(self.factors.items())],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["sign"],
            Fraction(data["scalar"][0], data["scalar"][1]),
            {tuple(f): e for f, e in data["factors"]},
        )


# ---------------------------------------------------------------------------
# truncated q-series


class QSeries:
    """Truncated Laurent series in q with LambdaRat coefficients; orders at
    and above ``trunc`` are unknown and never read or written."""

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc, coeffs=None):
        self.trunc = trunc
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if k >= trunc:
                    raise ValueError(f"order {k} at or above truncation {trunc}")
                if not v.is_zero():
                    self.coeffs[k] = v

    @classmethod
    def zero(cls, trunc):
        return cls(trunc)

    @classmethod
    def one(cls, trunc):
        return cls(trunc, {0: LambdaRat.from_int(1)} if trunc > 0 else {})

    @property
    def lowest_order(self):
        return min(self.coeffs) if self.coeffs else self.trunc

    def coefficient(self, k):
        if k >= self.trunc:
            raise ValueError(f"order {k} not known below truncation {self.trunc}")
        return self.coeffs.get(k, LambdaRat.from_int(0))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = {}
        for k in sorted(set(self.coeffs) | set(other.coeffs)):
            if k >= trunc:
                continue
            v = self.coeffs.get(k)
            w = other.coeffs.get(k)
            out[k] = v + w if (v is not None and w is not None) else (v or w)
        return QSeries(trunc, out)

    def __neg__(self):
        return QSeries(self.trunc, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        trunc = min(self.trunc + other.lowest_order, other.trunc + self.lowest_order)
        out = {}
        for i, a in sorted(self.coeffs.items()):
            for j, b in sorted(other.coeffs.items()):
                k = i + j
                if k >= trunc:
                    continue
                prod = a * b
                out[k] = out[k] + prod if k in out else prod
        return QSeries(trunc, out)

    def scale(self, c):
        return QSeries(self.trunc, {k: v * c for k, v in self.coeffs.items()})

    def shift(self, n):
        """Multiply by q^n."""
        return QSeries(self.trunc + n, {k + n: v for k, v in self.coeffs.items()})

    def divide_by_unit(self, other):
        if other.lowest_order != 0 or other.coefficient(0).is_zero():
            raise DivisionNotUnit("divisor must have a nonzero coefficient at order 0")
        trunc = min(self.trunc, other.trunc)
        inv0 = other.coefficient(0).inv()
        out = {}
        lo = self.lowest_order
        for k in range(lo, trunc):
            acc = self.coeffs.get(k, LambdaRat.from_int(0))
            for j, c in out.items():
                if 0 < k - j < other.trunc:
                    b = other.coeffs.get(k - j)
                    if b is not None:
                        acc = acc - c * b
            if not acc.is_zero():
                out[k] = acc * inv0
        return QSeries(trunc, out)

    def eq_mod(self, other, n=None):
        """Exact coefficientwise equality below min(truncations, n)."""
        trunc = min(self.trunc, other.trunc)
        if n is not None:
            trunc = min(trunc, n)
        for k in sorted(set(self.coeffs) | set(other.coeffs)):
            if k >= trunc:
                continue
            if not (self.coefficient(k) == other.coefficient(k)):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, QSeries)
            and self.trunc == other.trunc
            and self.eq_mod(other)
        )

    __hash__ = None

    def render(self):
        if not self.coeffs:
            return f"0 + O(q^{self.trunc})"
        parts = [
            f"({v.render()}) * q^{k}" if k else f"({v.render()})"
            for k, v in sorted(self.coeffs.items())
        ]
        return " + ".join(parts) + f" + O(q^{self.trunc})"

    def __repr__(self):
        return f"QSeries({self.render()})"

    def to_json(self):
        return {
            "truncation": self.trunc,
            "coefficients": [
                {"order": k, "lambda_rat": v.render()}
                for k, v in sorted(self.coeffs.items())
            ],
        }


def qexp(c, trunc):
    """exp(c*q) truncated at q^trunc."""
    out = {}
    term = LambdaRat.from_int(1)
    for k in range(0, max(trunc, 0)):
        if k:
            term = term * c / k
        out[k] = term
    return QSeries(trunc, out)
