"""Exact arithmetic kernels for equivariant vertex computations.

Three layers, all exact (no floating point anywhere):

* ``TLaurent`` -- Laurent polynomials in the torus characters t1..t4 with
  integer coefficients and Z^4 exponents.  Characters never need a
  denominator: the vertex is computed in closed form, and the exact
  division by (1 - t^w) (``laurent_div_binomial``) serves only the
  division oracles of ``vertexcalc``.
* ``LambdaRat`` / ``FactoredWeightProduct`` -- rational functions in the
  equivariant parameters l1, l2, l3 (l4 is eliminated through
  l1+l2+l3+l4 = 0) whose denominators are products of linear forms, as
  Euler classes are.  A LambdaRat has one normal form, num / (scalar *
  prod p^e), so equal values are equal fields and render to equal text;
  it divides by units and, through ``FactoredWeightProduct``, by any
  product of linear forms.  Numerators are held as packed integers
  (Kronecker substitution, ``dt4vertex.packed``), one int per power of l2
  in each homogeneous component, and a sum runs on them from the lift of
  its numerators to the common denominator, through the exact trial
  divisions by the forms that may cancel and the cancellation of integer
  content, to its quotient; only rendering, products, substitutions and
  evaluations unpack them.
* ``QSeries`` -- truncated Laurent series in q with LambdaRat coefficients.

Values do not change after construction.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .packed import (
    _cancel_forms,
    _chunks,
    _drop_content,
    _lift,
    _product_chunks,
    _reslot,
    _unchunk,
)

Weight = tuple  # 4-tuple of ints, the exponent vector of t^w
Form = tuple    # 3-tuple of ints, the coefficients of c1*l1+c2*l2+c3*l3

ONE4 = (1, 1, 1, 1)

# the prime of the sign solver's evaluations
PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# dict kernels: Laurent polynomials in t1..t4 map 4-tuples of exponents to
# nonzero integers, polynomials in l1..l3 map 3-tuples; no kernel mutates
# its inputs.  The additive kernels ``poly_add``, ``poly_sub``, ``poly_neg``
# and ``poly_scale`` never look inside a key and serve both.


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
    """An exact division by (1 - t^w) left a remainder."""


class DivisionNotUnit(Exception):
    """Division by a non-unit: a LambdaRat whose numerator is not constant,
    or a q-series whose order-0 coefficient is not such a unit."""


# ---------------------------------------------------------------------------
# weights and linear forms


def weight_form(w):
    """Linear form of t^w on the Calabi-Yau torus: w1*l1+w2*l2+w3*l3+w4*l4
    with l4 = -l1-l2-l3, i.e. the coefficient tuple (w1-w4, w2-w4, w3-w4)."""
    return (w[0] - w[3], w[1] - w[3], w[2] - w[3])


@functools.lru_cache(maxsize=1 << 12)
def canonical_form(f):
    """Split a nonzero form as sign * content * primitive, with the primitive
    part having positive first nonzero coefficient.  Results are kept, so
    equal forms share one primitive tuple in every factor dict."""
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
        return TLaurent(poly_add(self.terms, other.terms))

    def __sub__(self, other):
        return TLaurent(poly_sub(self.terms, other.terms))

    def __neg__(self):
        return TLaurent(poly_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return TLaurent(poly_scale(self.terms, other))
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


def poly_substitute(p, forms):
    """p(forms[0], forms[1], forms[2]) for linear forms (c1, c2, c3), by
    Horner's rule in l1, then in l2 and l3 for each coefficient."""

    def horner(terms, i):
        if i == 3:
            return poly_const(terms[()])
        by_power = {}
        for m, c in terms.items():
            by_power.setdefault(m[0], {})[m[1:]] = c
        out = {}
        for e in range(max(by_power), -1, -1):
            out = poly_linear_mul(out, forms[i])
            if e in by_power:
                out = poly_add(out, horner(by_power[e], i + 1))
        return out

    return horner(p, 0) if p else {}


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


class LambdaRat:
    """Exact rational function num / (scalar * prod p^e) in l1, l2, l3.

    ``num`` is an integer polynomial, ``scalar`` a positive int and each
    ``p`` a primitive linear form with positive first nonzero coefficient,
    the shape of every equivariant Euler class.  In the normal form no ``p``
    divides ``num`` and gcd(content(num), scalar) = 1; zero is 0 / 1.  The
    form is unique, so equal values are equal and render to equal text.
    Division is by units (``inv``) or, for any product of linear forms, by
    multiplying with ``(FactoredWeightProduct ** -1).expand()``.

    The numerator is held packed, as ``comps`` in slots of ``size`` bytes,
    one int per power of l2 in each component, at the width the operation
    that made it left.  A sum lifts both numerators to the common
    denominator on those ints (``_lift``), divides them exactly by the
    forms that may cancel and that a screen modulo SCREEN_PRIME cannot rule
    out (``_cancel_forms``) and cancels the integer content on them
    (``_drop_content``); negation, ``scale`` and ``FactoredWeightProduct.
    expand`` stay packed too, and equality moves two numerators to one
    width.  ``num`` (the polynomial, a dict) and ``den`` (the expanded
    denominator) are unpacked on each read, for rendering, products,
    substitutions and evaluations.  The constructor takes a polynomial,
    packs it (``_chunks``) and runs the same reductions.
    """

    __slots__ = ("comps", "size", "scalar", "factors")

    def __init__(self, num, scalar=1, factors=None):
        """``factors`` maps primitive positive-lead forms to positive
        exponents; the factors dividing ``num`` and the common integer
        content cancel."""
        if scalar < 1:
            raise ValueError("scalar must be a positive int")
        out_facs = {p: factors[p] for p in sorted(factors or ()) if factors[p] > 0}
        num = {tuple(m): c for m, c in num.items() if c}
        if num:
            comps, size = _chunks(num)
            if out_facs:
                cancelled = _cancel_forms(comps, size, out_facs, list(out_facs))
                comps, size = cancelled or (comps, size)
            comps, size, scalar = _drop_content(comps, size, scalar)
        else:
            comps, size, scalar, out_facs = {}, 1, 1, {}
        self.comps, self.size, self.scalar, self.factors = comps, size, scalar, out_facs

    @classmethod
    def _normal(cls, comps, size, scalar, factors):
        """Wrap a packed numerator and fields already in normal form,
        skipping the reductions."""
        out = cls.__new__(cls)
        out.comps, out.size, out.scalar, out.factors = comps, size, scalar, factors
        return out

    @property
    def num(self):
        """The numerator as a polynomial, unpacked."""
        return _unchunk(self.comps, self.size)

    @property
    def den(self):
        """The expanded denominator scalar * prod p^e."""
        return _unchunk(*_product_chunks(self.scalar, self.factors))

    @classmethod
    def from_int(cls, k):
        return cls(poly_const(k))

    def is_zero(self):
        return not self.comps

    # -- arithmetic

    def __add__(self, other):
        """Henrici's addition over the least common denominator.  A form
        whose exponent differs between the addends cannot divide the sum:
        modulo that prime the sum is the lifted numerator of the addend
        with the higher power, a product of factors prime to it.  So only
        the forms with equal exponents are trial-divided.

        The sum stays packed throughout: both numerators are lifted and
        added as chunks (``_lift``), the shared forms are screened and
        divided on those ints (``_cancel_forms``), and the content shared
        with the scalar is cancelled on them (``_drop_content``)."""
        if isinstance(other, int):
            other = LambdaRat.from_int(other)
        if not self.comps:
            return other
        if not other.comps:
            return self
        s1, f1 = self.scalar, self.factors
        s2, f2 = other.scalar, other.factors
        g = gcd(s1, s2)
        lf = {}
        lift1, lift2, shared = [], [], []
        for p in sorted(set(f1) | set(f2)):
            e1, e2 = f1.get(p, 0), f2.get(p, 0)
            lift1 += [p] * (e2 - e1)
            lift2 += [p] * (e1 - e2)
            lf[p] = max(e1, e2)
            if e1 == e2:
                shared.append(p)
        comps, size = _lift((
            (self.comps, self.size, s2 // g, lift1),
            (other.comps, other.size, s1 // g, lift2),
        ))
        if not comps:
            return LambdaRat.from_int(0)
        if shared:
            comps, size = _cancel_forms(comps, size, lf, shared) or (comps, size)
        return LambdaRat._normal(*_drop_content(comps, size, s1 // g * s2), lf)

    __radd__ = __add__

    def __neg__(self):
        comps = {t: [-n for n in ch] for t, ch in self.comps.items()}
        return LambdaRat._normal(comps, self.size, self.scalar, self.factors)

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
        if k == 0 or not self.comps:
            return LambdaRat.from_int(0)
        if k == 1:
            return self
        if k == -1:
            return -self
        comps, size = _lift(((self.comps, self.size, k.numerator, ()),))
        return LambdaRat._normal(
            *_drop_content(comps, size, self.scalar * k.denominator), self.factors
        )

    def inv(self):
        """The inverse of a unit, a value with a constant numerator."""
        if not self.comps:
            raise ZeroDivisionError("inverse of zero rational function")
        num = self.num
        c = num.get((0, 0, 0))
        if c is None or len(num) != 1:
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
        """Equal fields, the numerators compared at the wider of their two
        widths (``_reslot``)."""
        if isinstance(other, int):
            other = LambdaRat.from_int(other)
        if not isinstance(other, LambdaRat):
            return NotImplemented
        if (
            self.scalar != other.scalar
            or self.factors != other.factors
            or self.comps.keys() != other.comps.keys()
        ):
            return False
        size = max(self.size, other.size)
        return _reslot(self.comps, self.size, size) == _reslot(
            other.comps, other.size, size
        )

    __hash__ = None

    def substitute(self, forms):
        """The value under an invertible linear substitution (l1, l2, l3)
        -> (forms[0], forms[1], forms[2]), as in
        ``FactoredWeightProduct.substitute``."""
        den = FactoredWeightProduct(1, self.scalar, self.factors).substitute(forms)
        num = poly_scale(poly_substitute(self.num, forms), den.sign)
        return LambdaRat(num, den.scalar.numerator, den.factors)

    # -- evaluation (the rows of the sign solver)

    def evaluate_mod(self, point, mod):
        """The value at ``point`` modulo the prime ``mod``, or None where
        the denominator vanishes there."""
        return evaluate_all_mod([self], [point], mod)[0][0]

    def render(self):
        if not self.comps:
            return "0"
        if self.scalar == 1 and not self.factors:
            return render_poly(self.num)
        return f"({render_poly(self.num)}) / ({render_poly(self.den)})"

    def __repr__(self):
        return f"LambdaRat({self.render()})"


def evaluate_all_mod(values, points, mod):
    """The value of each of ``values`` at each of ``points`` modulo the
    prime ``mod``: one list per value, holding None where its denominator
    vanishes.  A value is a LambdaRat, num / (scalar * prod p^e), or a
    FactoredWeightProduct, read as the fields of its expansion: the
    numerator sign * scalar.numerator * prod_{e>0} p^e over the denominator
    scalar.denominator * prod_{e<0} p^(-e).  So a product is never
    expanded, and its residues and poles are those of its expansion.

    The values of coordinate powers, monomials and each power p^e of a
    form at the points are computed once and shared by all the values, and
    the nonzero denominators are inverted together, with one modular
    inversion (Montgomery's trick)."""
    points = [tuple(a % mod for a in point) for point in points]
    powers = {}
    monomials = {}
    forms = {}

    def power(axis, e):
        w = powers.get((axis, e))
        if w is None:
            w = powers[axis, e] = [pow(pt[axis], e, mod) for pt in points]
        return w

    def form_power(p, e):
        w = forms.get((p, e))
        if w is None:
            w = forms[p, e] = [
                pow(p[0] * x + p[1] * y + p[2] * z, e, mod) for x, y, z in points
            ]
        return w

    nums, dens = [], []
    for v in values:
        if isinstance(v, FactoredWeightProduct):
            num = [v.sign * v.scalar.numerator % mod] * len(points)
            den = [v.scalar.denominator % mod] * len(points)
            for p, e in v.factors.items():
                if e > 0:
                    num = [t * f % mod for t, f in zip(num, form_power(p, e))]
                else:
                    den = [d * f % mod for d, f in zip(den, form_power(p, -e))]
        else:
            den = [v.scalar % mod] * len(points)
            for p, e in v.factors.items():
                den = [d * f % mod for d, f in zip(den, form_power(p, e))]
            num = [0] * len(points)
            for m, c in v.num.items():
                w = monomials.get(m)
                if w is None:
                    xs, ys, zs = power(0, m[0]), power(1, m[1]), power(2, m[2])
                    w = monomials[m] = [
                        px * py % mod * pz % mod for px, py, pz in zip(xs, ys, zs)
                    ]
                num = [t + c * u for t, u in zip(num, w)]
        nums.append(num)
        dens.append(den)
    inverses = iter(_inverses([d for den in dens for d in den if d], mod))
    return [
        [t * next(inverses) % mod if d else None for t, d in zip(num, den)]
        for num, den in zip(nums, dens)
    ]


def _inverses(xs, mod):
    """The inverses of the nonzero residues ``xs`` modulo the prime ``mod``,
    from one modular inversion of their product (Montgomery's trick)."""
    if not xs:
        return []
    prefix = [xs[0]]
    for x in xs[1:]:
        prefix.append(prefix[-1] * x % mod)
    inv = pow(prefix[-1], -1, mod)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % mod
        inv = inv * xs[i] % mod
    out[0] = inv
    return out


def lambdarat_sum(terms):
    """Sum of a list of LambdaRats as a balanced tree of pairwise sums:
    neighbours are added level by level, so partial sums stay short and
    the tree's shape depends only on the length of the list."""
    terms = list(terms)
    if not terms:
        return LambdaRat.from_int(0)
    while len(terms) > 1:
        pairs = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            pairs.append(terms[-1])
        terms = pairs
    return terms[0]


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
        s, g, p = canonical_form(tuple(f))
        factors = dict(self.factors)
        factors[p] = factors.get(p, 0) + exp
        if not factors[p]:
            del factors[p]
        sign = self.sign * (s ** (exp % 2))
        return FactoredWeightProduct(sign, self.scalar * Fraction(g) ** exp, factors)

    def substitute(self, forms):
        """The value under the linear substitution (l1, l2, l3) ->
        (forms[0], forms[1], forms[2]); a fourth form, the image of l4, is
        not read.  Each factor p^e becomes (p1*forms[0] + p2*forms[1] +
        p3*forms[2])^e, with its sign and content moved out."""
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = forms[:3]
        sign, scalar, factors = self.sign, self.scalar, {}
        for (p1, p2, p3), e in self.factors.items():
            image = (p1 * a1 + p2 * a2 + p3 * a3,
                     p1 * b1 + p2 * b2 + p3 * b3,
                     p1 * c1 + p2 * c2 + p3 * c3)
            if not any(image):
                raise ValueError(f"substitution maps the factor {(p1, p2, p3)} to 0")
            s, g, q = canonical_form(image)
            if s < 0 and e % 2:
                sign = -sign
            if g > 1:
                scalar *= Fraction(g) ** e
            factors[q] = factors.get(q, 0) + e
        return FactoredWeightProduct(sign, scalar, factors)

    def expand(self):
        """Expand to a LambdaRat: the positive factors into the numerator,
        the negative ones into the denominator."""
        if self.is_zero():
            return LambdaRat.from_int(0)
        pos = {f: e for f, e in self.factors.items() if e > 0}
        neg = {f: -e for f, e in self.factors.items() if e < 0}
        comps, size = _product_chunks(self.sign * self.scalar.numerator, pos)
        # distinct primitive forms are coprime and the Fraction is reduced,
        # so the quotient is already in normal form
        return LambdaRat._normal(comps, size, self.scalar.denominator, neg)

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
