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
  product of linear forms.  Numerators are dicts between operations; a sum
  runs on packed integers (Kronecker substitution), one int per power of l2
  in each homogeneous component, from the lift of its numerators to the
  common denominator, through the exact trial divisions by the forms that
  may cancel, to its quotient.
* ``QSeries`` -- truncated Laurent series in q with LambdaRat coefficients.

Values do not change after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def poly_content(p):
    g = 0
    for c in p.values():
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def poly_div_exact_int(p, k):
    return {m: c // k for m, c in p.items()}


def poly_lift_add(n1, forms1, n2, forms2):
    """n1 * prod(forms1) + n2 * prod(forms2) for integer polynomials n1, n2
    and lists of linear forms, on packed chunks (``_lift``)."""
    return _unchunk(*_lift(((n1, 1, forms1), (n2, 1, forms2))))


# ---------------------------------------------------------------------------
# packed numerators: the lifts and trial divisions of a sum, on ints
#
# A numerator is packed as (comps, size): comps maps the degree t of each
# nonzero homogeneous component to its chunks [n_0, ..., n_t].  With l3 set
# to 1, the component is sum_b l2^b N_b(l1), and chunk n_b = N_b(2^w), w =
# 8*size: slot a of n_b holds the coefficient of l1^a l2^b l3^(t-a-b) as a
# signed digit, for a = 0..t-b.  ``_pack`` encodes, ``_unchunk`` decodes.
# Every digit lies strictly between -2^(w-1) and 2^(w-1), so the t-b+1
# slots of a chunk decode exactly.
#
# With D = c1*2^w + c3, the product by a form f = c1*l1 + c2*l2 + c3*l3 has
# the t+2 chunks
#
#     n'_b = D*n_b + c2*n_(b-1)        for b = 0..t+1, n_(-1) = n_(t+1) = 0,
#
# the identity that ``_divide_chunks`` inverts.

# the prime of the trial-division screen, below 2^30 so that reducing a
# chunk modulo it is one pass over its digits.  2 generates its
# multiplicative group, so 2^w is 1 modulo it only if its order 2^30 - 36
# divides w (modulo 2^61 - 1 that happens whenever 61 divides w).
SCREEN_PRIME = (1 << 30) - 35

# the result of a division whose quotient needs wider slots
_WIDER = object()


def _lift(addends):
    """The sum of k * n * prod(forms) over the triples (n, k, forms) of
    ``addends``, packed as (comps, size) with its zero components dropped.
    Each form multiplies the chunks of each component of k * n in turn.
    2^(w-1) exceeds the sum of |k| * ||n||_1 * prod ||f||_1, which bounds
    every digit of every product and of the sum, so its slots decode
    exactly."""
    addends = [a for a in addends if a[0]]
    bound = 0
    for n, k, forms in addends:
        b = sum(map(abs, n.values())) * abs(k)
        for f in forms:
            b *= abs(f[0]) + abs(f[1]) + abs(f[2])
        bound += b
    size = (bound.bit_length() + 8) // 8  # bytes per slot, with a sign bit
    w = 8 * size
    total = {}
    for n, k, forms in addends:
        for t, ch in _pack(n, size).items():
            if k != 1:
                ch = [k * x for x in ch]
            for c1, c2, c3 in forms:
                d = (c1 << w) + c3
                ch = [d * x + c2 * y for x, y in zip(ch + [0], [0] + ch)]
            t += len(forms)
            acc = total.get(t)
            total[t] = ch if acc is None else [x + y for x, y in zip(acc, ch)]
    return {t: ch for t, ch in total.items() if any(ch)}, size


def _pack(p, size):
    """The comps of the integer polynomial p packed in slots of ``size``
    bytes: chunk n_b of degree t is the sum of k * 2^(w*a) over the terms
    k * l1^a l2^b l3^(t-a-b) of p."""
    w = 8 * size
    out = {}
    for (a, b, c), k in p.items():
        t = a + b + c
        ch = out.get(t)
        if ch is None:
            ch = out[t] = [0] * (t + 1)
        ch[b] += k << (w * a)
    return out


def _chunks(p):
    """The nonzero integer polynomial p packed (``_pack``) in the narrowest
    byte-wide slots that hold its coefficients, as (comps, size)."""
    size = (max(map(abs, p.values())).bit_length() + 8) // 8
    return _pack(p, size), size


def _unchunk(comps, size):
    """The packed numerator as a polynomial: chunk n_b of t-b+1 slots plus
    2^(w-1) in each slot has non-negative digits, which read off its bytes."""
    w = 8 * size
    half = 1 << (w - 1)
    out = {}
    for t, ch in comps.items():
        low = int.from_bytes(half.to_bytes(size, "little") * (t + 1), "little")
        for b, n in enumerate(ch):
            slots = t - b + 1
            data = memoryview((n + low).to_bytes(slots * size, "little"))
            low >>= w
            i = 0
            for a in range(slots):
                k = int.from_bytes(data[i:i + size], "little") - half
                if k:
                    out[a, b, t - a - b] = k
                i += size
    return out


def _widen(comps, size):
    """The same packed numerator in slots of twice the width."""
    return _pack(_unchunk(comps, size), 2 * size), 2 * size


def _screen_chunks(comps, size, forms):
    """The forms of ``forms`` that can divide the packed numerator N.

    A form f = c1*l1 + c2*l2 + c3*l3 with c2 != 0 is kept only if N vanishes
    modulo SCREEN_PRIME at the point (beta, y, 1) of its plane, beta = 2^w:
    the chunk residues r_b = n_b = N_b(beta) modulo the prime give
    N(beta, y, 1) = sum_b r_b y^b, one Horner evaluation per form at
    y = -(c1*beta + c3) / c2.  If f divides N, f vanishes there and so does
    N, so a nonzero value proves that f does not divide N, nor any quotient
    of N.  Forms with c2 = 0 are all kept: their division
    (``_divide_chunks``) rejects top chunk first, the shortest first."""
    P = SCREEN_PRIME
    keep = []
    res = None
    for f in forms:
        c1, c2, c3 = f
        if c2:
            if res is None:
                beta = pow(2, 8 * size, P)
                res = [0] * (max(comps) + 1)
                for ch in comps.values():
                    for b, n in enumerate(ch):
                        res[b] += n % P
                res.reverse()
            y = -(c1 * beta + c3) * pow(c2, -1, P) % P
            v = 0
            for r in res:
                v = (v * y + r) % P
            if v:
                continue
        keep.append(f)
    return keep


def _divide_chunks(comps, size, form):
    """The quotient of the packed numerator N by the primitive form f =
    c1*l1 + c2*l2 + c3*l3 as chunks of the same size; None if f does not
    divide N, and _WIDER if the quotient may need wider slots.

    Each homogeneous component N, of degree t, is divided on its own.  If
    N = f*Q, then Q has degree t-1, and its chunks q_b (q_t = q_{-1} = 0)
    satisfy n_b = D*q_b + c2*q_{b-1} for b = 0..t, the product identity of
    the layout.  For c2 != 0 they are solved from the top chunk down,
    q_{b-1} = (n_b - D*q_b) / c2, and then n_0 = D*q_0 is checked; for c2 =
    0, n_t = 0 is checked and each other chunk divided, q_b = n_b / D, top
    chunk first.
    A nonzero remainder or a failed check therefore proves that f does not
    divide N.

    If every remainder is zero and every check holds, the division is
    proven by one more check on each q_b: with 2^k >= ||f||_1 = |c1| + |c2|
    + |c3| and h = 2^(w-1-k), q_b plus h in each of its t-b slots must lie
    in [0, 2^(w*(t-b))) with the top k bits of every slot clear, that is,
    q_b = Q_b(2^w) for a polynomial Q_b of degree below t-b whose digits
    lie in [-h, h).  The digits of (c1*x + c3)*Q_b(x) + c2*Q_{b-1}(x) are
    then at most ||f||_1 * h <= 2^(w-1) in absolute value, those of N_b
    below 2^(w-1), and both take the value n_b at x = 2^w.  Two integer
    polynomials whose digits differ by less than 2^w and that agree at 2^w
    are equal (the lowest digit of their difference would be a nonzero
    multiple of 2^w), so N_b = (c1*x + c3)*Q_b + c2*Q_{b-1} for every b,
    that is N = f*Q, with Q of degree t-1.  The digits of Q are below
    2^(w-1) in absolute value again: at most 2^(w-2) if k >= 1, and those
    of N if f is l1 or l2 (k = 0).  When some q_b fails this check but the
    rest holds, the slots are widened and the division redone
    (``_cancel_forms``).  That ends: if f does not divide N, then for c2
    != 0 the identities imply R(2^w) = 0 for the nonzero polynomial R(x) =
    c2^t * N(x, -(c1*x + c3)/c2, 1), and for c2 = 0 they imply that D
    divides the nonzero remainder of c1^t * N_b by c1*x + c3, for some b.
    Neither holds once 2^w is large enough.

    For f = l3, N is divisible exactly when it has no monomial free of l3,
    that is, when slot t-b of every chunk n_b is 0; the quotient's chunks
    are those of N, without n_t."""
    c1, c2, c3 = form
    w = 8 * size
    if not (c1 or c2):
        for t, ch in comps.items():
            low = 0  # 2^(w-1) in each of the t-b slots below the top one
            for b in range(t, -1, -1):
                if (ch[b] + low) >> (w * (t - b)):
                    return None
                low = low << w | 1 << (w - 1)
        return {t - 1: ch[:-1] for t, ch in comps.items()}
    d = (c1 << w) + c3
    k = (abs(c1) + abs(c2) + abs(c3) - 1).bit_length()
    h, top = 1 << (w - 1 - k), ((1 << k) - 1) << (w - k)
    wider = False
    out = {}
    for t, ch in comps.items():
        # the quotient's chunks from the top one down, q_b having t-b slots;
        # for L slots, hs holds h in each and xs = -2^(w*L) + top in each,
        # so (q + hs) & xs is 0 exactly when q is in the digit bound
        qs = [0] * t
        hs, xs = 0, -1
        if c2:
            q = 0
            for b in range(t - 1, -1, -1):
                q = ch[b + 1] - d * q
                if c2 != 1:
                    q, r = divmod(q, c2)
                    if r:
                        return None
                hs, xs = hs << w | h, (xs << w) + top
                if (q + hs) & xs:
                    wider = True
                qs[b] = q
            if ch[0] != d * q:
                return None
        else:
            if ch[t]:
                return None
            for b in range(t - 1, -1, -1):
                q, r = divmod(ch[b], d)
                if r:
                    return None
                hs, xs = hs << w | h, (xs << w) + top
                if (q + hs) & xs:
                    wider = True
                qs[b] = q
        out[t - 1] = qs
    return _WIDER if wider else out


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


def _expand_product(c, factors):
    """The polynomial c * prod p^e, lifted on packed chunks (``_lift``)."""
    forms = [p for p, e in factors.items() for _ in range(e)]
    return _unchunk(*_lift(((poly_const(c), 1, forms),)))


def _cancel_forms(comps, size, factors, forms):
    """Divide the packed numerator (comps, size) by each form p of
    ``forms`` while exact, at most factors[p] times, and lower factors[p] in
    place to the exponent left over, deleting it at 0.  Returns the
    quotient as (comps, size), or None if no form divides.

    Only the forms that ``_screen_chunks`` keeps are divided
    (``_divide_chunks``), and a screen that rules a form out also rules it
    out for every quotient, so the forms are screened again only after a
    division succeeds.  A division that needs wider slots doubles them and
    is redone."""
    divided = False
    while forms:
        forms = _screen_chunks(comps, size, forms)
        for i, p in enumerate(forms):
            q = _divide_chunks(comps, size, p)
            while q is _WIDER:
                comps, size = _widen(comps, size)
                q = _divide_chunks(comps, size, p)
            if q is not None:
                break
        else:
            break
        comps, divided = q, True
        if factors[p] > 1:
            factors[p] -= 1
            forms = forms[i:]
        else:
            del factors[p]
            forms = forms[i + 1:]
    return (comps, size) if divided else None


def _drop_content(num, scalar):
    """Cancel the integer content num and scalar share."""
    g = gcd(poly_content(num), scalar)
    if g > 1:
        return poly_div_exact_int(num, g), scalar // g
    return num, scalar


class LambdaRat:
    """Exact rational function num / (scalar * prod p^e) in l1, l2, l3.

    ``num`` is an integer polynomial, ``scalar`` a positive int and each
    ``p`` a primitive linear form with positive first nonzero coefficient,
    the shape of every equivariant Euler class.  In the normal form no ``p``
    divides ``num`` and gcd(content(num), scalar) = 1; zero is 0 / 1.  The
    form is unique, so equality compares fields and equal values render to
    equal text.  ``den`` is the expanded denominator, multiplied out on
    each read.  Division is by units (``inv``) or, for any product of
    linear forms, by multiplying with ``(FactoredWeightProduct **
    -1).expand()``.

    A sum lifts both numerators to the common denominator packed, one int
    per power of l2 in each component (``_lift``), and divides those ints
    exactly by the forms that may cancel and that a screen modulo
    SCREEN_PRIME cannot rule out (``_cancel_forms``); the constructor runs
    the same divisions on its numerator, packed (``_chunks``).
    """

    __slots__ = ("num", "scalar", "factors")

    def __init__(self, num, scalar=1, factors=None):
        """``factors`` maps primitive positive-lead forms to positive
        exponents; the factors dividing ``num`` and the common integer
        content cancel."""
        if scalar < 1:
            raise ValueError("scalar must be a positive int")
        out_facs = {p: factors[p] for p in sorted(factors or ()) if factors[p] > 0}
        num = {tuple(m): c for m, c in num.items() if c}
        if num and out_facs:
            comps, size = _chunks(num)
            cancelled = _cancel_forms(comps, size, out_facs, list(out_facs))
            if cancelled:
                num = _unchunk(*cancelled)
        if not num:
            scalar, out_facs = 1, {}
        num, scalar = _drop_content(num, scalar)
        self.num, self.scalar, self.factors = num, scalar, out_facs

    @classmethod
    def _normal(cls, num, scalar, factors):
        """Wrap fields already in normal form, skipping the reductions."""
        out = cls.__new__(cls)
        out.num, out.scalar, out.factors = num, scalar, factors
        return out

    @property
    def den(self):
        """The expanded denominator scalar * prod p^e."""
        return _expand_product(self.scalar, self.factors)

    @classmethod
    def from_int(cls, k):
        return cls(poly_const(k))

    def is_zero(self):
        return not self.num

    # -- arithmetic

    def __add__(self, other):
        """Henrici's addition over the least common denominator.  A form
        whose exponent differs between the addends cannot divide the sum:
        modulo that prime the sum is the lifted numerator of the addend
        with the higher power, a product of factors prime to it.  So only
        the forms with equal exponents are trial-divided.

        The sum stays packed from the lift to the final quotient: both
        numerators are lifted and added as chunks, one int per power of l2
        in each component (``_lift``), the shared forms are screened and
        divided on those ints (``_cancel_forms``), and the quotient is
        unpacked once."""
        if isinstance(other, int):
            other = LambdaRat.from_int(other)
        if not self.num:
            return other
        if not other.num:
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
        comps, size = _lift(((self.num, s2 // g, lift1), (other.num, s1 // g, lift2)))
        if not comps:
            return LambdaRat.from_int(0)
        if shared:
            comps, size = _cancel_forms(comps, size, lf, shared) or (comps, size)
        num, scalar = _drop_content(_unchunk(comps, size), s1 // g * s2)
        return LambdaRat._normal(num, scalar, lf)

    __radd__ = __add__

    def __neg__(self):
        return LambdaRat._normal(poly_neg(self.num), self.scalar, self.factors)

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
        num, scalar = _drop_content(
            poly_scale(self.num, k.numerator), self.scalar * k.denominator
        )
        return LambdaRat._normal(num, scalar, self.factors)

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
        if not self.num:
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
        s, g, p = canonical_form(f)
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
        num = _expand_product(self.sign * self.scalar.numerator, pos)
        # distinct primitive forms are coprime and the Fraction is reduced,
        # so the quotient is already in normal form
        return LambdaRat._normal(num, self.scalar.denominator, neg)

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
