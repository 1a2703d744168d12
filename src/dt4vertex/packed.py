"""Packed integer polynomials in l1, l2, l3 (Kronecker substitution): the
layout that holds every ``LambdaRat`` numerator, and the kernels that run
a sum on it -- the lift to a common denominator, the screened trial
divisions by linear forms and the cancellation of integer content.  The
layout is private to the package; ``exactalg`` is its only user.

A numerator is packed as (comps, size): comps maps the degree t of each
nonzero homogeneous component to its chunks [n_0, ..., n_t].  With l3 set
to 1, the component is sum_b l2^b N_b(l1), and chunk n_b = N_b(2^w), w =
8*size: slot a of n_b holds the coefficient of l1^a l2^b l3^(t-a-b) as a
signed digit, for a = 0..t-b.  ``_pack`` encodes, ``_unchunk`` decodes.
Every digit lies strictly between -2^(w-1) and 2^(w-1), so the t-b+1
slots of a chunk decode exactly, and a polynomial has one packing per
width; ``_reslot`` moves it between widths.

With D = c1*2^w + c3, the product by a form f = c1*l1 + c2*l2 + c3*l3 has
the t+2 chunks

    n'_b = D*n_b + c2*n_(b-1)        for b = 0..t+1, n_(-1) = n_(t+1) = 0,

the identity that ``_divide_chunks`` inverts.
"""

from __future__ import annotations

from math import gcd

# the prime of the trial-division screen, below 2^30 so that reducing a
# chunk modulo it is one pass over its digits.  2 generates its
# multiplicative group, so 2^w is 1 modulo it only if its order 2^30 - 36
# divides w (modulo 2^61 - 1 that happens whenever 61 divides w).
SCREEN_PRIME = (1 << 30) - 35

# the result of a division whose quotient needs wider slots
_WIDER = object()


def _lift(addends):
    """The sum of k * N * prod(forms) over the addends (comps, size, k,
    forms), each N a packed numerator, packed as (comps, size) with its
    zero components dropped.

    The digits of N lie in [-2^(8s-1), 2^(8s-1)) for its narrowest width s
    (``_narrowest``), and a product by a form f has digits at most ||f||_1
    = |c1| + |c2| + |c3| times those of its factor.  So 2^(w-1) exceeds the
    sum of |k| * 2^(8s-1) * prod ||f||_1, which bounds every digit of every
    product and of the sum, and its slots decode exactly.  That width is
    wider than each s, so each N moves to it by ``_reslot``; each form then
    multiplies the chunks of each component of k * N in turn."""
    addends = [a for a in addends if a[0]]
    bound = 0
    for comps, size, k, forms in addends:
        b = abs(k) << (8 * _narrowest(comps, size) - 1)
        for f in forms:
            b *= abs(f[0]) + abs(f[1]) + abs(f[2])
        bound += b
    size = (bound.bit_length() + 8) // 8  # bytes per slot, with a sign bit
    w = 8 * size
    total = {}
    for comps, old, k, forms in addends:
        for t, ch in _reslot(comps, old, size).items():
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
        low = _lanes(size, t + 1) << (w - 1)
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


def _lanes(size, slots):
    """The int with a 1 in the lowest bit of each of ``slots`` slots of
    ``size`` bytes.  Shifted right by b slots it has the t+1-b ones of
    chunk n_b of a degree-t component."""
    return int.from_bytes((b"\x01" + bytes(size - 1)) * slots, "little")


def _digit_masks(size, bits, slots):
    """(h, x) for chunks of at most ``slots`` slots of ``size`` bytes, bits
    < 8*size: the digits of such a chunk n all lie in [-2^(bits-1),
    2^(bits-1)) exactly when (n + h) & x == 0.  h holds 2^(bits-1) in each
    slot, and x the bits from ``bits`` up of each slot and every bit above
    the top one.  The test passes exactly when n + h has, in every slot, a
    value in [0, 2^bits) with no borrow or carry, that is, when n has
    digits in [-2^(bits-1), 2^(bits-1)), its missing top slots reading as
    0; the balanced digits of n are unique, so they are those digits."""
    w = 8 * size
    ones = _lanes(size, slots)
    return ones << (bits - 1), (ones << w) - (ones << bits) - (1 << (w * slots))


def _fits(comps, size, bits):
    """Whether every digit of the packed numerator lies in [-2^(bits-1),
    2^(bits-1)), by one mask test per chunk (``_digit_masks``, the masks of
    a component's widest chunk serving all of its chunks)."""
    for t, ch in comps.items():
        h, x = _digit_masks(size, bits, t + 1)
        for n in ch:
            if (n + h) & x:
                return False
    return True


def _narrowest(comps, size):
    """The fewest bytes s <= size such that every digit of the packed
    numerator lies in [-2^(8s-1), 2^(8s-1))."""
    s = size
    while s > 1 and _fits(comps, size, 8 * (s - 1)):
        s -= 1
    return s


def _reslot(comps, size, new):
    """The packed numerator, in slots of ``size`` bytes, moved to slots of
    ``new`` bytes.  Its digits must lie strictly between -2^(8m-1) and
    2^(8m-1) for m = min(size, new).  Then each chunk plus 2^(8m-1) in
    each slot has the non-negative digits d + 2^(8m-1) < 2^(8m), so the
    byte lanes j < m of the chunks of a component, concatenated, move to
    the new width and the offset is taken off again; no slot is decoded."""
    if new == size:
        return comps
    m = min(size, new)
    w, v = 8 * size, 8 * new
    out = {}
    for t, ch in comps.items():
        h = _lanes(size, t + 1) << (8 * m - 1)
        data = b"".join(
            (n + (h >> (w * b))).to_bytes((t - b + 1) * size, "little")
            for b, n in enumerate(ch)
        )
        buf = bytearray(len(data) // size * new)
        for j in range(m):
            buf[j::new] = data[j::size]
        h = _lanes(new, t + 1) << (8 * m - 1)
        view, start, moved = memoryview(buf), 0, []
        for b in range(t + 1):
            end = start + (t - b + 1) * new
            moved.append(int.from_bytes(view[start:end], "little") - (h >> (v * b)))
            start = end
        out[t] = moved
    return out


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
    + |c3| and h = 2^(w-1-k), the digits of q_b in its t-b slots must lie
    in [-h, h) (``_digit_masks``), that is, q_b = Q_b(2^w) for a
    polynomial Q_b of degree below t-b whose digits lie in [-h, h).  The digits of (c1*x + c3)*Q_b(x) + c2*Q_{b-1}(x) are
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
    wider = False
    out = {}
    for t, ch in comps.items():
        # the quotient's chunks from the top one down, q_b having t-b slots;
        # (q + h) & x is 0 exactly when q is in the digit bound
        qs = [0] * t
        h, x = _digit_masks(size, w - k, t)
        if c2:
            q = 0
            for b in range(t - 1, -1, -1):
                q = ch[b + 1] - d * q
                if c2 != 1:
                    q, r = divmod(q, c2)
                    if r:
                        return None
                if (q + h) & x:
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
                if (q + h) & x:
                    wider = True
                qs[b] = q
        out[t - 1] = qs
    return _WIDER if wider else out


def _product_chunks(c, factors):
    """The polynomial c * prod p^e, packed (``_lift``)."""
    forms = [p for p, e in factors.items() for _ in range(e)]
    return _lift((({0: [1]}, 1, c, forms),))


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
                comps, size = _reslot(comps, size, 2 * size), 2 * size
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


def _low_zero_bits(comps, size, most):
    """The largest i <= most such that 2^i divides every digit of the
    nonzero packed numerator.  A chunk plus 2^(w-1) in each slot has in each
    slot the bits of its digit below bit w-1, and some nonzero digit has a
    1 below that bit, so bit i of every digit is read by one mask per
    chunk."""
    offset = []
    for t, ch in comps.items():
        ones = _lanes(size, t + 1)
        h = ones << (8 * size - 1)
        offset += [(n + h, ones) for n in ch]
    i = 0
    while i < most and not any((u >> i) & ones for u, ones in offset):
        i += 1
    return i


def _divide_digits(comps, size, d):
    """The packed numerator with every digit divided by the odd d > 1, as
    (comps, size), or None if d does not divide every digit.

    With 2^k > d, the digits of N are first brought into [-2^(w-1-k),
    2^(w-1-k)): they are there already, or once the slots are ceil(k/8)
    bytes wider.  If d divides every digit, it divides every chunk, and the
    quotient's digits lie in that range too.  Conversely, a quotient chunk
    n/d with digits in that range proves it: d times those digits lie
    strictly between -2^(w-1) and 2^(w-1), so they are the digits of n
    (the digit-bound proof of ``_divide_chunks``).  So a remainder or a
    digit out of range proves that d does not divide every digit."""
    k = (d - 1).bit_length()
    if 8 * size <= k or not _fits(comps, size, 8 * size - k):
        wider = size + (k + 7) // 8
        comps, size = _reslot(comps, size, wider), wider
    out = {}
    for t, ch in comps.items():
        qs = out[t] = []
        h, x = _digit_masks(size, 8 * size - k, t + 1)
        for n in ch:
            q, r = divmod(n, d)
            if r or (q + h) & x:
                return None
            qs.append(q)
    return out, size


def _drop_content(comps, size, scalar):
    """Cancel the integer content that the nonzero packed numerator and the
    scalar share: (comps, size, scalar) divided by their gcd.

    The power of 2 is read off the digits' low bits (``_low_zero_bits``).
    The odd part of the gcd divides every chunk, so it divides g, the gcd
    of the chunks and the odd part of the scalar.  The primes of g below
    2^16 are divided out one at a time while ``_divide_digits`` succeeds.
    What is left of g then has no prime below 2^16: below 2^32 it is 1 or a
    prime, decided by one more ``_divide_digits``.  Past 2^32 it may be a
    product of larger primes, and its gcd with the content is read from
    the unpacked digits; only scalars with such primes get there."""
    twos = (scalar & -scalar).bit_length() - 1
    g = scalar >> twos
    if twos:
        i = _low_zero_bits(comps, size, twos)
        if i:
            comps = {t: [n >> i for n in ch] for t, ch in comps.items()}
            scalar >>= i
    for n in (n for ch in comps.values() for n in ch):
        if g == 1:
            return comps, size, scalar
        g = gcd(g, n % g)
    p = 3
    while g > 1 and p * p <= g and p < 1 << 16:
        while g % p == 0:
            g //= p
            q = _divide_digits(comps, size, p)
            if q is None:
                while g % p == 0:
                    g //= p
            else:
                (comps, size), scalar = q, scalar // p
        p += 2
    if g >> 32:
        g = gcd(g, *_unchunk(comps, size).values())
    if g > 1 and (q := _divide_digits(comps, size, g)) is not None:
        (comps, size), scalar = q, scalar // g
    return comps, size, scalar
