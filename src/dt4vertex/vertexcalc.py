"""The analytic core: characters of fixed points, redistribution into
Laurent polynomials, square-rooted equivariant Euler classes, and the DT/PT
vertex and edge q-series.

A character is held in partial fractions, Z = Z_fin + sum_i L_i/(1-t_i),
and the vertex V = Z + M*Zbar - Z*Zbar*Dbar + sum_i F_i/(1-t_i) (M =
t^(-1,-1,-1,-1), D = prod (1-t_i), X -> Xbar inverts t) in closed form:

    V = Z_fin + M*Zbar_fin - Z_fin*Qbar + sum_i t_i^-1 * L_i * Rbar_i,

with Q = Z*D and R_i = (Z - L_i/(1-t_i)) * D/(1-t_i), both Laurent
polynomials.  The F_i cancel the pole terms L_i/(1-t_i) and
M*Lbar_i/(1-t_i^-1) exactly; what is left over (1-t_i) is
L_i*(Lbar_i*Dbar/(1-t_i^-1) - Qbar) = -L_i*(1-t_i^-1)*Rbar_i, and
1-t_i^-1 = -t_i^-1*(1-t_i).

Square roots are taken with a fixed convention: from each pair of weights
with opposite linear forms, the representative whose form has positive
first nonzero coefficient (under l1 > l2 > l3) is kept.  All reported
values are canonical; sign assignments are interpreted relative to this
convention.

Each root is computed once per fixed point, in standard coordinates, and
kept in a root store: ``MEMORY`` for runs without a cache, or the
``cache.VertexCache`` a run is given.  A chart's root is that root
relabelled by the chart's substitution (``relabel_root``); its sign key is
the fixed-point key behind the substitution's prefix (``subst_key``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    FactoredWeightProduct,
    LambdaRat,
    NotPolynomial,
    QSeries,
    TLaurent,
    binomial_laurent,
    canonical_form,
    lambdarat_sum,
    laurent_div_binomial,
    weight_form,
)
from .partitions import EdgeData, SolidPartition, enumerate_dt
from .ptconfig import LegModule, enumerate_boxconfigs

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
AXIS_WEIGHTS = (E1, E2, E3, E4)


class TFixedObstruction(Exception):
    """A torus-fixed weight appeared with positive coefficient: the Euler
    class would divide by zero (the vertex has no T-fixed deformations)."""


# ---------------------------------------------------------------------------
# characters


def leg_laurent(pp, axis):
    """Character of C[x_j : j != axis]/I(pp): the plane partition is read
    with its indices on the three non-axis slots in increasing order."""
    slots = [i for i in range(4) if i != axis]
    terms = {}
    for (u, v, h) in pp.boxes():
        w = [0, 0, 0, 0]
        w[slots[0]], w[slots[1]], w[slots[2]] = u, v, h
        terms[tuple(w)] = 1
    return TLaurent(terms)


def _d(axes):
    """prod_{k in axes} (1 - t_k)."""
    out = TLaurent.one()
    for k in axes:
        out = out * binomial_laurent(AXIS_WEIGHTS[k])
    return out


@dataclass(frozen=True)
class Character:
    """A fixed point's character in partial fractions,
    Z = finite + sum_i legs[i]/(1 - t_i), where legs[i] =
    leg_laurent(leg_i, i) does not involve t_i (and is 0 for an empty leg)."""

    finite: TLaurent
    legs: tuple

    def times_d(self, axes=(0, 1, 2, 3)):
        """The Laurent polynomial (Z - sum_{j not in axes} L_j/(1-t_j))
        * prod_{k in axes} (1 - t_k); Q = Z*D for all four axes."""
        out = self.finite * _d(axes)
        for j in axes:
            if not self.legs[j].is_zero():
                out = out + self.legs[j] * _d([k for k in axes if k != j])
        return out


def dt_character(sp):
    """Character Z of the structure sheaf of the subscheme of a solid
    partition: leg cylinders glued by inclusion-exclusion (a box in k legs
    counts 1 - k times in the finite part) plus the added boxes."""
    finite = {}
    for box, k in sp.multi_leg_boxes():
        finite[box] = finite.get(box, 0) + (1 - k)
    for box in sorted(sp.added):
        finite[box] = finite.get(box, 0) + 1
    legs = tuple(leg_laurent(pp, i) for i, pp in enumerate(sp.legs))
    return Character(TLaurent(finite), legs)


def pt_character(config):
    """Character of a stable pair: the CM curve of the module's legs plus
    the cokernel boxes."""
    cm = dt_character(SolidPartition(config.module.legs))
    return Character(cm.finite + config.character(), cm.legs)


def leg_F(pp, axis):
    """The redistribution block F of a leg: -Z + Zbar/(abc)
    - Z*Zbar*(1-a)(1-b)(1-c)/(abc) in the three non-axis variables."""
    if pp.is_empty():
        return TLaurent()
    z = leg_laurent(pp, axis)
    zbar = z.bar()
    slots = [i for i in range(4) if i != axis]
    shift = tuple(-1 if i in slots else 0 for i in range(4))
    return -z + zbar.shift(shift) - (z * zbar * _d(slots)).shift(shift)


def edge_F(pp):
    """F for an edge in its own frame (the line along axis 1)."""
    return leg_F(pp, 0)


def redistribute_vertex(z):
    """The vertex Laurent polynomial of a character, by the closed formula
    of the module docstring; R_i is z.times_d(the axes other than i)."""
    qbar = z.times_d().bar()
    fin = z.finite
    v = fin + fin.bar().shift((-1, -1, -1, -1)) - fin * qbar
    for i, leg in enumerate(z.legs):
        if not leg.is_zero():
            rbar = z.times_d([k for k in range(4) if k != i]).bar()
            v = v + (leg * rbar).shift(tuple(-e for e in AXIS_WEIGHTS[i]))
    return v


def redistribute_vertex_division_oracle(z, legs):
    """The same vertex term as ((1 - P*Pbar) + sum_i F_i*D_{!=i}) / D with
    P = 1 - Z*D, by four exact divisions; raises NotPolynomial when one of
    them is not exact."""
    p = TLaurent.one() - z.times_d()
    num = TLaurent.one() - p * p.bar()
    for axis in range(4):
        f = leg_F(legs[axis], axis)
        if not f.is_zero():
            num = num + f * _d([k for k in range(4) if k != axis])
    for w in AXIS_WEIGHTS:
        num = _divide_exactly(num, w)
    return num


def _divide_exactly(num, d):
    q = laurent_div_binomial(num, d)
    if q is None:
        raise NotPolynomial(f"(1-t^{list(d)}) does not divide the numerator")
    return q


def redistribute_edge(pp, e):
    """The edge Laurent polynomial from (defE), computed monomial by
    monomial: a term c*t2^a*t3^b*t4^c of F with k = m*a + m'*b + m''*c
    contributes c*(t1^-1 + .. + t1^-(k-1)) for k >= 2 and
    -c*(1 + t1 + .. + t1^-k) for k <= 0."""
    m, mp, mpp = e.as_tuple() if isinstance(e, EdgeData) else e
    f = edge_F(pp)
    out = {}
    for (w1, a, b, c), coeff in f.terms.items():
        if w1 != 0:
            raise ValueError("edge F must not involve t1")
        k = m * a + mp * b + mpp * c
        if k == 1:
            continue
        if k >= 2:
            rng, sign = range(-(k - 1), 0), 1
        else:
            rng, sign = range(0, -k + 1), -1
        for s in rng:
            w = (s, a, b, c)
            v = out.get(w, 0) + sign * coeff
            if v:
                out[w] = v
            else:
                del out[w]
    return TLaurent(out)


def redistribute_edge_division_oracle(pp, e):
    """The same edge term through the displayed quotient
    [t1^-1 F - F(t2 t1^-m, t3 t1^-m', t4 t1^-m'')] / (1 - t1^-1)."""
    m, mp, mpp = e.as_tuple() if isinstance(e, EdgeData) else e
    f = edge_F(pp)
    cols = (E1, (-m, 1, 0, 0), (-mp, 0, 1, 0), (-mpp, 0, 0, 1))
    num = f.shift((-1, 0, 0, 0)) - f.subst(cols)
    return _divide_exactly(num, (-1, 0, 0, 0))


# ---------------------------------------------------------------------------
# square-rooted Euler classes


@dataclass(frozen=True)
class SqrtEuler:
    """Canonical square root of (-1)^parity * e_T(-V); a zero value records
    a vanishing contribution (a negative T-fixed term)."""

    value: FactoredWeightProduct
    parity: int

    def is_zero(self):
        return self.value.is_zero()

    def expand(self):
        return self.value.expand()

    @classmethod
    def zero(cls):
        return cls(FactoredWeightProduct.zero(), 0)

    def to_json(self):
        return {"value": self.value.to_json(), "parity": self.parity}

    @classmethod
    def from_json(cls, data):
        return cls(FactoredWeightProduct.from_json(data["value"]), data["parity"])


def form_collect(v):
    """Total coefficient per linear form of a Laurent polynomial."""
    out = {}
    for w, c in v.terms.items():
        f = weight_form(w)
        s = out.get(f, 0) + c
        if s:
            out[f] = s
        else:
            del out[f]
    return out


def check_cy_symmetric(v):
    """Squarability: the multiset of (form, coefficient) must be symmetric
    under form negation (the weight-level identity Vbar = V*t1t2t3t4 after
    the Calabi-Yau identification)."""
    collected = form_collect(v)
    for f, c in collected.items():
        if any(f):
            g = (-f[0], -f[1], -f[2])
            if collected.get(g, 0) != c:
                return False
    return True


# The square-root convention of euler_sqrt, recorded in the cache header.
# Change it whenever euler_sqrt changes which root it returns: a cache file
# of another convention is then refused, not read, since its checksums
# still hold.
SQRT_CONVENTION = "positive-lead"


def euler_sqrt(v):
    """Canonical square root of the signed Euler class of -V.

    Pairs each weight with a partner of opposite form, keeps the
    representatives with positive leading form coefficient, and returns
    value = prod form^(-coeff) over representatives together with the parity
    making value^2 = (-1)^parity * e_T(-V).
    """
    if not check_cy_symmetric(v):
        raise ValueError("vertex is not square-symmetric: Vbar != V*t1t2t3t4")
    zero_contribution = False
    for w, c in sorted(v.terms.items()):
        if w[0] == w[1] == w[2] == w[3]:
            if c > 0:
                raise TFixedObstruction(f"T-fixed weight {w} with coefficient {c}")
            zero_contribution = True
    if zero_contribution:
        return SqrtEuler.zero()
    # the product of one mul_form(f, -c) per kept weight, built once: f = g p
    # with p primitive (f has positive lead, so no sign) gives p^(-c) and
    # g^(-c), and a factor whose exponent returns to 0 is dropped at once,
    # as mul_form drops it
    factors = {}
    num = den = 1
    parity = 0
    for w, c in sorted(v.terms.items()):
        f = weight_form(w)
        lead = f[0] if f[0] else (f[1] if f[1] else f[2])
        if lead > 0:
            _, g, p = canonical_form(f)
            e = factors.get(p, 0) - c
            if e:
                factors[p] = e
            else:
                del factors[p]
            if c < 0:
                num *= g ** -c
            else:
                den *= g ** c
            parity += c
    return SqrtEuler(FactoredWeightProduct(1, Fraction(num, den), factors), parity % 2)


def substitution_forms(subst):
    """The linear forms of a substitution's four columns, checked: they
    must sum to 0 (the columns multiply to a power of t1t2t3t4, the
    Calabi-Yau condition) and the first three must be independent.

    The substitution then acts on linear forms as the matrix A with these
    first three forms as columns: weight_form(M w) = A weight_form(w)."""
    forms = tuple(weight_form(col) for col in subst)
    if len(forms) != 4 or any(sum(f[i] for f in forms) for i in range(3)):
        raise ValueError("substitution is not Calabi-Yau: its forms do not sum to 0")
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = forms[:3]
    det = a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)
    if not det:
        raise ValueError("substitution is not invertible on linear forms")
    return forms


def relabel_root(root, forms):
    """(s, R): the canonical root R of V.subst(cols) from the canonical
    root of V, for forms = substitution_forms(cols), and the sign s = +-1
    with R = s * A(root), where A is the substitution l_i -> forms[i].

    A maps the pair of forms (f, -f) to (A f, -A f), and both carry the
    same total coefficient, since V is square-symmetric.  So the canonical
    root in chart coordinates replaces each factor p^e by the positive-lead
    representative of A p, to the same power, with its content moved into
    the scalar; the parity stays, and s is the sign this drops."""
    value = root.value.substitute(forms)
    return value.sign, SqrtEuler(
        FactoredWeightProduct(1, value.scalar, value.factors), root.parity
    )


def euler_full_product(v):
    """e_T(-V) as a LambdaRat from the unpaired full product over all
    weights; None when a positive T-fixed coefficient makes it undefined."""
    acc = FactoredWeightProduct.one()
    for w, c in sorted(v.terms.items()):
        f = weight_form(w)
        if not any(f):
            if c > 0:
                return None
            return LambdaRat.from_int(0)
        acc = acc.mul_form(f, -c)
    return acc.expand()


# ---------------------------------------------------------------------------
# vertex and edge roots, kept in a root store


def subst_key(subst):
    if subst is None or tuple(map(tuple, subst)) == AXIS_WEIGHTS:
        return ""
    return "@[" + ";".join(",".join(map(str, col)) for col in subst) + "]"


def dt_vertex_character(sp):
    """The vertex Laurent polynomial of a DT fixed point."""
    return redistribute_vertex(dt_character(sp))


def pt_vertex_character(config):
    """The vertex Laurent polynomial of a PT fixed point."""
    return redistribute_vertex(pt_character(config))


class RootStore:
    """A store of Euler roots by fixed-point key, ``get(key)`` (None when
    absent) and ``put(key, root)``, and of DT/PT solves by (legs, trunc) in
    ``solves``.  This one lives in process; ``cache.VertexCache`` is the
    same protocol persisted to a file, and keeps its solves as long as it
    lives."""

    def __init__(self):
        self.roots = {}
        self.solves = {}

    def get(self, key):
        return self.roots.get(key)

    def put(self, key, root):
        self.roots[key] = root


# the store of every run without a cache
MEMORY = RootStore()


def _root_cached(base_key, subst, make_v, cache):
    """(sign key, root) of a fixed point under ``subst``: the standard root
    comes from the store, ``cache`` or else ``MEMORY``, keyed by
    ``base_key``, and is relabelled when ``subst`` is not the identity."""
    prefix = subst_key(subst)
    forms = substitution_forms(subst) if prefix else None
    store = MEMORY if cache is None else cache
    root = store.get(base_key)
    if root is None:
        root = euler_sqrt(make_v())
        store.put(base_key, root)
    if forms is not None:
        _, root = relabel_root(root, forms)
    return prefix + base_key, root


def dt_vertex_root(sp, subst=None, cache=None):
    """Canonical Euler root of a DT fixed point, with its sign key."""
    return _root_cached(sp.key(), subst, lambda: dt_vertex_character(sp), cache)


def pt_vertex_root(config, subst=None, cache=None):
    return _root_cached(
        config.key(), subst, lambda: pt_vertex_character(config), cache
    )


def edge_key(pp, e):
    m, mp, mpp = e.as_tuple() if isinstance(e, EdgeData) else e
    return f"edge:{pp.render()};m:({m},{mp},{mpp})"


def edge_character(pp, e):
    """The edge Laurent polynomial of a leg along an edge of degrees ``e``."""
    return redistribute_edge(pp, e)


def edge_root(pp, e, subst=None, cache=None):
    """Canonical Euler root of an edge term."""
    return _root_cached(
        edge_key(pp, e), subst, lambda: edge_character(pp, e), cache
    )


def sign_of(signs, key):
    if signs is None:
        return 1
    s = signs[key]
    if s not in (1, -1):
        raise ValueError(f"sign for {key} must be +1 or -1")
    return s


def _series_from_points(points, trunc, signs):
    """Deterministic aggregation of (key, order, root) contributions into a
    QSeries: per q-order, the terms in canonical key order go through
    ``lambdarat_sum``."""
    by_order = {}
    for key, order, root in points:
        by_order.setdefault(order, []).append((key, root))
    coeffs = {}
    for order in sorted(by_order):
        coeffs[order] = lambdarat_sum(
            root.expand().scale(sign_of(signs, key))
            for key, root in sorted(by_order[order], key=lambda kr: kr[0])
            if not root.is_zero()
        )
    return QSeries(trunc, coeffs)


def dt_vertex_series(lam, mu, nu, rho, trunc, signs=None, subst=None, cache=None):
    """The equivariant DT vertex: sum over solid partitions with the given
    legs of sign * sqrt((-1)^a e_T(-V)) q^{renormalized volume}."""
    legs = (lam, mu, nu, rho)
    cm = SolidPartition(legs)
    lowest = cm.renormalized_volume()
    max_added = trunc - 1 - lowest
    if max_added < 0:
        return QSeries.zero(trunc)
    points = []
    for sp in enumerate_dt(lam, mu, nu, rho, max_added):
        key, root = dt_vertex_root(sp, subst, cache)
        points.append((key, lowest + sp.n_added(), root))
    return _series_from_points(points, trunc, signs)


def pt_vertex_series(lam, mu, nu, rho, trunc, signs=None, subst=None, cache=None):
    """The equivariant PT vertex: sum over gravity-closed box configurations
    over the CM curve of sign * sqrt((-1)^a e_T(-V)) q^{|B| + |pi_CM|}."""
    legs = (lam, mu, nu, rho)
    module = LegModule(legs)
    cm = SolidPartition(legs)
    lowest = cm.renormalized_volume()
    max_len = trunc - 1 - lowest
    if max_len < 0:
        return QSeries.zero(trunc)
    points = []
    for config in enumerate_boxconfigs(module, max_len):
        key, root = pt_vertex_root(config, subst, cache)
        points.append((key, lowest + config.weighted_length(), root))
    return _series_from_points(points, trunc, signs)
