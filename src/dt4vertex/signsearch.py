"""Sign assignments and the signed-sum solver.

Each q-order of a vertex identity is a constraint sum_i eps_i a_i = target
with eps_i in {+1,-1} and a_i exact rational functions.  The solver writes
eps_i = 1 - 2 x_i, evaluates the terms and the target at a fixed sequence
of points modulo the prime ``exactalg.PRIME`` = 2^61 - 1 and row-reduces
the resulting linear system in the x_i.  Every true solution satisfies
every evaluated row, so the 0/1 solutions of the system, found by
enumerating its kernel, include all of them; each of these candidates is
then verified with exact arithmetic.  The reported solution sets are
therefore both sound and complete.

The terms of a vertex identity are Euler roots, sign * scalar * prod p^e,
and their rows are evaluated from that factored form (``_solver_state``),
to the residues of the expansion; the expansions serve only the exact sums
that check candidates and form PT partial sums.  The elimination
(``_row_reduce``) runs on rows packed one int each and reduces only the
pivot row as it goes.

Two identities are solved.  ``check nekrasov`` decides Nekrasov's formula
V^DT_empty = exp(qC), C = (l1+l2)(l1+l3)(l2+l3) / (l1 l2 l3 (l1+l2+l3)),
for the signed empty DT vertex.  ``check dtpt`` decides the DT/PT vertex
correspondence Vtilde^DT = Vtilde^PT * exp(qC), whose empty-vertex factor
``check nekrasov`` verifies, so its right-hand side is a fixed series with
no signs of its own.

The DT/PT identity holds only up to the global orientation sign: if eps
solves it, so does -eps.  After order 0 its branches therefore come in
pairs whose right-hand sides are R and -R.  Since sum (-eps_i) a_i =
-sum eps_i a_i, the solutions for -R are exactly those for R negated, so
``solve_dtpt`` solves each such pair once and negates the answer for the
mirror.  The first of each pair is still verified exactly, and the negated
list is the full solution set of the mirror, so this keeps every solution
set sound and complete.

Identities are solved in standard coordinates, and the DT/PT identity once
per orbit of leg sets under S4, the permutations of the four axes; every
other solve and every chart report is moved from one of these by one exact
move, ``move_order``.  A chart substitution acts on linear forms as an
invertible linear map A, a field automorphism of Q(l1, l2, l3), and a
permutation sigma is the chart whose column i is e_sigma(i).  A chart sends
the fixed point pi to the fixed point with the same key behind the chart's
prefix, sigma sends pi of legs R to sigma pi of sigma R, and in both cases
the new root is ``relabel_root`` of r_pi, that is s_pi A(r_pi) with s_pi =
+-1.  The target becomes A(exp(qC)), which sigma keeps, so each moved
equation is A of an old one: a parent's solutions are its old ones
multiplied by s and re-sorted, the branches are replayed in that order, and
each kept right-hand side becomes A(rhs).  Equal values render to equal
text, so a moved solve equals a direct solve in the new coordinates field by
field, and its reports are byte-identical to the direct ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import (
    PRIME,
    FactoredWeightProduct,
    LambdaRat,
    evaluate_all_mod,
    lambdarat_sum,
    qexp,
)
from .partitions import EMPTY_PP, SolidPartition, enumerate_dt
from .ptconfig import BoxConfig, LegModule, enumerate_boxconfigs
from .vertexcalc import (
    AXIS_WEIGHTS,
    MEMORY,
    dt_vertex_root,
    pt_vertex_root,
    relabel_root,
    subst_key,
    substitution_forms,
)

MAX_UNKNOWNS = 40
# the free variables of a reduced system are walked exhaustively: 2^20 steps
MAX_KERNEL_DIM = 20
# global sign solutions of the DT/PT identity kept through one order
MAX_BRANCHES = 4096


class MissingSign(KeyError):
    pass


class SignAssignment:
    """Total association fixed-point-key -> +-1, deterministically
    serializable.  A default of +1 gives the canonical assignment."""

    def __init__(self, mapping=None, default=None):
        self.mapping = dict(mapping or {})
        self.default = default
        for k, v in self.mapping.items():
            if v not in (1, -1):
                raise ValueError(f"sign for {k} must be +1 or -1: {v}")

    @classmethod
    def canonical(cls):
        return cls(default=1)

    def __getitem__(self, key):
        if key in self.mapping:
            return self.mapping[key]
        if self.default is not None:
            return self.default
        raise MissingSign(key)

    def __len__(self):
        return len(self.mapping)

    def items(self):
        return sorted(self.mapping.items())

    def merged(self, other):
        out = dict(self.mapping)
        for k, v in other.mapping.items():
            if out.get(k, v) != v:
                raise ValueError(f"conflicting signs for {k}")
            out[k] = v
        return SignAssignment(out, default=self.default)

    def negated(self):
        return SignAssignment(
            {k: -v for k, v in self.mapping.items()}, default=self.default
        )

    def to_json(self):
        return {"default": self.default, "signs": dict(self.items())}

    @classmethod
    def from_json(cls, data):
        """The inverse of ``to_json``; raises ValueError unless the document
        and its ``signs`` field are JSON objects."""
        if not isinstance(data, dict):
            raise ValueError(
                f"a sign assignment must be a JSON object, got {type(data).__name__}"
            )
        signs = data.get("signs", {})
        if not isinstance(signs, dict):
            raise ValueError(
                f"'signs' must be a JSON object, got {type(signs).__name__}"
            )
        return cls(signs, default=data.get("default"))

    def __repr__(self):
        return f"SignAssignment({len(self.mapping)} keys, default={self.default})"


# ---------------------------------------------------------------------------
# the signed-sum solver


def _evaluation_points():
    """The fixed sequence of points (l1, l2, l3) mod PRIME that rows are
    evaluated at: coordinates from the SplitMix64 generator with seed 0, so
    the points are generic and depend on neither the hash seed nor the
    Python version."""
    mask = (1 << 64) - 1
    state = 0
    while True:
        point = []
        for _ in range(3):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            point.append((z ^ (z >> 31)) % PRIME)
        yield tuple(point)


def _solver_state(values):
    """The rows shared by every solve over one term list: k + 2 points
    where every term is defined, each with the terms' values there.
    ``values`` lists the terms as LambdaRats or, for roots, as their
    FactoredWeightProducts, which ``evaluate_all_mod`` evaluates with no
    expansion and to the same residues.  Checks the unknown bound first, so
    an oversized order builds nothing."""
    k = len(values)
    if k > MAX_UNKNOWNS:
        raise RuntimeError(f"{k} unknowns exceeds the solver bound {MAX_UNKNOWNS}")
    for t in values:
        if t.is_zero():
            raise ValueError("zero terms must be factored out before solving")
    # a point is unusable where it zeroes a form of some term, which a
    # generic point almost never does; a second batch replaces the points
    # the first one loses.  Fewer rows would only widen the kernel.
    source = _evaluation_points()
    points, rows = [], []
    for _ in range(2):
        batch = list(itertools.islice(source, k + 2 - len(points)))
        for point, *row in zip(batch, *evaluate_all_mod(values, batch, PRIME)):
            if None not in row:
                points.append(point)
                rows.append(row)
    return points, rows


def _row_reduce(system, k):
    """Gauss-Jordan elimination mod PRIME of augmented rows of residues
    with k unknowns: (pivot columns, reduced rows with a 1 at their pivot), or
    None when the system is inconsistent.

    Each row is held as one int, entry j in slot j, a slot of the fewest
    whole bytes holding S = 2 * bitlen(PRIME) + bitlen(rows + 2) + 1 bits.
    Column c is eliminated by adding (PRIME - f) times the pivot row to
    every other row, f its slot c modulo PRIME, and nothing is reduced:
    only the pivot row is unpacked, normalized and repacked, once per
    pivot, and every slot is reduced once at the end.  A pivot row's slots
    are below PRIME and a row takes at most one update per pivot, so a slot
    stays below PRIME + rows * PRIME^2 < 2^S and no carry crosses into the
    next slot."""
    size = (2 * PRIME.bit_length() + (len(system) + 2).bit_length() + 8) // 8
    w = 8 * size
    mask = (1 << w) - 1

    def pack(row):
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in row), "little")

    def unpack(n, slots):
        data = n.to_bytes(slots * size, "little")
        return [
            int.from_bytes(data[i:i + size], "little") % PRIME
            for i in range(0, slots * size, size)
        ]

    rows = [pack(row) for row in system]
    pivots = []
    for col in range(k):
        shift = w * col
        r = len(pivots)
        i = next(
            (i for i in range(r, len(rows)) if (rows[i] >> shift & mask) % PRIME), None
        )
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        # the slots of rows[r] left of col are 0 mod PRIME, so the pivot row
        # starts at col
        tail = unpack(rows[r] >> shift, k + 1 - col)
        inv = pow(tail[0], -1, PRIME)
        pivot = rows[r] = pack([v * inv % PRIME for v in tail]) << shift
        for i, row in enumerate(rows):
            if i != r and (f := (row >> shift & mask) % PRIME):
                rows[i] = row + (PRIME - f) * pivot
        pivots.append(col)
    if any((row >> w * k) % PRIME for row in rows[len(pivots):]):
        return None
    return pivots, [unpack(row, k + 1) for row in rows[:len(pivots)]]


def _binary_solutions(pivots, rows, k):
    """Every 0/1 vector x satisfying the reduced rows: a Gray-code walk
    over the free variables that keeps the pivot values up to date."""
    pivot_set = set(pivots)
    free = [c for c in range(k) if c not in pivot_set]
    if len(free) > MAX_KERNEL_DIM:
        raise RuntimeError(
            f"kernel dimension {len(free)} exceeds the solver bound {MAX_KERNEL_DIM}"
        )
    # pivot value = rhs - sum over free c of row[c] * x_c
    vals = [row[k] for row in rows]
    columns = [[(r, row[c]) for r, row in enumerate(rows) if row[c]] for c in free]
    x = [0] * k
    for step in range(1 << len(free)):
        if step:
            j = (step & -step).bit_length() - 1
            c = free[j]
            sign = 1 if x[c] else -1
            x[c] ^= 1
            for r, coef in columns[j]:
                vals[r] = (vals[r] + sign * coef) % PRIME
        if all(v in (0, 1) for v in vals):
            for col, v in zip(pivots, vals):
                x[col] = v
            yield tuple(x)


def solve_signed_sum(terms, target, _reuse=None):
    """All sign vectors eps with sum eps_i * terms_i = target.  Terms must
    be nonzero.

    With eps_i = 1 - 2 x_i the equation reads sum x_i terms_i = (sum
    terms_i - target) / 2 over x in {0, 1}^k.  Evaluated at the points of
    ``_solver_state`` where the target is defined, that is a linear system
    over F_p; its 0/1 solutions are enumerated over the kernel and each
    one is verified with exact arithmetic.  The answer is complete, since
    every true solution satisfies every evaluated row, and sound, since
    every candidate is checked exactly.  ``_reuse`` is the state of
    ``_solver_state`` of the terms, or of their factored values, shared by
    several targets.
    """
    k = len(terms)
    if k == 0:
        return [()] if target.is_zero() else []
    points, rows = _solver_state(terms) if _reuse is None else _reuse
    half = pow(2, -1, PRIME)
    system = [
        row + [(sum(row) - t) * half % PRIME]
        for row, t in zip(rows, evaluate_all_mod([target], points, PRIME)[0])
        if t is not None
    ]
    reduced = _row_reduce(system, k)
    if reduced is None:
        return []
    solutions = []
    for x in _binary_solutions(*reduced, k):
        eps = tuple(1 - 2 * b for b in x)
        total = lambdarat_sum([terms[i].scale(eps[i]) for i in range(k)])
        if total == target:
            solutions.append(eps)
    solutions.sort()
    return solutions


def naive_signed_sum(terms, target):
    """Gray-code walk over all 2^k sign vectors with one exact update
    each; the test oracle for ``solve_signed_sum``."""
    k = len(terms)
    if k > 22:
        raise RuntimeError("naive exhaustion is limited to 22 terms")
    eps = [1] * k
    total = lambdarat_sum(terms)
    out = []
    if total == target:
        out.append(tuple(eps))
    for i in range(1, 1 << k):
        j = (i & -i).bit_length() - 1
        eps[j] = -eps[j]
        total = total + terms[j].scale(2 * eps[j])
        if total == target:
            out.append(tuple(eps))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class OrderReport:
    order: int
    n_unknowns: int
    n_free: int
    n_solutions: int
    witness: dict = field(default_factory=dict)
    residual: str | None = None  # canonical-sign residual when unsolvable

    def to_json(self):
        return {
            "order": self.order,
            "unknowns": self.n_unknowns,
            "free_signs": self.n_free,
            "solutions": self.n_solutions,
            "witness": dict(sorted(self.witness.items())),
            "residual": self.residual,
        }


@dataclass
class SignSolveReport:
    """Existence and uniqueness structure of the sign solutions of a vertex
    identity, per q-order and globally."""

    target: str
    params: dict
    orders: list
    n_global_solutions: int
    closed_under_negation: bool
    ok: bool
    witness: SignAssignment | None

    def per_order_unique(self):
        return all(o.n_solutions == 1 for o in self.orders)

    def to_json(self):
        return {
            "target": self.target,
            "params": self.params,
            "ok": self.ok,
            "orders": [o.to_json() for o in self.orders],
            "global_solutions": self.n_global_solutions,
            "closed_under_negation": self.closed_under_negation,
            "witness": self.witness.to_json() if self.witness else None,
        }

    def to_text(self):
        lines = [f"check {self.target}: {'PASS' if self.ok else 'FAIL'}"]
        for key, val in sorted(self.params.items()):
            lines.append(f"  {key} = {val}")
        for o in self.orders:
            lines.append(
                f"  order {o.order}: unknowns={o.n_unknowns} free={o.n_free} "
                f"solutions={o.n_solutions}"
            )
        lines.append(
            f"  global solutions: {self.n_global_solutions} "
            f"(closed under negation: {self.closed_under_negation})"
        )
        return "\n".join(lines)

    def render_json(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Nekrasov's point-count formula


# (l1+l2)(l1+l3)(l2+l3) / (l1 l2 l3 (l1+l2+l3))
NEKRASOV_FACTORED = FactoredWeightProduct(
    1,
    Fraction(1),
    {
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (0, 1, 1): 1,
        (1, 0, 0): -1,
        (0, 1, 0): -1,
        (0, 0, 1): -1,
        (1, 1, 1): -1,
    },
)


def nekrasov_rational():
    """(l1+l2)(l1+l3)(l2+l3) / (l1 l2 l3 (l1+l2+l3))."""
    return NEKRASOV_FACTORED.expand()


def nekrasov_rational_subst(forms):
    """The same rational function after the chart substitution
    l_i -> forms[i]."""
    return NEKRASOV_FACTORED.substitute(forms).expand()


# ---------------------------------------------------------------------------
# solves, and the one move between coordinates


@dataclass
class OrderSolve:
    """One q-order of a sign solve.

    ``keys`` and ``roots`` list the nonzero terms, the first ``n_dt`` of
    them DT terms, and ``free`` the keys of the zero terms.  The unknowns
    are the signs of the nonzero terms.  A PT term's sign is its unknown
    negated, since it sits on the other side of the identity; a zero term's
    sign is +1.  ``solutions`` holds, for each parent branch, the sorted
    sign vectors extending it, and ``rhs`` each parent's right-hand side,
    kept only when no parent extends.  ``order`` is the q-order reported."""

    order: int
    keys: list
    roots: list
    n_dt: int
    free: list
    solutions: list = field(default_factory=list)
    rhs: list | None = None


def _order_solve(order, dt_pairs, pt_pairs):
    """An OrderSolve without solutions, from (key, root) pairs."""
    dt = [(k, r) for k, r in dt_pairs if not r.is_zero()]
    pt = [(k, r) for k, r in pt_pairs if not r.is_zero()]
    free = [k for k, r in dt_pairs + pt_pairs if r.is_zero()]
    return OrderSolve(
        order, [k for k, _ in dt + pt], [r for _, r in dt + pt], len(dt), free
    )


def move_order(o, forms, pairs, parents):
    """(moved, children): the OrderSolve o moved by the chart A with forms
    ``forms``, and the old index of each of its children.

    ``pairs`` lists (new key, old key) for every fixed point in the new
    enumeration order, DT before PT, and ``parents`` the old index of each
    parent branch in the new order.  The root of an old key becomes
    relabel_root of it, s A(r), and a kept right-hand side A(rhs), so each
    parent's solutions are its old ones multiplied by s and re-sorted; its
    children follow in that order."""
    index = {k: i for i, k in enumerate(o.keys)}
    keys, old, free = [], [], []
    for key, pre in pairs:
        if pre in index:
            keys.append(key)
            old.append(index[pre])
        else:
            free.append(key)
    signs, roots = [], []
    for i in old:
        s, root = relabel_root(o.roots[i], forms)
        signs.append(s)
        roots.append(root)
    starts = list(itertools.accumulate(map(len, o.solutions), initial=0))
    solutions, children = [], []
    for j in parents:
        moved = sorted(
            (tuple(eps[i] * s for i, s in zip(old, signs)), starts[j] + c)
            for c, eps in enumerate(o.solutions[j])
        )
        solutions.append([eps for eps, _ in moved])
        children += [child for _, child in moved]
    rhs = None if o.rhs is None else [o.rhs[j].substitute(forms) for j in parents]
    return OrderSolve(o.order, keys, roots, o.n_dt, free, solutions, rhs), children


def _chart_pairs(o, prefix):
    """The (new key, old key) pairs of o in a chart: its own keys, in its
    own order, behind the chart's prefix."""
    return [(prefix + k, k) for k in o.keys + o.free]


def _order_signs(o, eps):
    """The sign of every key of one order under the sign vector eps."""
    out = {k: e if i < o.n_dt else -e for i, (k, e) in enumerate(zip(o.keys, eps))}
    out.update(dict.fromkeys(o.free, 1))
    return out


def _residual(o, parent):
    """The canonical-sign residual of a parent: the sum of the order's
    roots less the parent's right-hand side."""
    return (lambdarat_sum([r.expand() for r in o.roots]) - o.rhs[parent]).render()


# ---------------------------------------------------------------------------
# Nekrasov's identity


def solve_nekrasov(order, cache=None):
    """The solve behind ``check_nekrasov``, in standard coordinates: one
    OrderSolve per q-order through q^order, each with a single parent."""
    if order < 0:
        raise ValueError("order must be >= 0")
    trunc = order + 1
    target = qexp(nekrasov_rational(), trunc)
    e = EMPTY_PP
    by_order = {n: [] for n in range(trunc)}
    for sp in enumerate_dt(e, e, e, e, trunc - 1):
        by_order[sp.n_added()].append(dt_vertex_root(sp, cache=cache))
    orders = []
    for n in range(trunc):
        o = _order_solve(n, by_order[n], [])
        state = _solver_state([r.value for r in o.roots]) if o.roots else None
        terms = [r.expand() for r in o.roots]
        sols = solve_signed_sum(terms, target.coefficient(n), _reuse=state)
        o.solutions.append(sols)
        if not sols:
            o.rhs = [target.coefficient(n)]
        orders.append(o)
    return orders


def nekrasov_report(orders, subst=None):
    """The report of ``check_nekrasov`` in the chart ``subst``: each order
    of the standard solve ``orders`` is moved to the chart (``move_order``,
    with its single parent) and rendered."""
    prefix = subst_key(subst)
    if prefix:
        forms = substitution_forms(subst)
        orders = [move_order(o, forms, _chart_pairs(o, prefix), [0])[0] for o in orders]
    reports = []
    witness = {}
    total_solutions = 1
    ok = True
    for o in orders:
        sols = o.solutions[0]
        wit = {}
        residual = None
        if sols:
            wit = _order_signs(o, sols[0])
            witness.update(wit)
        else:
            ok = False
            residual = _residual(o, 0)
        total_solutions *= len(sols)
        reports.append(
            OrderReport(o.order, len(o.keys), len(o.free), len(sols), wit, residual)
        )
    return SignSolveReport(
        target="nekrasov",
        params={"order": len(orders) - 1, "subst": prefix or "standard"},
        orders=reports,
        n_global_solutions=total_solutions if ok else 0,
        closed_under_negation=False,
        ok=ok,
        witness=SignAssignment(witness) if ok else None,
    )


def check_nekrasov(order, cache=None):
    """Solve order-by-order for DT vertex signs matching
    exp(q (l1+l2)(l1+l3)(l2+l3) / (l1 l2 l3 (l1+l2+l3))) through q^order
    inclusive (order 4 solves 1, 4, 10, 26 unknowns)."""
    return nekrasov_report(solve_nekrasov(order, cache))


# ---------------------------------------------------------------------------
# the DT/PT vertex correspondence


@dataclass
class DtptSolve:
    """The solve behind ``check_dtpt``: the branch tree of sign solutions,
    one OrderSolve per q-order reached, in the chart whose sign-key prefix
    is ``prefix`` ("" in standard coordinates)."""

    legs: tuple
    trunc: int
    lowest: int
    orders: list
    prefix: str = ""


def _rat_key(r):
    """A hashable key of the normal form of a LambdaRat.  The normal form
    is unique, so equal keys mean equal values."""
    return tuple(sorted(r.num.items())), r.scalar, tuple(sorted(r.factors.items()))


def solve_dtpt(legs, trunc, cache=None):
    """Solve order-by-order, in standard coordinates, for joint DT and PT
    vertex signs realizing Vtilde^DT = Vtilde^PT * exp(qC) mod q^trunc.

    The representative R of the S4 orbit of ``legs`` is solved by
    ``solve_dtpt_direct`` and its solve transported to ``legs`` by
    ``transport_dtpt``; the result equals a direct solve of ``legs`` field
    by field.  The solves of representatives and the transported solves
    are kept in the ``solves`` of the root store, ``cache`` or else
    ``vertexcalc.MEMORY``, beside the roots they are built from, so each
    orbit is solved once and each leg set transported once while the store
    lives.  No caller changes a solve it is given."""
    LegModule(legs)  # rejects malformed legs before their orbit is formed
    legs = tuple(legs)
    solves = (MEMORY if cache is None else cache).solves
    if (solve := solves.get((legs, trunc))) is None:
        rep, p = orbit_representative(legs)
        if (rep_solve := solves.get((rep, trunc))) is None:
            rep_solve = solves[rep, trunc] = solve_dtpt_direct(rep, trunc, cache)
        solve = solves[legs, trunc] = transport_dtpt(rep_solve, p, legs)
    return solve


def solve_dtpt_direct(legs, trunc, cache=None):
    """The solve of ``solve_dtpt`` for ``legs`` themselves, with no orbit
    representative and no kept solve.

    Each branch is a solution through the previous order; its children, in
    order, extend it by the sorted solutions of the next order.  The solve
    stops after the first order that no branch extends.

    Within an order, all branches share the terms and differ only in the
    right-hand side.  A right-hand side equal to one already solved at that
    order reuses its solutions, and one equal to its negation reuses them
    negated and re-sorted: sum (-eps_i) a_i = -sum eps_i a_i, so that is
    the whole solution set of the mirrored equation, and every solution
    list stays the one ``solve_signed_sum`` would return.  By the global
    orientation sign the branches come in such +- pairs, so every order
    after the first solves, and checks the candidates of, half of them."""
    module = LegModule(legs)  # raises TooManyLegs for >= 3 non-empty legs
    if trunc < 1:
        raise ValueError("order must be >= 1")
    empty = qexp(nekrasov_rational(), trunc)

    lowest = SolidPartition(legs).renormalized_volume()
    dt_by_order = {n: [] for n in range(trunc)}
    for sp in enumerate_dt(*legs, trunc - 1):
        dt_by_order[sp.n_added()].append(dt_vertex_root(sp, cache=cache))
    pt_by_order = {n: [] for n in range(trunc)}
    for config in enumerate_boxconfigs(module, trunc - 1):
        pt_by_order[config.weighted_length()].append(pt_vertex_root(config, cache=cache))

    # each branch: its PT coefficient values, order by order
    branches = [[]]
    orders = []
    for n in range(trunc):
        o = _order_solve(n + lowest, dt_by_order[n], pt_by_order[n])
        state = _solver_state([r.value for r in o.roots]) if o.roots else None
        terms = [r.expand() for r in o.roots]
        children = []
        rhs_of = []
        # the sorted solutions of each right-hand side solved at this order
        solved = {}
        for pt_coeffs in branches:
            # sum eps_dt a - sum eps_pt b = sum_{k>=1} C^k/k! * PT_{n-k}
            rhs = LambdaRat.from_int(0)
            for k in range(1, n + 1):
                rhs = rhs + empty.coefficient(k) * pt_coeffs[n - k]
            key = _rat_key(rhs)
            if key in solved:
                sols = solved[key]
            elif (mirror := _rat_key(-rhs)) in solved:
                sols = sorted(tuple(-e for e in eps) for eps in solved[mirror])
            elif terms:
                sols = solve_signed_sum(terms, rhs, _reuse=state)
            else:
                sols = [()] if rhs.is_zero() else []
            solved[key] = sols
            o.solutions.append(sols)
            rhs_of.append(rhs)
            for eps in sols:
                pt_n = lambdarat_sum(
                    [v.scale(-s) for v, s in zip(terms[o.n_dt:], eps[o.n_dt:])]
                )
                children.append(pt_coeffs + [pt_n])
        if len(children) > MAX_BRANCHES:
            raise RuntimeError("sign-solution branching exceeded the bound")
        if not children:
            o.rhs = rhs_of
        orders.append(o)
        branches = children
        if not branches:
            break
    return DtptSolve(legs, trunc, lowest, orders)


# ---------------------------------------------------------------------------
# one DT/PT solve per S4 orbit of leg sets

# every permutation p of the four axes, the identity first; p sends axis i
# to axis p[i]
AXIS_PERMUTATIONS = tuple(itertools.permutations(range(4)))
IDENTITY_PERMUTATION = AXIS_PERMUTATIONS[0]


def inverse_permutation(p):
    inv = [0] * 4
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def permute_point(w, p):
    """A box or weight with its coordinate along axis i moved to axis p[i]."""
    out = [0] * 4
    for i, x in enumerate(w):
        out[p[i]] = x
    return tuple(out)


def permute_legs(legs, p):
    """The legs moved by p: leg i becomes leg p[i], with its box coordinates
    (read on the other three axes in increasing order) permuted so that
    every box of its cylinder moves by ``permute_point``."""
    out = [None] * 4
    for i, pp in enumerate(legs):
        slots = [k for k in range(4) if k != i]
        out[p[i]] = pp.permuted_axes(
            tuple(sorted(range(3), key=lambda r: p[slots[r]]))
        )
    return tuple(out)


def orbit_representative(legs):
    """(R, p) with R the representative of the S4 orbit of ``legs``, its
    image with the greatest sort key, and permute_legs(R, p) == legs.  For
    legs that are their own representative, p is the identity."""
    images = {}
    for q in AXIS_PERMUTATIONS:
        images.setdefault(permute_legs(legs, q), q)
    rep = max(images, key=lambda L: tuple(pp.sort_key() for pp in L))
    return rep, inverse_permutation(images[rep])


def _move_orders(orders, forms, pairs):
    """The orders of a branch tree moved by ``move_order``, with each
    order's (new key, old key) pairs from ``pairs``: the parents of each
    order are the children of the one before."""
    parents, out = [0], []
    for o, order_pairs in zip(orders, pairs):
        o, parents = move_order(o, forms, order_pairs, parents)
        out.append(o)
    return out


def transport_dtpt(solve, p, legs):
    """The solve of legs = permute_legs(solve.legs, p), moved from
    ``solve``: p is the chart whose column i is e_p[i], and each fixed
    point of ``legs`` is paired with its preimage, in the enumeration order
    of ``legs``."""
    if p == IDENTITY_PERMUTATION:
        return solve
    forms = substitution_forms([AXIS_WEIGHTS[j] for j in p])
    inv = inverse_permutation(p)
    rep_legs, rep_module = solve.legs, LegModule(solve.legs)
    # per order: (key, key of the preimage) of every fixed point of legs
    pairs = [[] for _ in range(solve.trunc)]
    for sp in enumerate_dt(*legs, solve.trunc - 1):
        pre = SolidPartition(rep_legs, [permute_point(b, inv) for b in sp.added])
        pairs[sp.n_added()].append((sp.key(), pre.key()))
    for config in enumerate_boxconfigs(LegModule(legs), solve.trunc - 1):
        pre = BoxConfig(rep_module, [permute_point(w, inv) for w in config.boxes])
        pairs[config.weighted_length()].append((config.key(), pre.key()))
    orders = _move_orders(solve.orders, forms, pairs)
    return DtptSolve(legs, solve.trunc, solve.lowest, orders)


def dtpt_report(solve, subst=None):
    """The report of ``check_dtpt`` in the chart ``subst``: the solve is
    moved to the chart and rendered, each branch's children extending its
    signs in order."""
    prefix = subst_key(subst)
    if prefix:
        pairs = [_chart_pairs(o, prefix) for o in solve.orders]
        orders = _move_orders(solve.orders, substitution_forms(subst), pairs)
        solve = DtptSolve(solve.legs, solve.trunc, solve.lowest, orders, prefix)
    # the signs of each branch, in order
    branches = [{}]
    orders = []
    for o in solve.orders:
        own = [
            (signs, _order_signs(o, eps))
            for signs, sols in zip(branches, o.solutions)
            for eps in sols
        ]
        witness = own[0][1] if own else {}
        residual = None if own else _residual(o, 0)
        orders.append(
            OrderReport(o.order, len(o.keys), len(o.free), len(own), witness, residual)
        )
        branches = [{**signs, **mine} for signs, mine in own]

    solution_sets = {frozenset(signs.items()) for signs in branches}
    closed = bool(solution_sets) and all(
        frozenset((k, -v) for k, v in signs.items()) in solution_sets
        for signs in branches
    )
    witness_signs = None
    if branches:
        witness_signs = SignAssignment(dict(sorted(branches[0].items())))
    return SignSolveReport(
        target="dtpt",
        params={
            "legs": ",".join(pp.render() for pp in solve.legs),
            "order": solve.trunc,
            "lowest": solve.lowest,
            "subst": solve.prefix or "standard",
        },
        orders=orders,
        n_global_solutions=len(branches),
        closed_under_negation=closed,
        ok=bool(branches),
        witness=witness_signs,
    )


def check_dtpt(lam, mu, nu, rho, trunc, cache=None):
    """Solve order-by-order for joint DT and PT vertex signs realizing
    Vtilde^DT = Vtilde^PT * exp(qC) mod q^trunc, whose empty-vertex factor
    exp(qC) = V^DT_empty is the identity ``check_nekrasov`` verifies.

    Reports the full solution structure: per-order extension counts, the
    number of globally consistent assignments, and whether the solution set
    is closed under global negation.
    """
    return dtpt_report(solve_dtpt((lam, mu, nu, rho), trunc, cache))
