"""Sign assignments and the signed-sum solver.

Each q-order of a vertex identity is a constraint sum_i eps_i a_i = target
with eps_i in {+1,-1} and a_i exact rational functions.  The solver uses
meet-in-the-middle over modular evaluations of the terms as hash keys, then
verifies every candidate with exact arithmetic, so the reported solution
sets are both sound and complete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import FactoredWeightProduct, LambdaRat, lambdarat_sum, qexp
from .partitions import EMPTY_PP, SolidPartition, enumerate_dt
from .ptconfig import LegModule, enumerate_boxconfigs
from .vertexcalc import dt_vertex_root, pt_vertex_root, subst_key

MAX_UNKNOWNS = 40

# Deterministic (point, prime) evaluation configurations; the first two with
# all denominators invertible are used for hashing.
_EVAL_CONFIGS = (
    ((9973, 7919, 6997), 2305843009213693951),
    ((104729, 99991, 95231), 1000000000000000009),
    ((224737, 350377, 499979), 2305843009213693951),
    ((15485863, 32452843, 49979687), 1000000000000000009),
    ((86028121, 122949823, 141650939), 2305843009213693951),
    ((179424673, 198491317, 217645177), 1000000000000000009),
)


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

    def get(self, key, fallback=None):
        try:
            return self[key]
        except MissingSign:
            return fallback

    def __contains__(self, key):
        return key in self.mapping

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
        return cls(data.get("signs", {}), default=data.get("default"))

    def __repr__(self):
        return f"SignAssignment({len(self.mapping)} keys, default={self.default})"


# ---------------------------------------------------------------------------
# the signed-sum solver


def _usable_configs(values, extra):
    configs = []
    for point, prime in _EVAL_CONFIGS:
        ok = True
        for v in values + extra:
            if v.evaluate_mod(point, prime) is None:
                ok = False
                break
        if ok:
            configs.append((point, prime))
        if len(configs) == 2:
            return configs
    raise RuntimeError("no usable evaluation points for signed-sum hashing")


def _half_sums(residues, primes):
    """All signed sums of a list of residue pairs, as a map
    (r1, r2) -> list of bitmasks (a set bit means sign -1)."""
    table = {(0, 0): [0]}
    for i, (r1, r2) in enumerate(residues):
        bit = 1 << i
        new = {}
        for (s1, s2), masks in table.items():
            kp = ((s1 + r1) % primes[0], (s2 + r2) % primes[1])
            bucket = new.get(kp)
            if bucket is None:
                new[kp] = list(masks)
            else:
                bucket.extend(masks)
            km = ((s1 - r1) % primes[0], (s2 - r2) % primes[1])
            bucket = new.get(km)
            if bucket is None:
                new[km] = [m | bit for m in masks]
            else:
                bucket.extend(m | bit for m in masks)
        table = new
    return table


def solve_signed_sum(terms, target, _reuse=None):
    """All sign vectors eps with sum eps_i * terms_i = target, by
    meet-in-the-middle on modular evaluations with exact verification of
    every candidate.  Terms must be nonzero."""
    k = len(terms)
    for t in terms:
        if t.is_zero():
            raise ValueError("zero terms must be factored out before solving")
    if k == 0:
        return [()] if target.is_zero() else []
    if k > MAX_UNKNOWNS:
        raise RuntimeError(f"{k} unknowns exceeds the solver bound {MAX_UNKNOWNS}")

    if _reuse is None:
        _reuse = _solver_state(terms)
    configs, table_a, table_b, half = _reuse
    primes = (configs[0][1], configs[1][1])
    t1 = target.evaluate_mod(configs[0][0], primes[0])
    t2 = target.evaluate_mod(configs[1][0], primes[1])
    if t1 is None or t2 is None:
        # target not evaluable at the chosen points: fall back to exhaustion
        return _exhaustive_signed_sum(terms, target)

    solutions = []
    for (s1, s2), masks_b in table_b.items():
        want = ((t1 - s1) % primes[0], (t2 - s2) % primes[1])
        masks_a = table_a.get(want)
        if not masks_a:
            continue
        for ma in masks_a:
            for mb in masks_b:
                mask = ma | (mb << half)
                eps = tuple(-1 if mask >> i & 1 else 1 for i in range(k))
                total = lambdarat_sum(
                    [terms[i].scale(eps[i]) for i in range(k)]
                )
                if total == target:
                    solutions.append(eps)
    solutions.sort()
    return solutions


def _solver_state(terms):
    """Precomputed half-tables for solving several targets over one term list."""
    configs = _usable_configs(list(terms), [])
    primes = (configs[0][1], configs[1][1])
    res = [
        (
            t.evaluate_mod(configs[0][0], primes[0]),
            t.evaluate_mod(configs[1][0], primes[1]),
        )
        for t in terms
    ]
    half = (len(terms) + 1) // 2
    table_a = _half_sums(res[:half], primes)
    table_b = _half_sums(res[half:], primes)
    return configs, table_a, table_b, half


def _exhaustive_signed_sum(terms, target):
    """Gray-code walk over all 2^k assignments with one exact update each."""
    k = len(terms)
    if k > 22:
        raise RuntimeError("exhaustive fallback too large")
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


def naive_signed_sum(terms, target):
    """Plain 2^k exhaustion with exact arithmetic; the oracle for the
    meet-in-the-middle solver."""
    return _exhaustive_signed_sum(terms, target)


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


def nekrasov_rational():
    """(l1+l2)(l1+l3)(l2+l3) / (l1 l2 l3 (l1+l2+l3))."""
    return FactoredWeightProduct(
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
    ).expand()


def nekrasov_rational_subst(forms):
    """The same rational function after the chart substitution
    l_i -> forms[i] (four linear forms summing to zero)."""
    l1, l2, l3, l4 = forms
    acc = FactoredWeightProduct.one()
    for f in (
        (l1[0] + l2[0], l1[1] + l2[1], l1[2] + l2[2]),
        (l1[0] + l3[0], l1[1] + l3[1], l1[2] + l3[2]),
        (l2[0] + l3[0], l2[1] + l3[1], l2[2] + l3[2]),
    ):
        acc = acc.mul_form(f, 1)
    for f in (l1, l2, l3):
        acc = acc.mul_form(f, -1)
    neg4 = (-l4[0], -l4[1], -l4[2])
    acc = acc.mul_form(neg4, -1)
    return acc.expand()


def _group_terms(pairs):
    """Split (key, value) pairs into solvable nonzero terms and free zeros."""
    solvable, free = [], []
    for key, val in pairs:
        if val.is_zero():
            free.append(key)
        else:
            solvable.append((key, val))
    return solvable, free


def check_nekrasov(order, subst=None, cache=None):
    """Solve order-by-order for DT vertex signs matching
    exp(q (l1+l2)(l1+l3)(l2+l3) / (l1 l2 l3 (l1+l2+l3))) through q^order
    inclusive (order 4 solves 1, 4, 10, 26 unknowns)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    trunc = order + 1
    if subst is None:
        c = nekrasov_rational()
    else:
        from .exactalg import weight_form

        c = nekrasov_rational_subst(tuple(weight_form(col) for col in subst))
    target = qexp(c, trunc)
    e = EMPTY_PP
    by_order = {n: [] for n in range(trunc)}
    for sp in enumerate_dt(e, e, e, e, trunc - 1):
        key, root = dt_vertex_root(sp, subst, cache)
        by_order[sp.n_added()].append((key, root.expand()))

    orders = []
    witness = {}
    total_solutions = 1
    ok = True
    for n in range(trunc):
        solvable, free = _group_terms(by_order[n])
        sols = solve_signed_sum([v for _, v in solvable], target.coefficient(n))
        n_sol = len(sols)
        wit = {}
        residual = None
        if sols:
            wit = {k: s for (k, _), s in zip(solvable, sols[0])}
            wit.update({k: 1 for k in free})
            witness.update(wit)
        else:
            ok = False
            gap = lambdarat_sum([v for _, v in solvable]) - target.coefficient(n)
            residual = gap.render()
        total_solutions *= n_sol
        orders.append(
            OrderReport(n, len(solvable), len(free), n_sol, wit, residual)
        )
    return SignSolveReport(
        target="nekrasov",
        params={"order": order, "subst": subst_key(subst) or "standard"},
        orders=orders,
        n_global_solutions=total_solutions if ok else 0,
        closed_under_negation=False,
        ok=ok,
        witness=SignAssignment(witness) if ok else None,
    )


def nekrasov_series(trunc, report=None, subst=None, cache=None):
    """The empty DT vertex as a signed sum using the solved Nekrasov signs;
    equals the exponential when the check passes."""
    from .vertexcalc import dt_vertex_series

    if report is None:
        report = check_nekrasov(trunc - 1, subst=subst, cache=cache)
    if not report.ok:
        raise RuntimeError("Nekrasov signs do not exist at this order")
    e = EMPTY_PP
    return dt_vertex_series(
        e, e, e, e, trunc, signs=report.witness, subst=subst, cache=cache
    )


# ---------------------------------------------------------------------------
# the DT/PT vertex correspondence


def check_dtpt(lam, mu, nu, rho, trunc, nekrasov_signs=None, subst=None, cache=None,
               max_branches=4096):
    """Solve order-by-order for joint DT and PT vertex signs realizing
    Vtilde^DT = Vtilde^PT * V^DT_empty mod q^trunc, with the empty-vertex
    signs fixed to Nekrasov's unique solution.

    Reports the full solution structure: per-order extension counts, the
    number of globally consistent assignments, and whether the solution set
    is closed under global negation.
    """
    legs = (lam, mu, nu, rho)
    module = LegModule(legs)  # raises TooManyLegs for >= 3 non-empty legs
    if nekrasov_signs is None:
        nek_report = check_nekrasov(trunc - 1, subst=subst, cache=cache)
        if not nek_report.ok:
            raise RuntimeError("no Nekrasov signs at the requested order")
        nekrasov_signs = nek_report.witness

    # coefficients of V^DT_empty with the Nekrasov signs
    e = EMPTY_PP
    c_terms = [[] for _ in range(trunc)]
    for sp in enumerate_dt(e, e, e, e, trunc - 1):
        key, root = dt_vertex_root(sp, subst, cache)
        c_terms[sp.n_added()].append(root.expand().scale(nekrasov_signs[key]))
    c = [lambdarat_sum(terms) for terms in c_terms]

    cm = SolidPartition(legs)
    lowest = cm.renormalized_volume()
    dt_by_order = {n: [] for n in range(trunc)}
    for sp in enumerate_dt(lam, mu, nu, rho, trunc - 1):
        key, root = dt_vertex_root(sp, subst, cache)
        dt_by_order[sp.n_added()].append((key, root.expand()))
    pt_by_order = {n: [] for n in range(trunc)}
    for config in enumerate_boxconfigs(module, trunc - 1):
        key, root = pt_vertex_root(config, subst, cache)
        pt_by_order[config.weighted_length()].append((key, root.expand()))

    # each branch: (signs dict, per-order PT coefficient values)
    branches = [({}, [])]
    orders = []
    ok = True
    for n in range(trunc):
        dt_solvable, dt_free = _group_terms(dt_by_order[n])
        pt_solvable, pt_free = _group_terms(pt_by_order[n])
        terms = [v for _, v in dt_solvable] + [v for _, v in pt_solvable]
        state = _solver_state(terms) if terms else None
        new_branches = []
        n_ext = 0
        witness = {}
        residual = None
        for signs, pt_coeffs in branches:
            # sum eps_dt a - sum eps_pt b = sum_{k>=1} c_k * PT_{n-k}
            rhs = LambdaRat.from_int(0)
            for k in range(1, n + 1):
                rhs = rhs + c[k] * pt_coeffs[n - k]
            if terms:
                sols = solve_signed_sum(terms, rhs, _reuse=state)
            else:
                sols = [()] if rhs.is_zero() else []
            if not sols and residual is None:
                residual = (lambdarat_sum(terms) - rhs).render()
            n_ext += len(sols)
            for eps in sols:
                nd = len(dt_solvable)
                new_signs = dict(signs)
                for (key, _), s in zip(dt_solvable, eps[:nd]):
                    new_signs[key] = s
                for (key, _), s in zip(pt_solvable, eps[nd:]):
                    new_signs[key] = -s
                for key in dt_free + pt_free:
                    new_signs[key] = 1
                pt_n = lambdarat_sum(
                    [val.scale(new_signs[key]) for key, val in pt_solvable]
                )
                new_branches.append((new_signs, pt_coeffs + [pt_n]))
                if not witness:
                    witness = {
                        k: new_signs[k]
                        for k in [key for key, _ in dt_solvable]
                        + [key for key, _ in pt_solvable]
                        + dt_free
                        + pt_free
                    }
        if len(new_branches) > max_branches:
            raise RuntimeError("sign-solution branching exceeded the bound")
        orders.append(
            OrderReport(
                n + lowest,
                len(dt_solvable) + len(pt_solvable),
                len(dt_free) + len(pt_free),
                n_ext,
                witness,
                residual if n_ext == 0 else None,
            )
        )
        branches = new_branches
        if not branches:
            ok = False
            break

    solution_sets = [frozenset(signs.items()) for signs, _ in branches]
    negations = [
        frozenset((k, -v) for k, v in signs.items()) for signs, _ in branches
    ]
    closed = bool(solution_sets) and all(neg in set(solution_sets) for neg in negations)
    witness_signs = None
    if ok and branches:
        witness_signs = SignAssignment(dict(sorted(branches[0][0].items())))
    return SignSolveReport(
        target="dtpt",
        params={
            "legs": ",".join(pp.render() for pp in legs),
            "order": trunc,
            "lowest": lowest,
            "subst": subst_key(subst) or "standard",
        },
        orders=orders,
        n_global_solutions=len(branches) if ok else 0,
        closed_under_negation=closed,
        ok=ok and bool(branches),
        witness=witness_signs,
    )
