import random
import time
from fractions import Fraction

import pytest

from dt4vertex import signsearch
from dt4vertex.exactalg import (
    PRIME,
    FactoredWeightProduct,
    LambdaRat,
    evaluate_all_mod,
    lambdarat_sum,
    poly_from_form,
    qexp,
)
from dt4vertex.partitions import EMPTY_PP, PlanePartition, enumerate_pointlike
from dt4vertex.ptconfig import TooManyLegs
from dt4vertex.signsearch import (
    AXIS_PERMUTATIONS,
    IDENTITY_PERMUTATION,
    SignAssignment,
    check_dtpt,
    check_nekrasov,
    dtpt_report,
    naive_signed_sum,
    nekrasov_rational,
    orbit_representative,
    permute_legs,
    solve_dtpt,
    solve_dtpt_direct,
    solve_signed_sum,
)
from dt4vertex.vertexcalc import MEMORY, dt_vertex_root, dt_vertex_series
from test_acceptance import leg_tuples

BOX = PlanePartition([[1]])
E = EMPTY_PP


def rat(f):
    return LambdaRat(poly_from_form(f))


def inverse_form(f):
    return FactoredWeightProduct.one().mul_form(f, -1).expand()


def random_term(rng):
    """A random nonzero linear form over l1 + l2 + l3, times 1..3."""
    f = tuple(rng.randint(-2, 2) for _ in range(3))
    if not any(f):
        f = (1, 0, 0)
    return LambdaRat(poly_from_form(f), 1, {(1, 1, 1): 1}).scale(rng.randint(1, 3))


def rich_term(rng):
    """Three random monomials of degree <= 3 in each variable, over
    (l1 + l2 + l3) times a random form; unlike ``random_term`` these span
    far more than three dimensions."""
    num = {tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(1, 5)
           for _ in range(3)}
    f = (rng.randint(1, 3), rng.randint(-2, 2), rng.randint(0, 2))
    return LambdaRat(num, 1, {(1, 1, 1): 1}) * inverse_form(f)


def unshared_solutions(solve):
    """Every ``OrderSolve.solutions`` list of a DT/PT solve, rebuilt by
    solving each branch's own right-hand side from scratch, with nothing
    shared between branches."""
    empty = qexp(nekrasov_rational(), solve.trunc)
    branches = [[]]  # each branch: its PT coefficient values, order by order
    out = []
    for n, o in enumerate(solve.orders):
        terms = [r.expand() for r in o.roots]
        per_parent = []
        children = []
        for pt in branches:
            rhs = lambdarat_sum(
                [empty.coefficient(k) * pt[n - k] for k in range(1, n + 1)]
            )
            sols = solve_signed_sum(terms, rhs)
            per_parent.append(sols)
            for eps in sols:
                pt_n = lambdarat_sum(
                    [b.scale(-e) for b, e in zip(terms[o.n_dt:], eps[o.n_dt:])]
                )
                children.append(pt + [pt_n])
        out.append(per_parent)
        branches = children
    return out


def row_reduce_oracle(system, k):
    """List oracle of ``signsearch._row_reduce``: Gauss-Jordan elimination
    mod PRIME one residue at a time, every entry reduced at every step."""
    rows = [list(r) for r in system]
    pivots = []
    for col in range(k):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        # the entries of rows[r] left of col are 0, so each update starts at col
        inv = pow(rows[r][col], -1, PRIME)
        tail = [v * inv % PRIME for v in rows[r][col:]]
        rows[r][col:] = tail
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                row[col:] = [(a - f * b) % PRIME for a, b in zip(row[col:], tail)]
        pivots.append(col)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    return pivots, rows[:len(pivots)]


def oracle_checked_row_reduce(monkeypatch):
    """Patch ``signsearch._row_reduce`` to assert that every call returns
    what the oracle returns; the list of each call's k is returned."""
    calls = []
    real = signsearch._row_reduce

    def checked(system, k):
        got = real(system, k)
        assert got == row_reduce_oracle(system, k)
        calls.append(k)
        return got

    monkeypatch.setattr(signsearch, "_row_reduce", checked)
    return calls


def planted(rng, terms):
    """A random sign vector and the signed sum it gives."""
    eps = tuple(rng.choice([1, -1]) for _ in terms)
    return eps, lambdarat_sum([t.scale(s) for s, t in zip(eps, terms)])


class TestSolveSignedSum:
    def test_single_term(self):
        a = rat((1, 2, 0))
        assert solve_signed_sum([a], a) == [(1,)]
        assert solve_signed_sum([a], -a) == [(-1,)]
        assert solve_signed_sum([a], rat((0, 0, 1))) == []

    def test_equal_pair_to_zero(self):
        a = rat((1, 1, 1))
        assert solve_signed_sum([a, a], LambdaRat.from_int(0)) == [(-1, 1), (1, -1)]

    def test_empty(self):
        assert solve_signed_sum([], LambdaRat.from_int(0)) == [()]
        assert solve_signed_sum([], LambdaRat.from_int(1)) == []

    def test_zero_term_rejected(self):
        with pytest.raises(ValueError):
            solve_signed_sum([LambdaRat.from_int(0)], LambdaRat.from_int(0))

    def test_matches_exhaustion_random(self):
        rng = random.Random(37)
        for _ in range(12):
            k = rng.randint(1, 10)
            terms = [random_term(rng) for _ in range(k)]
            eps, target = planted(rng, terms)
            fast = solve_signed_sum(terms, target)
            slow = naive_signed_sum(terms, target)
            assert fast == slow
            assert eps in fast
        # terms drawn from a span of dimension r <= k: the system is short
        # of full rank and the solver enumerates its kernel
        for _ in range(16):
            k = rng.randint(2, 9)
            r = rng.randint(1, k)
            basis = [rich_term(rng) for _ in range(r)]
            terms = []
            while len(terms) < k:
                t = lambdarat_sum([b.scale(rng.randint(-2, 2)) for b in basis])
                if not t.is_zero():
                    terms.append(t)
            eps, target = planted(rng, terms)
            fast = solve_signed_sum(terms, target)
            assert fast == naive_signed_sum(terms, target)
            assert eps in fast
            miss = target + basis[0]
            assert solve_signed_sum(terms, miss) == naive_signed_sum(terms, miss)

    def test_duplicate_and_proportional_terms(self):
        a, b = rat((1, 2, 0)), rat((0, 1, 3))
        cases = [
            [a, a, a, b],
            [a, a.scale(2), a.scale(Fraction(-1, 3)), b, b.scale(3)],
            [a, b, a + b, a - b, (a + b).scale(2)],
        ]
        for terms in cases:
            for target in (
                LambdaRat.from_int(0), a, a + b, a.scale(3), a.scale(2) - b
            ):
                assert solve_signed_sum(terms, target) == naive_signed_sum(
                    terms, target
                )
        # a + a - a + b is one of several solutions
        assert len(solve_signed_sum(cases[0], a + b)) == 3

    def test_kernel_dimension_bound(self):
        # 40 copies of one term: rank 1, so 39 free signs; the solver must
        # refuse before any 2^39 walk
        a = rat((1, 1, 2))
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="kernel dimension 39 exceeds"):
            solve_signed_sum([a] * 40, a.scale(4))
        assert time.perf_counter() - start < 10

    def test_unknown_bound(self, monkeypatch):
        a = rat((1, 1, 2))
        with pytest.raises(
            RuntimeError, match="^41 unknowns exceeds the solver bound 40$"
        ):
            solve_signed_sum([a] * 41, a)

        # the bound is checked before any evaluation
        def no_evaluation(*args):
            raise AssertionError("evaluated an order beyond the bound")

        monkeypatch.setattr(signsearch, "evaluate_all_mod", no_evaluation)
        with pytest.raises(RuntimeError, match="41 unknowns exceeds"):
            signsearch._solver_state([a] * 41)
        # nor of the factored roots the solves pass
        f = FactoredWeightProduct(1, 1, {(1, 1, 2): 1, (0, 1, 0): -1})
        with pytest.raises(RuntimeError, match="41 unknowns exceeds"):
            signsearch._solver_state([f] * 41)

    def test_points_where_target_is_undefined(self, monkeypatch):
        # 24 unknowns, beyond what any 2^k exhaustion could take
        rng = random.Random(43)
        terms = [rich_term(rng) for _ in range(24)]
        eps, target = planted(rng, terms)
        pole = (1, 2, 3)
        off_pole = target + inverse_form(pole)
        mod = PRIME
        # first a point that zeroes the factor l1 + l2 + l3 of the target
        # (and of every term), then two where only off_pole's pole vanishes
        third = pow(3, -1, mod)

        def on_pole(a, b):
            return (a, b, -(a + 2 * b) * third % mod)

        bad = [(1009, 2713, mod - 1009 - 2713), on_pole(7919, 104729), on_pole(31, 8191)]
        assert target.evaluate_mod(bad[0], mod) is None
        assert all(off_pole.evaluate_mod(p, mod) is None for p in bad[1:])
        assert all(None not in col for col in evaluate_all_mod(terms, bad[1:], mod))
        original = signsearch._evaluation_points

        def points():
            yield from bad
            yield from original()

        monkeypatch.setattr(signsearch, "_evaluation_points", points)
        points_used, rows = signsearch._solver_state(terms)
        assert bad[0] not in points_used and points_used[:2] == bad[1:]
        assert len(rows) == 26
        assert solve_signed_sum(terms, target) == [eps]
        assert solve_signed_sum(terms, off_pole) == []

    def test_nekrasov_order_two_unique(self):
        target = qexp(nekrasov_rational(), 3).coefficient(2)
        terms = [
            dt_vertex_root(sp)[1].expand() for sp in enumerate_pointlike(2)
        ]
        fast = solve_signed_sum(terms, target)
        slow = naive_signed_sum(terms, target)
        assert fast == slow
        assert len(fast) == 1


class TestRowReduce:
    @staticmethod
    def system(rng, k, m, rank, consistent):
        """m augmented rows in k unknowns whose coefficients have the given
        rank for these seeds: random combinations of rank rows whose entries
        are drawn towards 0, 1 and PRIME - 1.  A consistent system's
        right-hand side is A x for a random x, otherwise it is random."""
        def entry():
            return rng.choice([0, 1, PRIME - 1, rng.randrange(PRIME)])

        basis = [[entry() for _ in range(k)] for _ in range(rank)]
        x = [rng.randrange(PRIME) for _ in range(k)]
        out = []
        for _ in range(m):
            c = [rng.randrange(PRIME) for _ in range(rank)]
            row = [sum(a * b[j] for a, b in zip(c, basis)) % PRIME for j in range(k)]
            rhs = sum(a * b for a, b in zip(row, x)) if consistent else entry()
            out.append(row + [rhs % PRIME])
        return out

    @pytest.mark.parametrize(
        "k, m, rank, consistent",
        [
            (8, 10, 8, True),
            (8, 10, 8, False),
            (12, 14, 5, True),
            (12, 14, 5, False),
            (40, 42, 40, True),
            (40, 42, 33, True),
            (40, 42, 33, False),
            (5, 3, 3, True),
        ],
        ids=[
            "full-rank", "full-rank-inconsistent", "deficient", "inconsistent",
            "k40", "k40-deficient", "k40-inconsistent", "short",
        ],
    )
    def test_packed_matches_oracle(self, k, m, rank, consistent):
        rng = random.Random(k * 1000 + m * 10 + rank + consistent)
        for _ in range(5):
            system = self.system(rng, k, m, rank, consistent)
            got = signsearch._row_reduce(system, k)
            assert got == row_reduce_oracle(system, k)
            if consistent:
                assert len(got[0]) == rank
            else:
                assert got is None

    def test_leading_zero_columns_and_worst_entries(self):
        # free columns before the first pivot, many equal rows, and entries
        # near PRIME, so that the unreduced slots grow large
        k = 30
        system = [[0, 0] + [PRIME - 1] * (k - 1) for _ in range(k + 2)]
        system += [[0, 0] + [PRIME - 1 - i] + [i + 1] * (k - 2) for i in range(k)]
        assert signsearch._row_reduce(system, k) == row_reduce_oracle(system, k)

    def test_every_desk_solve_matches_oracle(self, monkeypatch):
        # every reduction of Nekrasov's identity mod q^5 and of the
        # criterion-2a leg sets mod q^4
        calls = oracle_checked_row_reduce(monkeypatch)
        assert check_nekrasov(4).ok
        for L in leg_tuples(2):
            assert check_dtpt(*L, 4).ok
        assert max(calls) == 36 and len(calls) == 21

    def test_nekrasov_order_five_past_the_bound(self, monkeypatch):
        # order 5 has 59 unknowns, beyond the bound of 40 and beyond every
        # other tier-1 solve; lifted, it has one solution per order
        monkeypatch.setattr(signsearch, "MAX_UNKNOWNS", 59)
        calls = oracle_checked_row_reduce(monkeypatch)
        orders = signsearch.solve_nekrasov(5)
        assert [len(o.keys) for o in orders] == [1, 1, 4, 10, 26, 59]
        assert all(len(o.solutions) == 1 and len(o.solutions[0]) == 1 for o in orders)
        assert calls[-1] == 59


class TestSignAssignment:
    def test_strict_lookup(self):
        sa = SignAssignment({"a": 1, "b": -1})
        assert sa["a"] == 1 and sa["b"] == -1
        with pytest.raises(KeyError):
            sa["c"]

    def test_canonical_default(self):
        assert SignAssignment.canonical()["anything"] == 1

    def test_roundtrip_and_negation(self):
        sa = SignAssignment({"x": -1, "y": 1})
        again = SignAssignment.from_json(sa.to_json())
        assert again.mapping == sa.mapping
        assert sa.negated().mapping == {"x": 1, "y": -1}

    def test_merge_conflict(self):
        with pytest.raises(ValueError):
            SignAssignment({"k": 1}).merged(SignAssignment({"k": -1}))


class TestNekrasov:
    def test_order_one_unique(self):
        rep = check_nekrasov(1)
        assert rep.ok and rep.per_order_unique()
        assert rep.orders[-1].n_unknowns == 1

    def test_order_three_unique_and_series_matches(self):
        rep = check_nekrasov(3)
        assert rep.ok
        assert [o.n_unknowns for o in rep.orders] == [1, 1, 4, 10]
        assert rep.per_order_unique()
        series = dt_vertex_series(E, E, E, E, 4, signs=rep.witness)
        assert series.eq_mod(qexp(nekrasov_rational(), 4))

    def test_wrong_root_has_no_solution(self):
        # replace the order-1 Euler root by a wrong-factor perturbation (not
        # an overall sign): the solver must report failure
        val = dt_vertex_root(next(iter(enumerate_pointlike(1))))[1].expand()
        over_l1 = FactoredWeightProduct(1, 1, {(1, 0, 0): -1}).expand()
        wrong = val * rat((1, 1, 0)) * over_l1
        target = qexp(nekrasov_rational(), 2).coefficient(1)
        assert solve_signed_sum([wrong], target) == []

    def test_determinism(self):
        a = check_nekrasov(2).to_json()
        b = check_nekrasov(2).to_json()
        assert a == b


class TestDTPT:
    def test_empty_legs_trivial(self):
        rep = check_dtpt(E, E, E, E, 3)
        assert rep.ok
        assert rep.n_global_solutions == 2
        assert rep.closed_under_negation

    def test_one_box_n4(self):
        rep = check_dtpt(BOX, E, E, E, 4)
        assert rep.ok
        assert rep.n_global_solutions == 2
        assert rep.closed_under_negation

    def test_two_leg_case(self):
        rep = check_dtpt(BOX, E, E, BOX, 3)
        assert rep.ok and rep.closed_under_negation

    def test_size_two_single_leg(self):
        rep = check_dtpt(PlanePartition([[1, 1]]), E, E, E, 3)
        assert rep.ok

    def test_order_beyond_bound_raises_at_once(self):
        # order 5 of one box reaches 67 unknowns; the bound must stop it
        # before any per-order solver state is built
        start = time.perf_counter()
        with pytest.raises(
            RuntimeError, match="^67 unknowns exceeds the solver bound 40$"
        ):
            check_dtpt(BOX, E, E, E, 5)
        assert time.perf_counter() - start < 60

    def test_three_legs_rejected(self):
        with pytest.raises(TooManyLegs):
            check_dtpt(BOX, BOX, BOX, E, 3)

    def test_branch_bound(self, monkeypatch):
        # the empty legs have 2 global solutions from order 0 on
        monkeypatch.setattr(signsearch, "MAX_BRANCHES", 1)
        with pytest.raises(
            RuntimeError, match="^sign-solution branching exceeded the bound$"
        ):
            check_dtpt(E, E, E, E, 3)

    def test_empty_vertex_is_not_enumerated(self, monkeypatch):
        # the right-hand side is exp(qC), so no empty-vertex root is needed
        want = check_dtpt(BOX, E, E, E, 4).render_json()
        real = signsearch.dt_vertex_root

        def guarded(sp, subst=None, cache=None):
            key, root = real(sp, subst, cache)
            if key.startswith("dt:[],[],[],[];"):
                raise AssertionError(f"empty-vertex root {key} requested")
            return key, root

        monkeypatch.setattr(signsearch, "dt_vertex_root", guarded)
        MEMORY.solves.clear()  # the guarded run must solve again
        rep = check_dtpt(BOX, E, E, E, 4)
        assert rep.ok
        assert rep.render_json() == want

    def test_mirrored_branches_are_solved_once(self, monkeypatch):
        # one branch at order 0, then the pair P, -P at orders 1-3: one
        # solve per order, where solving every branch would take 7
        calls = []
        real = signsearch.solve_signed_sum

        def counted(terms, target, _reuse=None):
            calls.append(target)
            return real(terms, target, _reuse)

        monkeypatch.setattr(signsearch, "solve_signed_sum", counted)
        rep = check_dtpt(BOX, E, E, E, 4)
        assert rep.ok and rep.n_global_solutions == 2
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "legs",
        [(BOX, E, E, BOX), (PlanePartition([[1, 1]]), E, E, E)],
        ids=["two-one-box-legs", "one-two-box-leg"],
    )
    def test_reused_solutions_match_unshared_solves(self, legs):
        solve = solve_dtpt(legs, 3)
        assert [len(o.solutions) for o in solve.orders] == [1, 2, 2]
        assert [o.solutions for o in solve.orders] == unshared_solutions(solve)

    def test_witness_realizes_identity(self):
        rep = check_dtpt(BOX, E, E, E, 3)
        signs = rep.witness
        nek = check_nekrasov(2)
        from dt4vertex.vertexcalc import pt_vertex_series

        vdt = dt_vertex_series(BOX, E, E, E, 3, signs=signs)
        vpt = pt_vertex_series(BOX, E, E, E, 3, signs=signs)
        vempty = dt_vertex_series(E, E, E, E, 3, signs=nek.witness)
        assert vdt.eq_mod(vpt * vempty, 3)

    def test_determinism(self):
        a = check_dtpt(BOX, E, E, E, 3).to_json()
        b = check_dtpt(BOX, E, E, E, 3).to_json()
        assert a == b


class TestOrbitTransport:
    @pytest.mark.parametrize(
        "total, exact, orbits",
        [(2, False, 4), (3, False, 8), (4, True, 12)],
        ids=["2a", "2b", "2c"],
    )
    def test_orbit_census(self, total, exact, orbits):
        sets = leg_tuples(total, exact)
        assert len({orbit_representative(L)[0] for L in sets}) == orbits

    def test_representative_of_every_image(self):
        for L in leg_tuples(2):
            rep, p = orbit_representative(L)
            assert permute_legs(rep, p) == L
            assert orbit_representative(rep) == (rep, IDENTITY_PERMUTATION)
            for q in AXIS_PERMUTATIONS:
                image = permute_legs(L, q)
                assert orbit_representative(image)[0] == rep
                assert permute_legs(rep, orbit_representative(image)[1]) == image

    @pytest.mark.parametrize(
        "total, trunc", [(2, 4), (3, 3)], ids=["2a-mod-q4", "2b-mod-q3"]
    )
    def test_transport_equals_direct_solve(self, total, trunc):
        transported = 0
        for L in leg_tuples(total):
            got = solve_dtpt(L, trunc)
            if orbit_representative(L)[0] == L:
                continue
            transported += 1
            want = solve_dtpt_direct(L, trunc)
            assert (got.legs, got.trunc, got.lowest) == (L, trunc, want.lowest)
            assert len(got.orders) == len(want.orders)
            for a, b in zip(got.orders, want.orders):
                for name in ("order", "keys", "roots", "n_dt", "free", "solutions", "rhs"):
                    assert getattr(a, name) == getattr(b, name), (L, a.order, name)
            a, b = dtpt_report(got), dtpt_report(want)
            assert a.render_json() == b.render_json()
            assert a.to_text() == b.to_text()
        assert transported == {2: 19, 3: 75}[total]

    def test_one_direct_solve_per_orbit(self, monkeypatch):
        solved = []
        real = signsearch.solve_dtpt_direct

        def counted(legs, trunc, cache=None):
            solved.append(legs)
            return real(legs, trunc, cache)

        monkeypatch.setattr(signsearch, "solve_dtpt_direct", counted)
        for L in leg_tuples(2):
            assert check_dtpt(*L, 3).ok
        assert len(solved) == 4
        assert all(orbit_representative(L)[0] == L for L in solved)

    def test_memo_hit_equals_direct_solve(self, monkeypatch):
        # a leg set that is not its orbit's representative is transported
        # once; the next call returns the kept solve and solves and
        # transports nothing, as does the command after it
        legs = (E, BOX, E, E)
        assert orbit_representative(legs)[0] != legs
        first = solve_dtpt(list(legs), 3)
        moved, solved = [], []
        real_move, real_solve = signsearch.transport_dtpt, signsearch.solve_dtpt_direct

        def counted_move(solve, p, L):
            moved.append(L)
            return real_move(solve, p, L)

        def counted_solve(L, trunc, cache=None):
            solved.append(L)
            return real_solve(L, trunc, cache)

        monkeypatch.setattr(signsearch, "transport_dtpt", counted_move)
        monkeypatch.setattr(signsearch, "solve_dtpt_direct", counted_solve)
        hit = solve_dtpt(legs, 3)
        assert hit is first and moved == [] and solved == []
        assert check_dtpt(*legs, 3).ok and moved == [] and solved == []
        want = solve_dtpt_direct(legs, 3)
        assert (hit.legs, hit.trunc, hit.lowest, hit.prefix) == (
            want.legs, want.trunc, want.lowest, want.prefix
        )
        assert len(hit.orders) == len(want.orders)
        for a, b in zip(hit.orders, want.orders):
            for name in ("order", "keys", "roots", "n_dt", "free", "solutions", "rhs"):
                assert getattr(a, name) == getattr(b, name), (a.order, name)
