import random

import pytest

from dt4vertex.exactalg import FactoredWeightProduct, LambdaRat, poly_from_form, qexp
from dt4vertex.partitions import EMPTY_PP, PlanePartition, enumerate_pointlike
from dt4vertex.ptconfig import TooManyLegs
from dt4vertex.signsearch import (
    SignAssignment,
    check_dtpt,
    check_nekrasov,
    naive_signed_sum,
    nekrasov_rational,
    nekrasov_series,
    solve_signed_sum,
)
from dt4vertex.vertexcalc import dt_vertex_root, dt_vertex_series

BOX = PlanePartition([[1]])
E = EMPTY_PP


def rat(f):
    return LambdaRat(poly_from_form(f))


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
            terms = []
            for _ in range(k):
                f = tuple(rng.randint(-2, 2) for _ in range(3))
                if not any(f):
                    f = (1, 0, 0)
                terms.append(
                    LambdaRat(poly_from_form(f), 1, {(1, 1, 1): 1}).scale(
                        rng.randint(1, 3)
                    )
                )
            eps = [rng.choice([1, -1]) for _ in range(k)]
            target = LambdaRat.from_int(0)
            for s, t in zip(eps, terms):
                target = target + t.scale(s)
            fast = solve_signed_sum(terms, target)
            slow = naive_signed_sum(terms, target)
            assert fast == slow
            assert tuple(eps) in fast

    def test_nekrasov_order_two_unique(self):
        target = qexp(nekrasov_rational(), 3).coefficient(2)
        terms = [
            dt_vertex_root(sp)[1].expand() for sp in enumerate_pointlike(2)
        ]
        fast = solve_signed_sum(terms, target)
        slow = naive_signed_sum(terms, target)
        assert fast == slow
        assert len(fast) == 1


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
        series = nekrasov_series(4, report=rep)
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

    def test_three_legs_rejected(self):
        with pytest.raises(TooManyLegs):
            check_dtpt(BOX, BOX, BOX, E, 3)

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
