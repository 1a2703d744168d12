import itertools
import math
from fractions import Fraction

import pytest

from dt4vertex.cache import VertexCache
from dt4vertex.exactalg import (
    FactoredWeightProduct,
    LambdaRat,
    NotPolynomial,
    TLaurent,
    binomial_laurent,
    canonical_form,
    weight_form,
)
from dt4vertex.partitions import (
    EMPTY_PP,
    EdgeData,
    PlanePartition,
    SolidPartition,
    enumerate_dt,
    enumerate_pointlike,
    plane_partitions_of,
)
from dt4vertex.ptconfig import BoxConfig, build_leg_module, enumerate_boxconfigs
from dt4vertex.signsearch import nekrasov_rational
from dt4vertex.vertexcalc import (
    TFixedObstruction,
    check_cy_symmetric,
    dt_character,
    dt_vertex_character,
    dt_vertex_root,
    dt_vertex_series,
    edge_F,
    euler_full_product,
    euler_sqrt,
    form_collect,
    pt_character,
    pt_vertex_character,
    pt_vertex_series,
    redistribute_edge,
    redistribute_edge_division_oracle,
    redistribute_vertex,
    redistribute_vertex_division_oracle,
    subst_key,
)

BOX = PlanePartition([[1]])
E = EMPTY_PP
E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def row_pp(n):
    """The n-fold thickening cross-section: n boxes along the first index."""
    return PlanePartition([[1]] * n)


def d_of(axes):
    """prod_{k in axes} (1 - t_k)."""
    out = TLaurent.one()
    for k in axes:
        out = out * binomial_laurent((E1, E2, E3, E4)[k])
    return out


class TestDTCharacter:
    def test_single_box(self):
        z = dt_character(SolidPartition((E,) * 4, {(0, 0, 0, 0)}))
        assert z.finite == TLaurent.one()
        assert all(leg.is_zero() for leg in z.legs)
        assert z.times_d() == d_of(range(4))

    def test_single_leg(self):
        z = dt_character(SolidPartition((BOX, E, E, E)))
        assert z.finite.is_zero()
        assert z.legs == (TLaurent.one(), TLaurent(), TLaurent(), TLaurent())
        assert z.times_d() == d_of((1, 2, 3))

    def test_two_legs_inclusion_exclusion(self):
        # Z = 1/(1-t1) + 1/(1-t2) - 1: the box at the origin lies in both legs
        z = dt_character(SolidPartition((BOX, BOX, E, E)))
        assert z.finite == -TLaurent.one()
        assert z.legs[:2] == (TLaurent.one(), TLaurent.one())
        assert z.times_d() == d_of((1, 2, 3)) + d_of((0, 2, 3)) - d_of(range(4))
        # dropping the second leg leaves (1/(1-t1) - 1) * (1-t1)(1-t3)(1-t4)
        assert z.times_d((0, 2, 3)) == d_of((2, 3)) - d_of((0, 2, 3))


class TestEdgeF:
    def test_empty(self):
        assert edge_F(E) == TLaurent.zero()

    def test_single_box_direct_substitution(self):
        # -1 + 1/(t2t3t4) - (1-t2)(1-t3)(1-t4)/(t2t3t4) with Z = 1
        d3 = TLaurent.one()
        for w in (E2, E3, E4):
            d3 = d3 * binomial_laurent(w)
        shift = (0, -1, -1, -1)
        expect = (
            -TLaurent.one()
            + TLaurent.monomial(shift)
            - d3.shift(shift)
        )
        assert edge_F(BOX) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_local_curve_column(self, n):
        # imposing t1t2t3t4 = 1, the edge of the n-thickened zero section of
        # O + O(-1) + O(-1) collapses to sum_{i=1}^n (t2^i + t2^-i)
        eterm = redistribute_edge(row_pp(n), EdgeData(0, -1, -1))
        collected = form_collect(eterm)
        expect = {}
        for i in range(1, n + 1):
            expect[(0, i, 0)] = 1
            expect[(0, -i, 0)] = 1
        assert collected == expect


class TestRedistribute:
    def test_one_point_closed_form(self):
        # Z = 1: V = 1 + t^(-1,-1,-1,-1) - Dbar
        z = dt_character(SolidPartition((E,) * 4, {(0, 0, 0, 0)}))
        expect = TLaurent.one() + TLaurent.monomial((-1, -1, -1, -1)) - d_of(range(4)).bar()
        assert redistribute_vertex(z) == expect

    def test_zero(self):
        # the empty vertex Z = 0 has V = 0
        assert redistribute_vertex(dt_character(SolidPartition((E,) * 4))).is_zero()

    def test_matches_division_oracle(self):
        # every DT and PT fixed point of the leg sets of total size <= 2 mod
        # q^4, the empty vertex through 5 boxes, and some 3- and 4-leg sets
        pools = {n: plane_partitions_of(n) for n in range(3)}
        leg_sets = [
            legs
            for sizes in itertools.product(range(3), repeat=4)
            if sum(sizes) <= 2
            for legs in itertools.product(*(pools[n] for n in sizes))
        ]
        assert len(leg_sets) == 23
        cases = [(dt_character(sp), sp.legs) for n in range(6) for sp in enumerate_pointlike(n)]
        for legs in leg_sets:
            cases += [(dt_character(sp), legs) for sp in enumerate_dt(*legs, 3)]
            module = build_leg_module(*legs)
            cases += [(pt_character(c), legs) for c in enumerate_boxconfigs(module, 3)]
        two, col = PlanePartition([[2]]), PlanePartition([[1, 1]])
        for legs in [(BOX, BOX, BOX, E), (E, BOX, BOX, BOX), (BOX, BOX, BOX, BOX),
                     (two, BOX, BOX, E), (BOX, col, E, BOX), (two, BOX, BOX, BOX)]:
            cases += [(dt_character(sp), legs) for sp in enumerate_dt(*legs, 2)]
        assert len(cases) == 1414
        for z, legs in cases:
            assert redistribute_vertex(z) == redistribute_vertex_division_oracle(z, legs)

    def test_symmetry_single_leg_cm(self):
        sp = SolidPartition((BOX, E, E, E))
        v = dt_vertex_character(sp)
        assert check_cy_symmetric(v)

    def test_no_positive_t_fixed_terms(self):
        pool = [sp for n in range(4) for sp in enumerate_pointlike(n)]
        pool += list(enumerate_dt(BOX, BOX, E, E, 2))
        pool += list(enumerate_dt(E, E, BOX, BOX, 2))
        for sp in pool:
            v = dt_vertex_character(sp)
            for w, c in v.terms.items():
                if w[0] == w[1] == w[2] == w[3]:
                    assert c < 0 or w != (0, 0, 0, 0)
                    assert c < 0

    def test_edge_division_oracle_agreement(self):
        degs = [(0, -1, -1), (1, -1, -2), (-1, 0, -1), (2, -2, -2), (-3, 1, 0)]
        pps = [BOX, PlanePartition([[2]]), PlanePartition([[2, 1], [1]]), row_pp(2)]
        for pp in pps:
            for deg in degs:
                e = EdgeData(*deg)
                assert redistribute_edge(pp, e) == redistribute_edge_division_oracle(pp, e)

    def test_edge_symmetry(self):
        eterm = redistribute_edge(BOX, EdgeData(0, -1, -1))
        assert check_cy_symmetric(eterm)
        eterm = redistribute_edge(PlanePartition([[2], [1]]), EdgeData(1, -1, -2))
        assert check_cy_symmetric(eterm)

    def test_not_polynomial_signalled(self):
        # the division oracle given the wrong legs fails to clear D
        z = dt_character(SolidPartition((BOX, E, E, E)))
        with pytest.raises(NotPolynomial):
            redistribute_vertex_division_oracle(z, (E, E, E, E))


class TestEulerSqrt:
    def test_plus_minus_weight_pair(self):
        v = TLaurent({(0, 1, 0, 0): 1, (0, -1, 0, 0): 1})
        root = euler_sqrt(v)
        assert root.parity == 1
        assert root.value == FactoredWeightProduct(1, Fraction(1), {(0, 1, 0): -1})
        # e_T(-V) = -1/l2^2 and value^2 = (-1)^parity * e_T(-V)
        et = euler_full_product(v)
        assert root.expand() * root.expand() == et.scale(-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_factorial_tower(self, n):
        terms = {}
        for i in range(1, n + 1):
            terms[(0, i, 0, 0)] = 1
            terms[(0, -i, 0, 0)] = 1
        root = euler_sqrt(TLaurent(terms))
        assert root.value == FactoredWeightProduct(
            1, Fraction(1, math.factorial(n)), {(0, 1, 0): -n}
        )
        assert root.parity == n % 2

    def test_zero_vertex(self):
        root = euler_sqrt(TLaurent.zero())
        assert root.parity == 0 and root.expand() == LambdaRat.from_int(1)

    def test_t_fixed_obstruction(self):
        v = TLaurent({(1, 1, 1, 1): 1, (-2, -2, -2, -2): 1})
        with pytest.raises(TFixedObstruction):
            euler_sqrt(v)

    def test_negative_t_fixed_vanishes(self):
        v = TLaurent({(1, 1, 1, 1): -1, (-2, -2, -2, -2): -1})
        root = euler_sqrt(v)
        assert root.is_zero()
        assert root.expand().is_zero()

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            euler_sqrt(TLaurent({(0, 1, 0, 0): 1}))

    def test_square_identity_on_enumerated_vertices(self):
        pool = [sp for n in range(4) for sp in enumerate_pointlike(n)]
        pool += list(enumerate_dt(BOX, E, BOX, E, 1))
        for sp in pool:
            v = dt_vertex_character(sp)
            root = euler_sqrt(v)
            et = euler_full_product(v)
            lhs = root.expand() * root.expand()
            assert lhs == (et.scale(-1) if root.parity else et)


    def test_one_pass_equals_mul_form_chain(self):
        # the root built in one pass is the product of one mul_form per kept
        # weight, field by field and in factor order, on the empty vertex
        # through q^5 and on a DT and a PT set with legs
        def chain(v):
            value, parity = FactoredWeightProduct.one(), 0
            for w, c in sorted(v.terms.items()):
                f = weight_form(w)
                if canonical_form(f)[0] > 0:
                    value = value.mul_form(f, -c)
                    parity += c
            return value, parity % 2

        vertices = [dt_vertex_character(sp) for sp in enumerate_dt(E, E, E, E, 5)]
        vertices += [dt_vertex_character(sp) for sp in enumerate_dt(BOX, BOX, E, E, 2)]
        module = build_leg_module(BOX, BOX, E, E)
        vertices += [pt_vertex_character(c) for c in enumerate_boxconfigs(module, 2)]
        nonzero = 0
        for v in vertices:
            root = euler_sqrt(v)
            if root.is_zero():
                continue
            nonzero += 1
            value, parity = chain(v)
            assert root.parity == parity
            assert (root.value.sign, root.value.scalar) == (value.sign, value.scalar)
            assert list(root.value.factors.items()) == list(value.factors.items())
        assert nonzero == 120


class TestChartRoots:
    CHART = ((0, -1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 1))

    def test_non_calabi_yau_substitution_rejected(self):
        # the columns multiply to t1 t2 t3 t4^2, not to the CY character
        cols = (E1, E2, E3, (0, 0, 0, 2))
        for sp in (SolidPartition((E,) * 4), SolidPartition((E,) * 4, {(0, 0, 0, 0)})):
            with pytest.raises(ValueError, match="Calabi-Yau"):
                dt_vertex_root(sp, cols)

    def test_singular_substitution_rejected(self):
        cols = (E1, E1, E3, (-1, 1, 0, 1))
        with pytest.raises(ValueError, match="invertible"):
            dt_vertex_root(SolidPartition((BOX, E, E, E)), cols)

    def test_one_cache_record_per_fixed_point(self, tmp_path):
        cache = VertexCache(str(tmp_path))
        sp = next(iter(enumerate_dt(BOX, E, E, E, 1)))
        key, root = dt_vertex_root(sp, self.CHART, cache)
        assert key == subst_key(self.CHART) + sp.key()
        std_key, std_root = dt_vertex_root(sp, None, cache)
        assert cache.keys() == [std_key] == [sp.key()]
        v = dt_vertex_character(sp)
        assert root.value == euler_sqrt(v.subst(self.CHART)).value
        assert std_root.value == euler_sqrt(v).value
        again = VertexCache(str(tmp_path))
        assert dt_vertex_root(sp, self.CHART, again) == (key, root)
        assert again.hits == 1 and len(again) == 1


class TestVertexSeries:
    def test_empty_legs_order_one_is_nekrasov(self):
        s = dt_vertex_series(E, E, E, E, 2)
        assert s.coefficient(0) == LambdaRat.from_int(1)
        assert s.coefficient(1) == nekrasov_rational()

    def test_order_count_matches_pointlike(self):
        s = dt_vertex_series(E, E, E, E, 4)
        # each coefficient is a sum with as many summands as point-like
        # partitions; with all signs +1 the q^2 value is a 4-term signed sum
        assert not s.coefficient(2).is_zero()
        assert not s.coefficient(3).is_zero()

    def test_empty_vertex_mod_q7(self):
        # the exact frontier: about 4 s on a 2-CPU machine
        s7 = dt_vertex_series(E, E, E, E, 7)
        assert s7.eq_mod(dt_vertex_series(E, E, E, E, 6))
        assert not s7.coefficient(6).is_zero()

    def test_leading_orders(self):
        assert dt_vertex_series(BOX, E, E, E, 2).lowest_order == 0
        assert dt_vertex_series(BOX, BOX, E, E, 2).lowest_order == -1

    def test_pt_empty_is_one(self):
        s = pt_vertex_series(E, E, E, E, 3)
        assert s.coefficient(0) == LambdaRat.from_int(1)
        assert s.coefficient(1).is_zero() and s.coefficient(2).is_zero()

    def test_dt_pt_leading_coefficients_agree(self):
        for legs in [(BOX, E, E, E), (BOX, BOX, E, E), (E, PlanePartition([[2]]), E, E)]:
            d = dt_vertex_series(*legs, 2 + SolidPartition(legs).renormalized_volume())
            p = pt_vertex_series(*legs, 2 + SolidPartition(legs).renormalized_volume())
            lo = SolidPartition(legs).renormalized_volume()
            assert d.lowest_order == p.lowest_order == lo
            assert d.coefficient(lo) == p.coefficient(lo)

    def test_pt_character_is_cm_plus_boxes(self):
        mod = build_leg_module(BOX, BOX, E, E)
        cfg = BoxConfig(mod, {(0, 0, 0, 0)})
        z = pt_character(cfg)
        cm = dt_character(SolidPartition((BOX, BOX, E, E)))
        assert z.legs == cm.legs
        assert z.finite == cm.finite + TLaurent.one()
        assert z.times_d() == cm.times_d() + d_of(range(4))
