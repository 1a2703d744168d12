import itertools
import random
from fractions import Fraction

import pytest

from dt4vertex.exactalg import (
    FactoredWeightProduct,
    LambdaRat,
    evaluate_all_mod,
    poly_from_form,
    weight_form,
)
from dt4vertex.partitions import (
    EMPTY_PP,
    EdgeData,
    PlanePartition,
    enumerate_dt,
    f_statistic,
    plane_partitions_of,
)
from dt4vertex.ptconfig import LegModule, TooManyLegs, enumerate_boxconfigs
from dt4vertex.toric import (
    BadDegrees,
    BadTransition,
    EdgeSpec,
    GeometryError,
    InsertionClass,
    NotUnimodular,
    ToricGeometry,
    check_affine_implies_toric,
    check_gluing,
    chi_of,
    chi_truncated_oracle,
    cm_assignments,
    enumerate_global_fixed_points,
    global_series,
    global_series_by_fixed_points,
    insertion_value,
    load_geometry,
    local_curve_closed_form_ab,
    preset_c4,
    preset_local_curve,
    preset_local_p1p1,
    preset_local_p2,
)
from dt4vertex.vertexcalc import (
    dt_vertex_character,
    dt_vertex_series,
    edge_character,
    edge_root,
    euler_sqrt,
    pt_vertex_character,
    relabel_root,
    substitution_forms,
)

BOX = PlanePartition([[1]])
E = EMPTY_PP
AXES = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
GLOBAL_PRESETS = ("localcurve", "localcurve:1,-1,-2", "localp2", "localp1p1")


def preset_substitutions():
    """Every chart and edge frame of the global presets and the 24 axis
    permutations, without repeats, with the edge degrees seen."""
    substs, degrees = set(), set()
    for name in GLOBAL_PRESETS:
        g = load_geometry(name)
        substs.update(g.charts)
        for e in g.edges:
            substs.add(g.edge_frame_cols(e))
            degrees.add(e.degrees_a())
    substs.update(tuple(AXES[i] for i in p) for p in itertools.permutations(range(4)))
    return sorted(substs), sorted(degrees)


def small_leg_tuples():
    """Leg 4-tuples of total size <= 2 with at most two non-empty legs."""
    out = []
    for sizes in itertools.product(range(3), repeat=4):
        if sum(sizes) <= 2 and sum(1 for x in sizes if x) <= 2:
            out.extend(itertools.product(*[plane_partitions_of(n) for n in sizes]))
    return out


class TestGeometry:
    def test_local_curve_preset(self):
        g = preset_local_curve(0, -1, -1)
        assert g.nverts() == 2 and len(g.edges) == 1
        assert g.edges[0].degrees_a() == (0, -1, -1)

    def test_local_p2_matches_displayed_substitutions(self):
        g = preset_local_p2()
        assert g.nverts() == 3 and len(g.edges) == 3
        # chart forms: (l1,l2,l3,l4), (-l2, l1-l2, l3+l2, l4+2l2),
        # (l2-l1, -l1, l3+l1, l4+2l1) with l4 = -l1-l2-l3
        forms = [tuple(weight_form(col) for col in cols) for cols in g.charts]
        assert forms[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
        assert forms[1] == ((0, -1, 0), (1, -1, 0), (0, 1, 1), (-1, 1, -1))
        assert forms[2] == ((-1, 1, 0), (-1, 0, 0), (1, 0, 1), (1, -1, -1))
        for e in g.edges:
            assert e.degrees_a() == (1, -1, -2)

    def test_local_p1p1(self):
        g = preset_local_p1p1()
        assert g.nverts() == 4 and len(g.edges) == 4 and g.nclasses == 2
        for e in g.edges:
            assert sorted(e.degrees_a()) == [-1, -1, 0]

    def test_bad_degrees(self):
        with pytest.raises(BadDegrees):
            preset_local_curve(0, 0, -1)
        g = preset_local_curve(0, -1, -1)
        with pytest.raises(BadDegrees):
            ToricGeometry(
                "bad",
                g.charts,
                [EdgeSpec(0, 0, 1, 0, ((1, 1, 0), (2, 2, 0), (3, 3, -1)), 0)],
            )

    def test_bad_transition(self):
        g = preset_local_curve(0, -1, -1)
        with pytest.raises(BadTransition):
            ToricGeometry(
                "bad",
                g.charts,
                [EdgeSpec(0, 0, 1, 0, ((1, 1, 1), (2, 2, -1), (3, 3, -2)), 0)],
            )

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            ToricGeometry(
                "bad",
                [((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))],
                [],
                nclasses=0,
            )

    def test_non_cy_chart_rejected(self):
        with pytest.raises(BadTransition):
            ToricGeometry(
                "bad",
                [((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, -1))],
                [],
                nclasses=0,
            )

    def test_render_load_roundtrip(self):
        for name in ("localcurve", "localp2", "localp1p1"):
            g = load_geometry(name)
            g2 = load_geometry(g.render())
            assert g2.charts == g.charts and g2.edges == g.edges

    def test_preset_args(self):
        g = load_geometry("localcurve:-1,-1,0")
        assert g.edges[0].degrees_a() == (-1, -1, 0)
        with pytest.raises(GeometryError):
            load_geometry("nosuchthing")
        for text in ("c4:1", "localp2:3", "localp1p1:", "localcurve:0,-1,-1,5",
                     "localcurve:0,-1", "localcurve:", "localcurve:0,-1,x"):
            with pytest.raises(GeometryError):
                load_geometry(text)

    def test_malformed_file_raises(self):
        # each of these used to raise IndexError or ValueError
        good = preset_local_p2().render().splitlines()
        charts = good.index("chart 0")
        for lines in (good[:charts + 2], good[:charts + 5] + ["edge 0 1"],
                      ["classes x"], good[:charts + 1] + ["1 0 0"] * 4):
            with pytest.raises(GeometryError):
                load_geometry("\n".join(lines) + "\n")


class TestFixedPoints:
    def test_c4_pointlike_only(self):
        g = preset_c4()
        fps = list(enumerate_global_fixed_points(g, (), 3, "dt"))
        assert sorted(fp.chi for fp in fps) == [0, 1, 2, 2, 2, 2, 3] + [3] * 9

    def test_local_curve_cm_counts(self):
        g = preset_local_curve(0, -1, -1)
        for d, count in [(1, 1), (2, 3), (3, 6)]:
            assert len(cm_assignments(g, (d,))) == count

    def test_local_curve_pt_single_point_on_diagonal(self):
        g = preset_local_curve(0, -1, -1)
        for n in (1, 2, 3):
            fps = list(enumerate_global_fixed_points(g, (n,), n, "pt"))
            assert len(fps) == 1
            assert fps[0].chi == n

    def test_gluing_and_chi_consistency(self):
        g = preset_local_curve(0, -1, -1)
        for flavor in ("dt", "pt"):
            for fp in enumerate_global_fixed_points(g, (1,), 3, flavor):
                check_gluing(g, fp)
                assert chi_of(g, fp) == fp.chi
                assert chi_truncated_oracle(g, fp, 8) == fp.chi

    def test_chi_examples(self):
        g = preset_local_curve(0, -1, -1)
        fp = next(iter(enumerate_global_fixed_points(g, (1,), 1, "dt")))
        assert fp.chi == 1  # chi(O_P1) = 1
        gp2 = preset_local_p2()
        fps = list(enumerate_global_fixed_points(gp2, (1,), 1, "dt"))
        assert [fp.chi for fp in fps] == [1, 1, 1]
        assert f_statistic(BOX, EdgeData(1, -1, -2)) == 1

    def test_chi_oracle_p2(self):
        gp2 = preset_local_p2()
        for fp in enumerate_global_fixed_points(gp2, (1,), 2, "dt"):
            assert chi_truncated_oracle(gp2, fp, 8) == fp.chi

    def test_class_and_chi_additive_on_disjoint_support(self):
        g = preset_local_p1p1()
        # the two horizontal rulings are disjoint (they meet no common chart)
        bottom = [BOX, E, E, E]
        top = [E, BOX, E, E]
        both = [BOX, BOX, E, E]

        def chi0(pps):
            legs = g.chart_legs(tuple(pps))
            from dt4vertex.partitions import SolidPartition
            from dt4vertex.toric import chi_f_of

            return chi_f_of(g, tuple(pps)) + sum(
                SolidPartition(L).renormalized_volume() for L in legs
            )

        assert g.beta_of(tuple(bottom))[0] + g.beta_of(tuple(top))[0] == 2
        assert g.beta_of(tuple(both)) == (2, 0)
        assert chi0(both) == chi0(bottom) + chi0(top)

    def test_pt_three_leg_chart_rejected(self):
        # an artificial geometry is not needed: feeding three legs into a
        # chart is what LegModule refuses
        g = preset_local_p2()
        with pytest.raises(TooManyLegs):
            from dt4vertex.ptconfig import LegModule

            LegModule((BOX, BOX, BOX, E))


class TestSubstitutionCoherence:
    def test_edge_roots_agree_up_to_sign(self):
        g = preset_local_p2()
        e = g.edges[0]
        flipped = EdgeSpec(
            e.b,
            e.axis_b,
            e.a,
            e.axis_a,
            tuple(
                sorted(
                    (jb, ja, m) for ja, jb, m in e.sigma
                )
            ),
            e.cls,
        )
        g2 = ToricGeometry("flipped", g.charts, [flipped], nclasses=1)
        pp = PlanePartition([[2], [1]])
        legs_a = g.chart_legs((pp, E, E))
        pp_b = legs_a[flipped.a][flipped.axis_a]
        _, root_a = edge_root(pp, EdgeData(*e.degrees_a()), g.edge_frame_cols(e))
        _, root_b = edge_root(
            pp_b, EdgeData(*flipped.degrees_a()), g2.edge_frame_cols(flipped)
        )
        assert root_a.parity == root_b.parity
        assert root_a.expand() * root_a.expand() == root_b.expand() * root_b.expand()

    def test_relabelled_roots_equal_direct_roots(self):
        # the standard root relabelled by a chart's forms is the root the
        # chart computes from its substituted weights, field for field
        substs, degrees = preset_substitutions()
        vertices = []
        for legs in small_leg_tuples():
            vertices += [dt_vertex_character(sp).V for sp in enumerate_dt(*legs, 2)]
            vertices += [
                pt_vertex_character(c).V
                for c in enumerate_boxconfigs(LegModule(legs), 2)
            ]
        for n in range(4):
            for pp in plane_partitions_of(n):
                vertices += [edge_character(pp, d).E for d in degrees]
        compared = 0
        for v in vertices:
            root = euler_sqrt(v)
            for cols in substs:
                _, got = relabel_root(root, substitution_forms(cols))
                want = euler_sqrt(v.subst(cols))
                assert got.value == want.value and got.parity == want.parity
                compared += 1
        assert compared > 10000

    def test_substitute_matches_evaluation(self):
        # F.substitute(forms) at x equals F at the point (forms[i](x))_i,
        # the transpose of A (forms as columns) applied to x; likewise for
        # a LambdaRat with a numerator that is no product of forms
        mod = (1 << 61) - 1
        rng = random.Random(37)
        pool = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1),
                (0, 1, 1), (1, 1, 1), (2, 1, 0), (1, -2, 3)]
        points = [tuple(rng.randrange(mod) for _ in range(3)) for _ in range(4)]
        substs, _ = preset_substitutions()
        all_forms = [substitution_forms(cols) for cols in substs]
        # two maps that are not unimodular, so images carry content
        all_forms += [((2, 0, 0), (1, 3, 0), (0, 1, -2)), ((1, 1, 0), (1, -1, 0), (0, 0, 2))]
        for _ in range(12):
            f = FactoredWeightProduct(
                rng.choice([1, -1]),
                Fraction(rng.randint(1, 6), rng.randint(1, 6)),
                {p: rng.randint(-3, 3) for p in rng.sample(pool, 4)},
            )
            h = f.expand() + FactoredWeightProduct(
                1, 1, {p: rng.randint(-2, 2) for p in rng.sample(pool, 3)}
            ).expand()
            for forms in all_forms:
                images = [
                    tuple(sum(forms[i][j] * x[j] for j in range(3)) for i in range(3))
                    for x in points
                ]
                got = evaluate_all_mod(
                    [f.substitute(forms).expand(), h.substitute(forms)], points, mod
                )
                assert got == evaluate_all_mod([f.expand(), h], images, mod)


class TestInsertions:
    def test_empty_curve_gives_zero(self):
        g = preset_c4()
        fp = next(
            fp for fp in enumerate_global_fixed_points(g, (), 2, "dt") if fp.chi == 2
        )
        gamma = InsertionClass((LambdaRat.from_int(1),))
        assert insertion_value((gamma,), fp).is_zero()

    def test_zero_class_gives_zero(self):
        g = preset_local_curve(0, -1, -1)
        fp = next(iter(enumerate_global_fixed_points(g, (1,), 2, "dt")))
        assert insertion_value((InsertionClass.zero(g),), fp).is_zero()

    def test_dt_pt_agree_over_common_cm(self):
        rng = random.Random(19)
        g = preset_local_curve(0, -1, -1)
        gamma = InsertionClass(
            tuple(
                LambdaRat(
                    {
                        tuple(rng.randint(0, 1) for _ in range(3)): rng.randint(1, 5)
                        for _ in range(2)
                    }
                )
                for _ in g.charts
            )
        )
        dts = [
            fp
            for fp in enumerate_global_fixed_points(g, (1,), 3, "dt")
        ]
        pts = [
            fp
            for fp in enumerate_global_fixed_points(g, (1,), 3, "pt")
        ]
        vals = {insertion_value((gamma,), fp).render() for fp in dts}
        vals |= {insertion_value((gamma,), fp).render() for fp in pts}
        # every fixed point over the unique CM curve gives the same value
        assert len(vals) == 1

    def test_point_class_pairing(self):
        g = preset_local_curve(0, -1, -1)
        fp = next(iter(enumerate_global_fixed_points(g, (1,), 1, "dt")))
        gamma = InsertionClass.point_class(g, 0)
        val = insertion_value((gamma,), fp)
        assert not val.is_zero()

    @pytest.mark.parametrize(
        "name, beta",
        [("localp2", (1,)), ("localcurve", (1,)), ("localp1p1", (1, 0))],
        ids=["localp2", "localcurve", "localp1p1"],
    )
    def test_point_class_series(self, name, beta):
        # with a point-class insertion, the factorized series equals the
        # sum over fixed points for both flavors and differs from the series
        # without it, and the global identity holds with it
        g = load_geometry(name)
        gammas = (InsertionClass.point_class(g, 0),)
        for flavor in ("dt", "pt"):
            a = global_series(g, beta, flavor, gammas, 3)
            assert a == global_series_by_fixed_points(g, beta, flavor, gammas, 3)
            assert a != global_series(g, beta, flavor, (), 3)
        rep = check_affine_implies_toric(g, beta, 3, gammas)
        assert rep["ok"] and rep["insertions"] == 1

    def test_point_class_on_local_p2(self):
        g = preset_local_p2()
        plain = global_series(g, (1,), "pt", (), 3)
        inserted = global_series(g, (1,), "pt", (InsertionClass.point_class(g, 0),), 3)
        assert plain.coefficient(1).render() == "(2*l2 + 2*l3) / (l1*l2 - l2^2)"
        assert inserted.coefficient(1).render() == (
            "(l1^2*l3 + 2*l1*l2*l3 + 3*l1*l3^2 + l2^2*l3 + 3*l2*l3^2 + 2*l3^3)"
            " / (l1 - l2)"
        )


class TestGlobalSeries:
    def test_c4_equals_vertex_series(self):
        g = preset_c4()
        s = global_series(g, (), "dt", (), 3)
        v = dt_vertex_series(E, E, E, E, 3)
        assert s.eq_mod(v, 3)

    def test_factorized_matches_fixed_point_sum(self):
        g = preset_local_curve(0, -1, -1)
        for flavor in ("dt", "pt"):
            a = global_series(g, (1,), flavor, (), 3)
            b = global_series_by_fixed_points(g, (1,), flavor, (), 3)
            assert a.eq_mod(b, 3)

    def test_p1p1_i0_is_one(self):
        # int_X c3^T = 0 for local P1xP1, so I_0 = 1 with Nekrasov signs
        g = preset_local_p1p1()
        from dt4vertex.signsearch import SignAssignment, nekrasov_report, solve_nekrasov

        signs = {}
        for alpha in range(g.nverts()):
            rep = nekrasov_report(solve_nekrasov(2), g.charts[alpha])
            assert rep.ok
            signs.update(rep.witness.mapping)
        s = global_series(g, (0, 0), "dt", (), 3, signs=SignAssignment(signs))
        assert s.coefficient(0) == LambdaRat.from_int(1)
        assert s.coefficient(1).is_zero()
        assert s.coefficient(2).is_zero()


class TestAffineImpliesToric:
    def test_local_curve_beta1(self):
        rep = check_affine_implies_toric(preset_local_curve(0, -1, -1), (1,), 3)
        assert rep["ok"]

    def test_geometry_with_permuted_transition_frame(self):
        # relabel chart 1's axes of the local curve; the identity must still
        # verify, exercising the plane-partition permutation machinery
        base = preset_local_curve(0, -1, -1)
        c1 = base.charts[1]
        # new chart-1 axis order: (old1, old3, old4, old2)
        cols = (c1[0], c1[2], c1[3], c1[1])
        edge = EdgeSpec(0, 0, 1, 0, ((1, 3, 0), (2, 1, -1), (3, 2, -1)), 0)
        g = ToricGeometry("permuted", [base.charts[0], cols], [edge])
        rep = check_affine_implies_toric(g, (1,), 3)
        assert rep["ok"]
        s1 = global_series(base, (1,), "dt", (), 3)
        s2 = global_series(g, (1,), "dt", (), 3)
        assert s1.eq_mod(s2, 3)


class TestLocalCurveClosedForm:
    def test_bracket_terms(self):
        # A + B = l2 * (c_chart0 + c_chart1) is checked inside
        # local_curve_full_check; here pin the displayed forms themselves
        a, b = local_curve_closed_form_ab()
        l1 = LambdaRat(poly_from_form((1, 0, 0)))
        l2 = LambdaRat(poly_from_form((0, 1, 0)))
        l3 = LambdaRat(poly_from_form((0, 0, 1)))
        s = l1 + l2 + l3
        assert a * (l1 * l3 * s) == (l1 + l2) * (l1 + l3) * (l2 + l3)
        assert b * (l1 * (l1 + l3) * (l2 + l3)) == l3 * (l1 - l2) * s
