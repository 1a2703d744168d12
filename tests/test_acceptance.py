"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are exact equality of rational functions throughout; nothing is
deferred to later calibration.
"""

import io
import itertools
import os
import random
import subprocess
import sys

import dt4vertex
from dt4vertex.cli import main
from dt4vertex.exactalg import LambdaRat, bar_involution, poly_from_form
from dt4vertex.partitions import (
    EMPTY_PP,
    PlanePartition,
    enumerate_dt,
    enumerate_pointlike,
    oracle_pointlike_boxsets,
    plane_partitions_of,
)
from dt4vertex.ptconfig import build_leg_module, enumerate_boxconfigs, oracle_submodules
from dt4vertex.signsearch import (
    check_dtpt,
    check_nekrasov,
    naive_signed_sum,
    solve_signed_sum,
)
from dt4vertex.toric import (
    InsertionClass,
    check_affine_implies_toric,
    chi_of,
    chi_truncated_oracle,
    enumerate_global_fixed_points,
    insertion_value,
    local_curve_full_check,
    preset_local_curve,
    preset_local_p1p1,
    preset_local_p2,
)
from dt4vertex.vertexcalc import (
    check_cy_symmetric,
    dt_vertex_character,
    pt_vertex_character,
    redistribute_edge,
)

E = EMPTY_PP


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def leg_tuples(total, exact=False):
    """All leg 4-tuples with size sum <= total (or == total) and at most two
    non-empty legs."""
    out = []
    for sizes in itertools.product(range(total + 1), repeat=4):
        s = sum(sizes)
        if s > total or (exact and s != total):
            continue
        if sum(1 for x in sizes if x) > 2:
            continue
        pools = [plane_partitions_of(s) for s in sizes]
        out.extend(itertools.product(*pools))
    return sorted(set(out), key=lambda L: tuple(pp.sort_key() for pp in L))


class TestCriterion1Nekrasov:
    def test_nekrasov_order_4(self):
        rep = check_nekrasov(4)
        ok = (
            rep.ok
            and rep.per_order_unique()
            and [o.n_unknowns for o in rep.orders] == [1, 1, 4, 10, 26]
        )
        report("1 nekrasov-order-4", ok, "unique signs at orders 1,4,10,26")


class TestCriterion2DTPT:
    def test_legs_up_to_2_mod_q4(self):
        failures = []
        for legs in leg_tuples(2):
            rep = check_dtpt(*legs, 4)
            if not (rep.ok and rep.closed_under_negation):
                failures.append(",".join(pp.render() for pp in legs))
        report(
            "2a dtpt |legs|<=2 mod q^4",
            not failures,
            f"{len(leg_tuples(2))} leg configurations",
        )

    def test_legs_up_to_3_mod_q3(self):
        failures = []
        for legs in leg_tuples(3):
            rep = check_dtpt(*legs, 3)
            if not rep.ok:
                failures.append(",".join(pp.render() for pp in legs))
        report(
            "2b dtpt |legs|<=3 mod q^3",
            not failures,
            f"{len(leg_tuples(3))} leg configurations",
        )

    def test_stretch_legs_up_to_4_mod_q3(self):
        failures = []
        for legs in leg_tuples(4, exact=True):
            rep = check_dtpt(*legs, 3)
            if not rep.ok:
                failures.append(",".join(pp.render() for pp in legs))
        report(
            "2c dtpt |legs|=4 mod q^3 (stretch)",
            not failures,
            f"{len(leg_tuples(4, exact=True))} leg configurations",
        )


class TestCriterion3LocalCurve:
    def test_local_curve_series(self):
        rep = local_curve_full_check(2, 6, nn_max=6)
        diag = [r for r in rep["rows"] if r["kind"] == "P_nn"]
        zero = [r for r in rep["rows"] if r["kind"] == "P_nd_zero"]
        ok = (
            rep["ok"]
            and rep["bracket_match"]
            and rep["corollary_match"]
            and len(diag) == 6
            and all(r["ok"] for r in diag)
            and all(r["ok"] for r in zero)
        )
        report("3 local-curve P_{n,n}=1/(n! l2^n), P_{n,d}=0", ok,
               f"{len(diag)} diagonal + {len(zero)} vanishing orders")


class TestCriterion4GlobalIdentity:
    def test_local_curve_beta_1_and_2(self):
        g = preset_local_curve(0, -1, -1)
        ok = all(check_affine_implies_toric(g, (d,), 3)["ok"] for d in (1, 2))
        report("4a global identity local curve beta<=2 mod q^3", ok)

    def test_local_p2_beta_1(self):
        ok = check_affine_implies_toric(preset_local_p2(), (1,), 3)["ok"]
        report("4b global identity local P2 beta=1 mod q^3", ok)

    def test_local_p1p1_beta_10(self):
        ok = check_affine_implies_toric(preset_local_p1p1(), (1, 0), 3)["ok"]
        report("4c global identity local P1xP1 beta=(1,0) mod q^3", ok)


class TestCriterion5Properties:
    def desk_partitions(self):
        pool = [sp for n in range(4) for sp in enumerate_pointlike(n)]
        box = PlanePartition([[1]])
        pool += list(enumerate_dt(box, E, E, E, 2))
        pool += list(enumerate_dt(E, box, E, box, 1))
        pool += list(enumerate_dt(PlanePartition([[2]]), E, E, E, 1))
        return pool

    def test_squarability_and_polynomiality(self):
        ok = True
        for sp in self.desk_partitions():
            v = dt_vertex_character(sp).V  # raises NotPolynomial on failure
            ok = ok and check_cy_symmetric(v)
        box = PlanePartition([[1]])
        for legs in [(box, E, E, E), (box, box, E, E)]:
            module = build_leg_module(*legs)
            for cfg in enumerate_boxconfigs(module, 2):
                ok = ok and check_cy_symmetric(pt_vertex_character(cfg).V)
        for pp in (box, PlanePartition([[2], [1]])):
            for deg in [(0, -1, -1), (1, -1, -2)]:
                ok = ok and check_cy_symmetric(redistribute_edge(pp, deg))
        report("5a squarability + exact polynomiality", ok)

    def test_bar_involution_property(self):
        from dt4vertex.exactalg import TLaurent

        rng = random.Random(4)
        ok = True
        for _ in range(50):
            terms = {
                tuple(rng.randint(-4, 4) for _ in range(4)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 50))
            }
            p = TLaurent({w: c for w, c in terms.items() if c})
            ok = ok and bar_involution(bar_involution(p)) == p
        report("5b bar involution", ok)

    def test_chi_consistency_on_global_fixed_points(self):
        ok = True
        g = preset_local_curve(0, -1, -1)
        for flavor in ("dt", "pt"):
            for fp in enumerate_global_fixed_points(g, (1,), 3, flavor):
                ok = ok and chi_of(g, fp) == fp.chi == chi_truncated_oracle(g, fp, 8)
        gp2 = preset_local_p2()
        for fp in enumerate_global_fixed_points(gp2, (1,), 2, "dt"):
            ok = ok and chi_of(gp2, fp) == fp.chi == chi_truncated_oracle(gp2, fp, 8)
        report("5c renormalized-volume/chi consistency", ok)

    def test_insertion_flavor_independence(self):
        rng = random.Random(8)
        g = preset_local_curve(0, -1, -1)
        gamma = InsertionClass(
            tuple(
                LambdaRat(
                    {
                        tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-3, 3)
                        for _ in range(3)
                    }
                    or {(0, 0, 0): 1}
                )
                for _ in g.charts
            )
        )
        dt_vals = {}
        for fp in enumerate_global_fixed_points(g, (1,), 3, "dt"):
            dt_vals.setdefault(fp.edge_pps, insertion_value((gamma,), fp))
        ok = True
        for fp in enumerate_global_fixed_points(g, (1,), 3, "pt"):
            ok = ok and insertion_value((gamma,), fp) == dt_vals[fp.edge_pps]
        report("5d DT = PT insertion values over common CM curves", ok)


class TestCriterion6Oracles:
    def test_solid_partition_counts(self):
        counts = [sum(1 for _ in enumerate_pointlike(n)) for n in range(1, 5)]
        oracle = [len(oracle_pointlike_boxsets(n)) for n in range(1, 5)]
        ok = counts == [1, 4, 10, 26] == oracle
        report("6a solid partition counts 1,4,10,26 vs monomial-ideal oracle", ok)

    def test_boxconfig_oracle(self):
        box = PlanePartition([[1]])
        cases = [
            (box, E, E, E),
            (PlanePartition([[2]]), E, E, E),
            (PlanePartition([[1], [1]]), E, E, E),
            (box, box, E, E),
            (E, box, E, box),
        ]
        ok = True
        for legs in cases:
            module = build_leg_module(*legs)
            ours = sorted(
                tuple(sorted(c.boxes)) for c in enumerate_boxconfigs(module, 3)
            )
            oracle = sorted(
                tuple(sorted(c.boxes)) for c in oracle_submodules(module, 3, trunc=4)
            )
            ok = ok and ours == oracle
        report("6b box configurations vs truncated-submodule oracle", ok)

    def test_signed_sum_oracle_k12(self):
        rng = random.Random(55)
        terms = []
        for _ in range(12):
            f = tuple(rng.randint(-2, 2) for _ in range(3))
            if not any(f):
                f = (1, 0, 0)
            terms.append(
                LambdaRat(poly_from_form(f), 1, {(1, 1, 1): 1}).scale(
                    rng.randint(1, 4)
                )
            )
        eps = [rng.choice([1, -1]) for _ in range(12)]
        target = LambdaRat.from_int(0)
        for s, t in zip(eps, terms):
            target = target + t.scale(s)
        fast = solve_signed_sum(terms, target)
        slow = naive_signed_sum(terms, target)
        ok = fast == slow and tuple(eps) in fast
        report("6c solve_signed_sum equals 2^12 exhaustion", ok)


class TestCriterion7Determinism:
    def test_hash_seed_independence(self):
        # set iteration order varies with the hash seed and reaches the
        # computation, so fresh processes under two seeds must still agree
        src = os.path.dirname(os.path.dirname(dt4vertex.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        commands = [
            ["check", "dtpt", "--legs", "[[1]],[[1]],[],[]", "--order", "3", "--json"],
            ["check", "global", "--geometry", "localcurve", "--beta", "1",
             "--order", "3", "--json"],
        ]
        ok = True
        for args in commands:
            outs = []
            for seed in ("0", "1"):
                env["PYTHONHASHSEED"] = seed
                proc = subprocess.run(
                    [sys.executable, "-m", "dt4vertex.cli", *args],
                    env=env, capture_output=True, check=False,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                outs.append(proc.stdout)
            ok = ok and outs[0] == outs[1]
        report("7a byte-identical output across hash seeds", ok)

    def test_repeat_runs_identical(self):
        a = check_nekrasov(3).render_json()
        b = check_nekrasov(3).render_json()
        buf1, buf2 = io.StringIO(), io.StringIO()
        main(["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "3", "--json"], out=buf1)
        main(["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "3", "--json"], out=buf2)
        ok = a == b and buf1.getvalue() == buf2.getvalue()
        report("7b repeated runs byte-identical", ok)
