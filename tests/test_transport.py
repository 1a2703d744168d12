"""Chart reports are transported from standard-coordinate solves.

A chart's weights are the standard ones under an invertible linear map A,
and its roots are s_pi * A(r_pi) with s_pi = +-1, so a chart identity is A
of a standard one and its sign solutions are the standard ones times s.
These tests hold the transported reports to the bytes a direct
chart-coordinate solve printed (recorded in ``data/chart_reports.json``),
to an oracle that sums relabelled roots exactly, and to s itself.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from dt4vertex import signsearch
from dt4vertex.cli import main
from dt4vertex.exactalg import FactoredWeightProduct, lambdarat_sum, qexp
from dt4vertex.partitions import EMPTY_PP, PlanePartition, SolidPartition, enumerate_dt
from dt4vertex.ptconfig import BoxConfig, LegModule, enumerate_boxconfigs
from dt4vertex.signsearch import (
    dtpt_report,
    inverse_permutation,
    nekrasov_rational_subst,
    orbit_representative,
    permute_point,
    solve_dtpt,
)
from dt4vertex.toric import (
    _required_leg_tuples,
    chart_sign_reports,
    check_affine_implies_toric,
    load_geometry,
    preset_local_p2,
)
from dt4vertex.vertexcalc import (
    SqrtEuler,
    dt_vertex_root,
    dt_vertex_series,
    pt_vertex_root,
    pt_vertex_series,
    relabel_root,
    substitution_forms,
)

DATA = json.loads((Path(__file__).parent / "data" / "chart_reports.json").read_text())

# (geometry, beta, truncation) of the recorded global checks
PRESETS = [
    ("localp2", (1,), 4),
    ("localp2", (2,), 3),
    ("localcurve", (1,), 4),
    ("localcurve", (2,), 4),
    ("localcurve:1,-1,-2", (1,), 3),
    ("localp1p1", (1, 0), 3),
    ("localp1p1", (1, 1), 3),
    ("localp1p1", (2, 1), 3),
]
IDS = [f"{name}-{','.join(map(str, beta))}-q{trunc}" for name, beta, trunc in PRESETS]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def data_key(name, beta, trunc):
    return f"{name} {','.join(map(str, beta))} {trunc}"


@pytest.fixture(scope="module")
def reports():
    """The chart reports of every preset, as the global check builds them."""
    return {
        data_key(*p): list(chart_sign_reports(load_geometry(p[0]), p[1], p[2]))
        for p in PRESETS
    }


@pytest.mark.parametrize("preset", PRESETS, ids=IDS)
def test_reports_match_direct_chart_solves(preset, reports):
    # (a) the bytes of every report, against those of a direct solve in
    # chart coordinates
    got = [
        [
            "nekrasov" if L is None else "dtpt",
            alpha,
            None if L is None else ",".join(pp.render() for pp in L),
            sha(rep.render_json()),
            sha(rep.to_text()),
        ]
        for alpha, L, rep in reports[data_key(*preset)]
    ]
    assert got == DATA["reports"][data_key(*preset)]


def test_global_check_reports_the_transported_reports(reports):
    name, beta, trunc = PRESETS[0]
    rep = check_affine_implies_toric(load_geometry(name), beta, trunc)
    assert rep["ok"]
    want = [r.to_json() for _, L, r in reports[data_key(*PRESETS[0])] if L is not None]
    assert rep["chart_checks"] == want


@pytest.mark.parametrize("preset", PRESETS, ids=IDS)
def test_witnesses_satisfy_chart_identities(preset, reports):
    # (b) each witness, summed over relabelled roots with exact sums,
    # satisfies its chart identity at every order
    name, beta, trunc = preset
    g = load_geometry(name)
    empty = {}
    for alpha, L, rep in reports[data_key(*preset)]:
        cols = g.charts[alpha]
        assert rep.ok
        if L is None:
            target = qexp(nekrasov_rational_subst(substitution_forms(cols)), trunc)
            empty[alpha] = dt_vertex_series(
                EMPTY_PP, EMPTY_PP, EMPTY_PP, EMPTY_PP, trunc,
                signs=rep.witness, subst=cols,
            )
            assert empty[alpha] == target
            continue
        lowest = rep.params["lowest"]
        dt = dt_vertex_series(*L, trunc + lowest, signs=rep.witness, subst=cols)
        pt = pt_vertex_series(*L, trunc + lowest, signs=rep.witness, subst=cols)
        rhs = pt * empty[alpha]
        assert rhs.trunc >= dt.trunc
        assert dt.eq_mod(rhs)


@pytest.mark.parametrize("preset", PRESETS, ids=IDS)
def test_chart_sign_is_the_sign_relabelling_drops(preset):
    # (c) relabel_root(r, forms) = (s, R) with R.value = s *
    # r.value.substitute(forms), and standard roots of sign +1
    name, beta, trunc = preset
    g = load_geometry(name)
    needs = _required_leg_tuples(g, beta)
    roots = []
    for L in set().union(*needs.values()):
        roots += [dt_vertex_root(sp)[1] for sp in enumerate_dt(*L, trunc - 1)]
        roots += [
            pt_vertex_root(c)[1]
            for c in enumerate_boxconfigs(LegModule(L), trunc - 1)
        ]
    flips = 0
    for cols in g.charts:
        forms = substitution_forms(cols)
        for r in roots:
            assert r.value.sign == 1
            s, root = relabel_root(r, forms)
            assert root.value == FactoredWeightProduct(s) * r.value.substitute(forms)
            flips += s == -1
    if name == "localp2":
        assert flips  # the re-sort of transported solutions is exercised


@pytest.mark.parametrize("case", DATA["planted_fail"], ids=lambda c: c["scale"])
def test_planted_failure_transports_exactly(case, monkeypatch):
    # (d) one PT root scaled by 2: the failing order and residual are those
    # of the direct chart solve.  A leg set that is not its orbit's
    # representative is transported from the representative's solve, so
    # the root is scaled at the representative's fixed point that the
    # transport maps onto case["scale"], and at case["scale"] itself for
    # the direct solve it is compared with.
    cols = preset_local_p2().charts[1]
    box = PlanePartition([[1]])
    legs = {"[[1]],[],[],[]": (box, EMPTY_PP, EMPTY_PP, EMPTY_PP),
            "[],[[1]],[],[]": (EMPTY_PP, box, EMPTY_PP, EMPTY_PP)}[case["legs"]]
    rep_legs, p = orbit_representative(legs)
    module = LegModule(legs)
    scaled = {case["scale"]} | {
        c.key()
        for c in enumerate_boxconfigs(LegModule(rep_legs), 3)
        if BoxConfig(module, [permute_point(w, p) for w in c.boxes]).key()
        == case["scale"]
    }
    assert len(scaled) == (1 if rep_legs == legs else 2)
    real = signsearch.pt_vertex_root

    def planted(config, subst=None, cache=None):
        key, root = real(config, subst, cache)
        if config.key() in scaled:
            root = SqrtEuler(FactoredWeightProduct(1, 2) * root.value, root.parity)
        return key, root

    monkeypatch.setattr(signsearch, "pt_vertex_root", planted)
    solve = solve_dtpt(legs, 4)
    direct = signsearch.solve_dtpt_direct(legs, 4)
    assert [(o.keys, o.roots, o.solutions, o.rhs) for o in solve.orders] == [
        (o.keys, o.roots, o.solutions, o.rhs) for o in direct.orders
    ]
    rep = dtpt_report(solve, cols)
    bad = next(o for o in rep.orders if o.n_solutions == 0)
    assert not rep.ok
    assert bad.order == case["order"]
    assert sha(bad.residual) == case["residual_sha256"]
    assert sha(rep.render_json()) == case["json_sha256"]
    assert sha(rep.to_text()) == case["text_sha256"]


def test_planted_nekrasov_failure_moves_exactly(monkeypatch):
    # one order-2 root scaled by 2: order 2 has no solution and the command
    # reports it with its residual.  In a chart, the residual is that of a
    # direct chart solve, the sum of the chart's roots s_i A(a_i) less
    # A(target): A of the standard terms with the signs s that relabelling
    # drops, which are not all +1 here
    e = EMPTY_PP
    points = [sp for sp in enumerate_dt(e, e, e, e, 2) if sp.n_added() == 2]
    real = signsearch.dt_vertex_root

    def planted(sp, subst=None, cache=None):
        key, root = real(sp, subst, cache)
        if sp.key() == points[0].key():
            root = SqrtEuler(FactoredWeightProduct(1, 2) * root.value, root.parity)
        return key, root

    monkeypatch.setattr(signsearch, "dt_vertex_root", planted)
    orders = signsearch.solve_nekrasov(3)
    target = qexp(signsearch.nekrasov_rational(), 4).coefficient(2)
    standard = lambdarat_sum([r.expand() for r in orders[2].roots]) - target
    out = io.StringIO()
    assert main(["check", "nekrasov", "--order", "3"], out=out) == 1
    assert out.getvalue().splitlines()[-2:] == [
        "counterexample order: 2 (no consistent signs)",
        f"residual (canonical signs): {standard.render()}",
    ]

    cols = preset_local_p2().charts[1]
    forms = substitution_forms(cols)
    rep = signsearch.nekrasov_report(orders, cols)
    assert not rep.ok
    assert [o.n_solutions for o in rep.orders] == [1, 1, 0, 1]
    direct = lambdarat_sum([planted(sp, cols)[1].expand() for sp in points])
    direct = direct - qexp(nekrasov_rational_subst(forms), 4).coefficient(2)
    signs = [relabel_root(r, forms)[0] for r in orders[2].roots]
    assert -1 in signs
    signed = lambdarat_sum([r.expand().scale(s) for r, s in zip(orders[2].roots, signs)])
    assert rep.orders[2].residual == direct.render()
    assert rep.orders[2].residual == (signed - target).substitute(forms).render()


def test_planted_zero_root_moves_to_free(monkeypatch):
    # a zero root at a fixed point of a leg set that is not its orbit's
    # representative, and at its preimage: the moved solve lists the fixed
    # point as free, as the direct solve does, field by field
    legs = (EMPTY_PP, PlanePartition([[1]]), EMPTY_PP, EMPTY_PP)
    rep_legs, p = orbit_representative(legs)
    assert rep_legs != legs
    inv = inverse_permutation(p)
    sp = next(sp for sp in enumerate_dt(*legs, 3) if sp.n_added() == 3)
    pre = SolidPartition(rep_legs, [permute_point(b, inv) for b in sp.added])
    zeroed = {sp.key(), pre.key()}
    real = signsearch.dt_vertex_root

    def planted(sp, subst=None, cache=None):
        key, root = real(sp, subst, cache)
        return key, SqrtEuler.zero() if sp.key() in zeroed else root

    monkeypatch.setattr(signsearch, "dt_vertex_root", planted)
    got = solve_dtpt(legs, 4)
    want = signsearch.solve_dtpt_direct(legs, 4)
    assert [o.free for o in got.orders][3] == [sp.key()]
    assert len(got.orders) == len(want.orders)
    for a, b in zip(got.orders, want.orders):
        for name in ("order", "keys", "roots", "n_dt", "free", "solutions", "rhs"):
            assert getattr(a, name) == getattr(b, name), (a.order, name)
