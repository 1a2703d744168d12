"""Chart reports are transported from standard-coordinate solves.

A chart's weights are the standard ones under an invertible linear map A,
and its roots are s_pi * A(r_pi) with s_pi = +-1, so a chart identity is A
of a standard one and its sign solutions are the standard ones times s.
These tests hold the transported reports to the bytes a direct
chart-coordinate solve printed (recorded in ``data/chart_reports.json``),
to an oracle that sums relabelled roots exactly, and to s itself.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dt4vertex import signsearch
from dt4vertex.exactalg import FactoredWeightProduct, qexp
from dt4vertex.partitions import EMPTY_PP, PlanePartition, enumerate_dt
from dt4vertex.ptconfig import BoxConfig, LegModule, enumerate_boxconfigs
from dt4vertex.signsearch import (
    chart_sign,
    dtpt_report,
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
    # (c) relabel_root(r, forms).value = s * r.value.substitute(forms), with
    # standard roots of sign +1
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
            s = chart_sign(r, forms)
            assert relabel_root(r, forms).value == (
                FactoredWeightProduct(s) * r.value.substitute(forms)
            )
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
