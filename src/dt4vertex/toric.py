"""Global toric Calabi-Yau 4-fold geometries: chart and edge data, gluing
of vertex and edge terms under equivariant-parameter substitutions, holo-
morphic Euler characteristic and curve-class bookkeeping, primary
insertions, and the global DT/PT generating series.

Chart substitutions are 4x4 unimodular integer matrices stored by columns:
column i is the global exponent vector of the i-th chart coordinate
character.  The columns sum to (1, 1, 1, 1), so a substitution acts on
linear forms as the 3x3 integer matrix A whose columns are the forms of the
first three columns.  An Euler root is computed once, in standard
coordinates, and a chart's root is obtained by relabelling its factors:
each p^e becomes the positive-lead representative of A p to the same power,
with the content moved into the scalar.  The two forms of a pair carry equal
coefficients, so no sign arises and the parity is unchanged.

The chart-level sign checks of the global identity are decided the same
way: as a function of the standard values, the relabelled root is s A(r)
with s = +-1, so each chart's Nekrasov and DT/PT identities are A of
standard ones.  ``chart_sign_reports`` solves Nekrasov once and each S4
orbit of leg tuples once, in standard coordinates.  It moves each leg
tuple's solve from its orbit's representative once, and every solve to
each chart that needs it, by the one move of ``signsearch``
(``move_order``); composing the permutation with each chart instead would
enumerate the leg tuple's fixed points again for every chart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    FactoredWeightProduct,
    LambdaRat,
    QSeries,
    lambdarat_sum,
    poly_add,
    poly_from_form,
    poly_mul,
    poly_scale,
    weight_form,
)
from .partitions import (
    EMPTY_PP,
    EdgeData,
    SolidPartition,
    f_statistic,
    plane_partitions_of,
)
from .ptconfig import BoxConfig, LegModule, enumerate_boxconfigs
from .signsearch import (
    SignAssignment,
    dtpt_report,
    nekrasov_rational_subst,
    nekrasov_report,
    orbit_representative,
    solve_dtpt,
    solve_nekrasov,
    solve_signed_sum,
    transport_dtpt,
)
from .vertexcalc import (
    dt_character,
    dt_vertex_root,
    dt_vertex_series,
    edge_root,
    pt_character,
    pt_vertex_root,
    pt_vertex_series,
    sign_of,
    subst_key,
    substitution_forms,
)
from .partitions import enumerate_dt

IDENTITY_COLS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class GeometryError(Exception):
    pass


class BadTransition(GeometryError):
    pass


class BadDegrees(GeometryError):
    pass


class NotUnimodular(GeometryError):
    pass


class ZeroTangentWeight(GeometryError):
    pass


class NoConsistentSigns(Exception):
    pass


def _det4(cols):
    from itertools import permutations

    total = 0
    for perm in permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(4):
            prod *= cols[i][perm[i]]
        total += sign * prod
    return total


@dataclass(frozen=True)
class EdgeSpec:
    """An invariant line: seen as axis_a of chart a and axis_b of chart b,
    with the normal-axis correspondence sigma (a-axis -> b-axis) carrying
    degrees m (keyed by a-axis), and a curve-class index."""

    a: int
    axis_a: int
    b: int
    axis_b: int
    sigma: tuple  # three (a_axis, b_axis, degree) triples, a_axis increasing
    cls: int = 0

    def degrees_a(self):
        """Normal degrees in the order of chart a's normal axes."""
        return tuple(m for _, _, m in self.sigma)


class ToricGeometry:
    """Charts (4x4 unimodular column matrices over the global torus basis),
    edges with transition data, and a curve-class lattice indexed by edge
    classes."""

    def __init__(self, name, charts, edges, nclasses=None):
        self.name = name
        self.charts = tuple(tuple(tuple(col) for col in cols) for cols in charts)
        self.edges = tuple(edges)
        self.nclasses = (
            nclasses
            if nclasses is not None
            else (max((e.cls for e in self.edges), default=-1) + 1)
        )
        self.validate()

    def validate(self):
        one = (1, 1, 1, 1)
        for idx, cols in enumerate(self.charts):
            if abs(_det4(cols)) != 1:
                raise NotUnimodular(f"chart {idx} is not a unimodular basis")
            sums = tuple(sum(col[i] for col in cols) for i in range(4))
            if sums != one:
                raise BadTransition(
                    f"chart {idx} characters do not multiply to the "
                    "Calabi-Yau character t1t2t3t4"
                )
        for k, e in enumerate(self.edges):
            degs = e.degrees_a()
            if sum(degs) != -2:
                raise BadDegrees(f"edge {k}: normal degrees {degs} do not sum to -2")
            wa = self.charts[e.a]
            wb = self.charts[e.b]
            if wb[e.axis_b] != tuple(-x for x in wa[e.axis_a]):
                raise BadTransition(f"edge {k}: direction characters not inverse")
            normals_a = [i for i in range(4) if i != e.axis_a]
            if tuple(ja for ja, _, _ in e.sigma) != tuple(normals_a):
                raise BadTransition(f"edge {k}: sigma must list chart-a normal axes")
            seen_b = sorted(jb for _, jb, _ in e.sigma)
            if seen_b != [i for i in range(4) if i != e.axis_b]:
                raise BadTransition(f"edge {k}: sigma must hit chart-b normal axes")
            for ja, jb, m in e.sigma:
                want = tuple(wa[ja][i] - m * wa[e.axis_a][i] for i in range(4))
                if wb[jb] != want:
                    raise BadTransition(
                        f"edge {k}: transition rule fails on axis {ja + 1}"
                    )
            if e.cls < 0 or e.cls >= self.nclasses:
                raise GeometryError(f"edge {k}: class index out of range")

    def nverts(self):
        return len(self.charts)

    def edge_frame_cols(self, e):
        """Substitution columns of an edge's own frame: the direction
        character first, then chart a's normal characters in axis order."""
        wa = self.charts[e.a]
        normals = [i for i in range(4) if i != e.axis_a]
        return (wa[e.axis_a],) + tuple(wa[i] for i in normals)

    def chart_legs(self, edge_pps):
        """Per-chart leg tuples induced by an assignment of plane partitions
        to edges (partitions are stored in the chart-a frame of each edge)."""
        legs = [[EMPTY_PP] * 4 for _ in self.charts]
        for e, pp in zip(self.edges, edge_pps):
            legs[e.a][e.axis_a] = pp
            normals_b = [i for i in range(4) if i != e.axis_b]
            # position of each sorted b-normal axis inside sigma
            perm = []
            for mb in normals_b:
                for r, (_, jb, _) in enumerate(e.sigma):
                    if jb == mb:
                        perm.append(r)
            legs[e.b][e.axis_b] = pp.permuted_axes(tuple(perm))
        return tuple(tuple(row) for row in legs)

    def beta_of(self, edge_pps):
        beta = [0] * self.nclasses
        for e, pp in zip(self.edges, edge_pps):
            beta[e.cls] += pp.size()
        return tuple(beta)

    def render(self):
        lines = [f"geometry {self.name}", f"classes {self.nclasses}"]
        for idx, cols in enumerate(self.charts):
            lines.append(f"chart {idx}")
            for col in cols:
                lines.append(" ".join(str(x) for x in col))
        for e in self.edges:
            maps = " ".join(
                f"map {ja + 1} {jb + 1} {m}" for ja, jb, m in e.sigma
            )
            lines.append(
                f"edge {e.a} {e.axis_a + 1} {e.b} {e.axis_b + 1} "
                f"class {e.cls} {maps}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets


def preset_c4():
    return ToricGeometry("c4", [IDENTITY_COLS], [], nclasses=0)


def preset_local_curve(l1=0, l2=-1, l3=-1):
    """Tot_P1(O(l1) + O(l2) + O(l3)) with l1 + l2 + l3 = -2; the transition
    is (x1, x2, x3, x4) -> (x1^-1, x2 x1^-l1, x3 x1^-l2, x4 x1^-l3)."""
    if l1 + l2 + l3 != -2:
        raise BadDegrees("local curve degrees must sum to -2")
    chart1 = (
        (-1, 0, 0, 0),
        (-l1, 1, 0, 0),
        (-l2, 0, 1, 0),
        (-l3, 0, 0, 1),
    )
    edge = EdgeSpec(0, 0, 1, 0, ((1, 1, l1), (2, 2, l2), (3, 3, l3)), cls=0)
    return ToricGeometry(
        f"localcurve({l1},{l2},{l3})", [IDENTITY_COLS, chart1], [edge]
    )


def preset_local_p2():
    """Tot_P2(O(-1) + O(-2)): three charts around the triangle of lines,
    each line with normal degrees (1, -1, -2)."""
    chart0 = IDENTITY_COLS
    chart1 = ((0, -1, 0, 0), (1, -1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 1))
    chart2 = ((-1, 1, 0, 0), (-1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 0, 1))
    edges = [
        EdgeSpec(0, 0, 2, 1, ((1, 0, 1), (2, 2, -1), (3, 3, -2)), cls=0),
        EdgeSpec(0, 1, 1, 0, ((0, 1, 1), (2, 2, -1), (3, 3, -2)), cls=0),
        EdgeSpec(1, 1, 2, 0, ((0, 1, 1), (2, 2, -1), (3, 3, -2)), cls=0),
    ]
    return ToricGeometry("localp2", [chart0, chart1, chart2], edges)


def preset_local_p1p1():
    """Tot_{P1xP1}(O(-1,-1) + O(-1,-1)): four charts indexed by the
    vertices, rulings as the two curve classes."""
    charts = {
        (0, 0): IDENTITY_COLS,
        (1, 0): ((-1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)),
        (0, 1): ((1, 0, 0, 0), (0, -1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)),
        (1, 1): ((-1, 0, 0, 0), (0, -1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
    }
    order = [(0, 0), (1, 0), (0, 1), (1, 1)]
    idx = {v: i for i, v in enumerate(order)}
    edges = [
        # horizontal ruling (class 0): axis 1, normal degrees (0, -1, -1)
        EdgeSpec(idx[(0, 0)], 0, idx[(1, 0)], 0, ((1, 1, 0), (2, 2, -1), (3, 3, -1)), cls=0),
        EdgeSpec(idx[(0, 1)], 0, idx[(1, 1)], 0, ((1, 1, 0), (2, 2, -1), (3, 3, -1)), cls=0),
        # vertical ruling (class 1): axis 2, normal degrees (0, -1, -1)
        EdgeSpec(idx[(0, 0)], 1, idx[(0, 1)], 1, ((0, 0, 0), (2, 2, -1), (3, 3, -1)), cls=1),
        EdgeSpec(idx[(1, 0)], 1, idx[(1, 1)], 1, ((0, 0, 0), (2, 2, -1), (3, 3, -1)), cls=1),
    ]
    return ToricGeometry("localp1p1", [charts[v] for v in order], edges)


PRESETS = {
    "c4": preset_c4,
    "localcurve": preset_local_curve,
    "localp2": preset_local_p2,
    "localp1p1": preset_local_p1p1,
}


def load_geometry(config):
    """Load a geometry from a preset name ("c4", "localcurve",
    "localcurve:l1,l2,l3", "localp2", "localp1p1") or from the text file
    grammar produced by ToricGeometry.render().  Only localcurve takes
    arguments, exactly three integer degrees; anything else raises
    GeometryError."""
    text = config.strip()
    if "\n" not in text:
        name, colon, args = text.partition(":")
        if name not in PRESETS:
            raise GeometryError(f"unknown geometry preset {text!r}")
        if not colon:
            return PRESETS[name]()
        if name != "localcurve":
            raise GeometryError(f"geometry preset {name!r} takes no arguments: {text!r}")
        try:
            degrees = [int(x) for x in args.split(",")]
        except ValueError:
            degrees = []
        if len(degrees) != 3:
            raise GeometryError(f"localcurve takes three integer degrees l1,l2,l3, not {args!r}")
        return preset_local_curve(*degrees)
    name = "geometry"
    nclasses = None
    charts = []
    edges = []
    lines = [ln.strip() for ln in text.splitlines()]
    i = 0
    try:
        while i < len(lines):
            ln = lines[i]
            i += 1
            if not ln or ln.startswith("#"):
                continue
            tok = ln.split()
            if tok[0] == "geometry":
                name = tok[1]
            elif tok[0] == "classes":
                nclasses = int(tok[1])
            elif tok[0] == "chart":
                cols = []
                for _ in range(4):
                    cols.append(tuple(int(x) for x in lines[i].split()))
                    if len(cols[-1]) != 4:
                        raise GeometryError(f"chart row without four entries: {lines[i]!r}")
                    i += 1
                charts.append(tuple(cols))
            elif tok[0] == "edge":
                a, axis_a, b, axis_b = int(tok[1]), int(tok[2]) - 1, int(tok[3]), int(tok[4]) - 1
                if tok[5] != "class":
                    raise GeometryError(f"bad edge line: {ln!r}")
                cls = int(tok[6])
                sigma = []
                rest = tok[7:]
                while rest:
                    if rest[0] != "map":
                        raise GeometryError(f"bad edge line: {ln!r}")
                    sigma.append((int(rest[1]) - 1, int(rest[2]) - 1, int(rest[3])))
                    rest = rest[4:]
                edges.append(EdgeSpec(a, axis_a, b, axis_b, tuple(sigma), cls))
            else:
                raise GeometryError(f"unrecognized line: {ln!r}")
    except (IndexError, ValueError):
        raise GeometryError(f"malformed geometry file at {ln!r}") from None
    return ToricGeometry(name, charts, edges, nclasses)


# ---------------------------------------------------------------------------
# global fixed points


@dataclass(frozen=True)
class GlobalFixedPoint:
    """A torus-fixed point of the global moduli space: plane partitions on
    the edges plus per-chart local data (a SolidPartition for DT, a
    BoxConfig over the CM legs for PT)."""

    geometry: ToricGeometry
    flavor: str
    edge_pps: tuple
    locals: tuple
    chi: int
    beta: tuple

    def key(self):
        parts = [self.flavor, "|".join(pp.render() for pp in self.edge_pps)]
        parts.extend(loc.key() for loc in self.locals)
        return "fp:" + ";".join(parts)

    def chart_character(self, alpha):
        """Character of the fixed point's sheaf on chart alpha."""
        if self.flavor == "dt":
            return dt_character(self.locals[alpha])
        return pt_character(self.locals[alpha])


def _edge_size_assignments(g, beta):
    per_class = {}
    for i, e in enumerate(g.edges):
        per_class.setdefault(e.cls, []).append(i)
    if len(beta) != g.nclasses:
        raise GeometryError(
            f"beta must have {g.nclasses} components for {g.name}"
        )

    def compositions(total, k):
        if k == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    per_class_options = []
    class_order = sorted(per_class)
    for cls in class_order:
        per_class_options.append(list(compositions(beta[cls], len(per_class[cls]))))
    for combo in itertools.product(*per_class_options):
        sizes = [0] * len(g.edges)
        for cls, comp in zip(class_order, combo):
            for e_idx, s in zip(per_class[cls], comp):
                sizes[e_idx] = s
        yield tuple(sizes)


def cm_assignments(g, beta):
    """All assignments of plane partitions to edges with total class beta,
    in a deterministic order."""
    out = []
    for sizes in _edge_size_assignments(g, beta):
        pools = [plane_partitions_of(s) for s in sizes]
        for pps in itertools.product(*pools):
            out.append(tuple(pps))
    out.sort(key=lambda pps: tuple(pp.sort_key() for pp in pps))
    return out


def chi_f_of(g, edge_pps):
    """Edge contribution to chi: the f-statistic of each edge partition
    with its normal degrees."""
    return sum(
        f_statistic(pp, EdgeData(*e.degrees_a()))
        for e, pp in zip(g.edges, edge_pps)
    )


def chi_of(g, fp):
    """chi(O_Z) = sum of renormalized chart volumes plus the edge
    f-statistics (plus cokernel lengths for stable pairs)."""
    total = chi_f_of(g, fp.edge_pps)
    for loc in fp.locals:
        if fp.flavor == "dt":
            total += loc.renormalized_volume()
        else:
            total += SolidPartition(loc.module.legs).renormalized_volume()
            total += loc.weighted_length()
    return total


def enumerate_global_fixed_points(g, beta, n_max, flavor):
    """Every fixed point with class beta and chi <= n_max, exactly once."""
    if flavor not in ("dt", "pt"):
        raise ValueError("flavor must be 'dt' or 'pt'")
    for edge_pps in cm_assignments(g, beta):
        legs = g.chart_legs(edge_pps)
        chi0 = chi_f_of(g, edge_pps)
        cms = [SolidPartition(L) for L in legs]
        chi0 += sum(cm.renormalized_volume() for cm in cms)
        budget = n_max - chi0
        if budget < 0:
            continue
        per_chart = []
        if flavor == "dt":
            for L in legs:
                opts = [
                    (sp.n_added(), sp) for sp in enumerate_dt(*L, budget)
                ]
                per_chart.append(opts)
        else:
            for L in legs:
                module = LegModule(L)  # raises TooManyLegs when applicable
                opts = [
                    (cfg.weighted_length(), cfg)
                    for cfg in enumerate_boxconfigs(module, budget)
                ]
                per_chart.append(opts)

        def rec(alpha, cost, chosen):
            if alpha == len(per_chart):
                yield GlobalFixedPoint(
                    g, flavor, edge_pps, tuple(chosen), chi0 + cost, tuple(beta)
                )
                return
            for c, loc in per_chart[alpha]:
                if cost + c > budget:
                    continue
                chosen.append(loc)
                yield from rec(alpha + 1, cost + c, chosen)
                chosen.pop()

        yield from rec(0, 0, [])


def check_gluing(g, fp):
    """Every edge's two chart views must carry the same plane partition."""
    legs = g.chart_legs(fp.edge_pps)
    for alpha, loc in enumerate(fp.locals):
        have = loc.legs if fp.flavor == "dt" else loc.module.legs
        if tuple(have) != tuple(legs[alpha]):
            raise ValueError(f"chart {alpha} legs disagree with the edge data")
    return True


def _line_count(offset, direction, bound, t_min=None):
    """Number of integers t (t >= t_min when given) such that every
    component of offset + t*direction lies in [-bound, bound]."""
    lo = t_min
    hi = None
    for o, d in zip(offset, direction):
        if d == 0:
            if abs(o) > bound:
                return 0
            continue
        a, b = -bound - o, bound - o
        if d > 0:
            tlo, thi = -(-a // d), b // d
        else:
            tlo, thi = -(-b // d), a // d
        lo = tlo if lo is None else max(lo, tlo)
        hi = thi if hi is None else min(hi, thi)
    if hi is None or lo is None:
        raise ValueError("direction must be nonzero")
    return max(0, hi - lo + 1)


def _inside(w, bound):
    return max(abs(x) for x in w) <= bound


def _subst_point(cols, b):
    return tuple(
        b[0] * cols[0][i] + b[1] * cols[1][i] + b[2] * cols[2][i] + b[3] * cols[3][i]
        for i in range(4)
    )


def chi_truncated_oracle(g, fp, bound):
    """chi extracted from the glued character: Cech count of weight
    multiplicities of the chart and edge section modules inside the
    symmetric box [-bound, bound]^4; stabilizes in bound.

    Chart boxes are counted by inclusion-exclusion: each leg cylinder is a
    family of rays counted in closed form, multi-leg boxes are corrected by
    1-k, and added/cokernel boxes are counted directly.
    """
    total = 0
    for alpha, loc in enumerate(fp.locals):
        cols = g.charts[alpha]
        sp = loc if fp.flavor == "dt" else SolidPartition(loc.module.legs)
        for box in sorted(sp.added):
            if _inside(_subst_point(cols, box), bound):
                total += 1
        for box, k in sp.multi_leg_boxes():
            if _inside(_subst_point(cols, box), bound):
                total += 1 - k
        for ax in range(4):
            pp = sp.legs[ax]
            if pp.is_empty():
                continue
            slots = [i for i in range(4) if i != ax]
            for (u, v, h) in pp.boxes():
                offset = tuple(
                    u * cols[slots[0]][i] + v * cols[slots[1]][i] + h * cols[slots[2]][i]
                    for i in range(4)
                )
                total += _line_count(offset, cols[ax], bound, t_min=0)
        if fp.flavor == "pt":
            for wloc in sorted(loc.boxes):
                if _inside(_subst_point(cols, wloc), bound):
                    total += 1
    for e, pp in zip(g.edges, fp.edge_pps):
        cols = g.edge_frame_cols(e)
        for (u, v, h) in pp.boxes():
            offset = tuple(
                u * cols[1][i] + v * cols[2][i] + h * cols[3][i] for i in range(4)
            )
            total -= _line_count(offset, cols[0], bound)
    return total


# ---------------------------------------------------------------------------
# primary insertions


@dataclass(frozen=True)
class InsertionClass:
    """Restrictions of an equivariant cohomology class to the fixed points:
    one polynomial (LambdaRat with trivial denominator) per chart."""

    per_chart: tuple

    @classmethod
    def zero(cls, g):
        return cls(tuple(LambdaRat.from_int(0) for _ in g.charts))

    @classmethod
    def point_class(cls, g, chart):
        """e_T(T_X|p) at one fixed point and 0 elsewhere (the class of a
        torus-fixed point)."""
        return cls(tuple(
            chart_tangent_euler(g, alpha).expand()
            if alpha == chart
            else LambdaRat.from_int(0)
            for alpha in range(g.nverts())
        ))


def _ch3(laurent):
    """Degree-3 part of the equivariant Chern character of a finite
    character: sum c_w form(w)^3 / 6."""
    acc = {}
    for w, c in sorted(laurent.terms.items()):
        f = weight_form(w)
        if not any(f):
            continue
        p = poly_from_form(f)
        p3 = poly_mul(poly_mul(p, p), p)
        acc = poly_add(acc, poly_scale(p3, c))
    return LambdaRat(acc, 6)


def chart_tangent_euler(g, alpha):
    acc = FactoredWeightProduct.one()
    for col in g.charts[alpha]:
        f = weight_form(col)
        if not any(f):
            raise ZeroTangentWeight(f"chart {alpha} has a T-fixed tangent direction")
        acc = acc.mul_form(f, 1)
    return acc


def _tau_from_characters(g, gamma, chart_chars):
    total = LambdaRat.from_int(0)
    for alpha, z in enumerate(chart_chars):
        a = z.times_d().subst(g.charts[alpha])
        ch3 = _ch3(a)
        if ch3.is_zero():
            continue
        inv_euler = (chart_tangent_euler(g, alpha) ** -1).expand()
        total = total + ch3 * gamma.per_chart[alpha] * inv_euler
    return total


def insertion_value(gammas, fp):
    """Product over the insertion classes of the localized ch3 pairing; DT
    and PT fixed points over a common CM curve give identical values."""
    g = fp.geometry
    chart_chars = [fp.chart_character(alpha) for alpha in range(g.nverts())]
    total = LambdaRat.from_int(1)
    for gamma in gammas:
        total = total * _tau_from_characters(g, gamma, chart_chars)
    return total


def insertion_value_cm(g, gammas, legs_per_chart):
    chart_chars = [dt_character(SolidPartition(L)) for L in legs_per_chart]
    total = LambdaRat.from_int(1)
    for gamma in gammas:
        total = total * _tau_from_characters(g, gamma, chart_chars)
    return total


# ---------------------------------------------------------------------------
# global series


def global_series(g, beta, flavor, gammas, trunc, signs=None, cache=None):
    """Sum over fixed points of sign * product of substituted vertex and
    edge Euler roots * insertions * q^chi, truncated at q^trunc.

    The sum factorizes per CM assignment into a product of per-chart vertex
    series, an edge-root scalar, and the insertion scalar.
    """
    total = QSeries.zero(trunc)
    for edge_pps in cm_assignments(g, beta):
        legs = g.chart_legs(edge_pps)
        chi_f = chi_f_of(g, edge_pps)
        cms = [SolidPartition(L) for L in legs]
        lo = chi_f + sum(cm.renormalized_volume() for cm in cms)
        if lo >= trunc:
            continue
        scalar = LambdaRat.from_int(1)
        for e, pp in zip(g.edges, edge_pps):
            if pp.is_empty():
                continue
            key, root = edge_root(
                pp, EdgeData(*e.degrees_a()), g.edge_frame_cols(e), cache
            )
            scalar = scalar * root.expand().scale(sign_of(signs, key))
        if gammas:
            scalar = scalar * insertion_value_cm(g, gammas, legs)
        if scalar.is_zero():
            continue
        prod = None
        series_fn = dt_vertex_series if flavor == "dt" else pt_vertex_series
        for alpha, L in enumerate(legs):
            others = sum(
                cms[b].renormalized_volume() for b in range(len(cms)) if b != alpha
            )
            strunc = trunc - chi_f - others
            s = series_fn(*L, strunc, signs=signs, subst=g.charts[alpha], cache=cache)
            prod = s if prod is None else prod * s
        if prod is None:
            prod = QSeries.one(trunc)
        total = total + prod.scale(scalar).shift(chi_f)
    return total


def global_series_by_fixed_points(g, beta, flavor, gammas, trunc, signs=None, cache=None):
    """The same series assembled fixed point by fixed point (cross-check of
    the factorized assembly); the sign of a fixed point is the product of
    its vertex and edge signs."""
    by_chi = {}
    pts = sorted(
        enumerate_global_fixed_points(g, beta, trunc - 1, flavor),
        key=lambda fp: fp.key(),
    )
    for fp in pts:
        sgn, val = fixed_point_value(g, fp, gammas, signs, cache)
        if val.is_zero():
            continue
        by_chi.setdefault(fp.chi, []).append(val.scale(sgn))
    return QSeries(trunc, {chi: lambdarat_sum(v) for chi, v in by_chi.items()})


def fixed_point_value(g, fp, gammas=(), signs=None, cache=None):
    """(sign, value) of one global fixed point: the product of its chart and
    edge Euler roots and insertion values."""
    sgn = 1
    val = LambdaRat.from_int(1)
    for e, pp in zip(g.edges, fp.edge_pps):
        if pp.is_empty():
            continue
        key, root = edge_root(pp, EdgeData(*e.degrees_a()), g.edge_frame_cols(e), cache)
        sgn *= sign_of(signs, key)
        val = val * root.expand()
    for alpha, loc in enumerate(fp.locals):
        if fp.flavor == "dt":
            key, root = dt_vertex_root(loc, g.charts[alpha], cache)
        else:
            key, root = pt_vertex_root(loc, g.charts[alpha], cache)
        sgn *= sign_of(signs, key)
        val = val * root.expand()
    if gammas:
        val = val * insertion_value(gammas, fp)
    return sgn, val


# ---------------------------------------------------------------------------
# the affine-implies-toric check


def _required_leg_tuples(g, beta):
    needs = {alpha: set() for alpha in range(g.nverts())}
    for edge_pps in cm_assignments(g, beta):
        legs = g.chart_legs(edge_pps)
        for alpha, L in enumerate(legs):
            needs[alpha].add(L)
    empty = (EMPTY_PP,) * 4
    for alpha in range(g.nverts()):
        needs[alpha].add(empty)
    return needs


def _collect_edge_keys(g, beta, signs, cache):
    for edge_pps in cm_assignments(g, beta):
        for e, pp in zip(g.edges, edge_pps):
            if pp.is_empty():
                continue
            key, _ = edge_root(
                pp, EdgeData(*e.degrees_a()), g.edge_frame_cols(e), cache
            )
            signs.setdefault(key, 1)


def chart_sign_reports(g, beta, trunc, cache=None):
    """The sign reports of every chart, in the order the global check uses
    them: (chart, None, Nekrasov report), then (chart, legs, DT/PT report)
    for each nonempty leg tuple the chart needs.  A chart whose Nekrasov
    check fails ends the sequence.

    Every report is moved from a solve in standard coordinates (see
    ``signsearch``).  Nekrasov is solved once, and each S4 orbit of leg
    tuples once, at its representative; each leg tuple's solve is moved
    from that one once, then to each chart.  The solves are shared within
    this call, with a cache too."""
    empty = (EMPTY_PP,) * 4
    needs = _required_leg_tuples(g, beta)
    nek_solve = solve_nekrasov(trunc - 1, cache)
    solves = {}
    for alpha, cols in enumerate(g.charts):
        nek = nekrasov_report(nek_solve, cols)
        yield alpha, None, nek
        if not nek.ok:
            return
        legs = sorted(
            needs[alpha] - {empty}, key=lambda Ls: tuple(pp.sort_key() for pp in Ls)
        )
        for L in legs:
            if L not in solves:
                rep, p = orbit_representative(L)
                if rep not in solves:
                    solves[rep] = solve_dtpt(rep, trunc, cache)
                solves[L] = transport_dtpt(solves[rep], p, L)
            yield alpha, L, dtpt_report(solves[L], cols)


def check_affine_implies_toric(g, beta, trunc, gammas=(), cache=None):
    """Verify I_beta / I_0 = P_beta mod q^trunc with signs induced from the
    per-chart vertex-level DT/PT solutions (empty-vertex signs fixed to
    Nekrasov's).  Raises NoConsistentSigns when a chart-level solution does
    not exist."""
    signs = {}
    chart_reports = []
    for alpha, L, rep in chart_sign_reports(g, beta, trunc, cache):
        if not rep.ok:
            if L is None:
                raise NoConsistentSigns(f"no Nekrasov signs on chart {alpha}")
            raise NoConsistentSigns(
                f"no DT/PT signs on chart {alpha} for legs "
                + ",".join(pp.render() for pp in L)
            )
        signs.update(rep.witness.mapping)
        if L is None:
            key = BoxConfig(LegModule((EMPTY_PP,) * 4), frozenset()).key()
            signs.setdefault(subst_key(g.charts[alpha]) + key, 1)
        else:
            chart_reports.append(rep)
    _collect_edge_keys(g, beta, signs, cache)
    assignment = SignAssignment(signs)
    zero_beta = (0,) * g.nclasses
    i0 = global_series(g, zero_beta, "dt", (), trunc, signs=assignment, cache=cache)
    ibeta = global_series(g, beta, "dt", gammas, trunc, signs=assignment, cache=cache)
    pbeta = global_series(g, beta, "pt", gammas, trunc, signs=assignment, cache=cache)
    diff = ibeta - i0 * pbeta
    ok = diff.is_zero()
    mismatch = None
    if not ok:
        bad = diff.lowest_order
        mismatch = {"order": bad, "residual": diff.coefficient(bad).render()}
    return {
        "ok": ok,
        "mismatch": mismatch,
        "geometry": g.name,
        "beta": list(beta),
        "N": trunc,
        "insertions": len(gammas),
        "I0": i0.to_json(),
        "Ibeta": ibeta.to_json(),
        "Pbeta": pbeta.to_json(),
        "signs": assignment.to_json(),
        "chart_checks": [r.to_json() for r in chart_reports],
    }


# ---------------------------------------------------------------------------
# the local-curve stable-pair series


def _factorial_l2_power(n):
    """n! * l2^n, the denominator of P_{n,n} on the local curve."""
    return FactoredWeightProduct(1, math.factorial(n), {(0, 1, 0): n})


def local_curve_closed_form_ab():
    """The two bracket terms of the curve-counting closed form for
    Tot_P1(O + O(-1) + O(-1)): A = (l1+l2)(l1+l3)(l2+l3)/(l1 l3 (l1+l2+l3))
    and B = l3 (l1-l2)(l1+l2+l3)/(l1 (l1+l3)(l2+l3))."""
    a = FactoredWeightProduct(
        1,
        Fraction(1),
        {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 0, 0): -1, (0, 0, 1): -1, (1, 1, 1): -1},
    ).expand()
    b = FactoredWeightProduct(
        1,
        Fraction(1),
        {(0, 0, 1): 1, (1, -1, 0): 1, (1, 1, 1): 1, (1, 0, 0): -1, (1, 0, 1): -1, (0, 1, 1): -1},
    ).expand()
    return a, b


def local_curve_full_check(d_max, trunc, nn_max=None, cache=None):
    """Local-curve stable-pair series on Tot_P1(O + O(-1) + O(-1)):
    verifies P_{n,n} = 1/(n! l2^n) exactly for n <= nn_max (default d_max),
    solves signs for P_{n,d} = 0 for d <= d_max and d < n < trunc, and
    compares the assembled two-variable curve-counting series against the
    closed exponential form."""
    g = preset_local_curve(0, -1, -1)
    lam2 = _factorial_l2_power(1).expand()
    if nn_max is None:
        nn_max = d_max
    rows = []
    ok = True
    failed_d = set()
    for d in range(1, max(d_max, nn_max) + 1):
        n_bound = trunc - 1 if d <= d_max else d
        pts = list(enumerate_global_fixed_points(g, (d,), n_bound, "pt"))
        by_chi = {}
        for fp in pts:
            by_chi.setdefault(fp.chi, []).append(fp)
        for n in sorted(by_chi):
            vals = []
            for fp in sorted(by_chi[n], key=lambda fp: fp.key()):
                _, val = fixed_point_value(g, fp, (), None, cache)
                vals.append(val)
            if n == d:
                target = (_factorial_l2_power(n) ** -1).expand()
                exact = len(vals) == 1 and vals[0] == target
                row_ok, kind, nsol = exact, "P_nn", 1 if exact else 0
            else:
                nonzero = [v for v in vals if not v.is_zero()]
                sols = solve_signed_sum(nonzero, LambdaRat.from_int(0))
                row_ok, kind, nsol = bool(sols), "P_nd_zero", len(sols)
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "fixed_points": len(vals),
                    "kind": kind,
                    "ok": row_ok,
                    "solutions": nsol,
                }
            )
            if not row_ok:
                ok = False
                failed_d.add(d)

    # Nekrasov factors of the two charts; I_0 = exp(q (c_0 + c_1)).  The
    # signs are verified at desk order; once they are, each chart's empty
    # vertex is exp(q c_alpha) with c_alpha its chart image of C.
    nek_solve = solve_nekrasov(min(4, trunc - 1), cache)
    c_total = LambdaRat.from_int(0)
    for alpha, cols in enumerate(g.charts):
        if not nekrasov_report(nek_solve, cols).ok:
            raise NoConsistentSigns(f"no Nekrasov signs on chart {alpha}")
        c_total = c_total + nekrasov_rational_subst(substitution_forms(cols))

    a, b = local_curve_closed_form_ab()
    bracket_match = (a + b) == c_total * lam2
    ok = ok and bracket_match

    # assembled I_{n,d} = c^{n-d}/(n-d)! * 1/(d! l2^d) (the solved P values)
    # against the coefficients of exp((q/l2)(y + A + B))
    corollary_ok = not failed_d
    for d in range(0, d_max + 1):
        if d in failed_d:
            continue
        for n in range(d, trunc):
            val = (c_total ** (n - d) / math.factorial(n - d)) * (
                _factorial_l2_power(d) ** -1
            ).expand()
            expect = (
                (a + b) ** (n - d) * (_factorial_l2_power(n) ** -1).expand()
            ) * math.comb(n, d)
            if not (val == expect):
                corollary_ok = False
    return {
        "ok": bool(ok),
        "geometry": g.name,
        "d_max": d_max,
        "N": trunc,
        "rows": rows,
        "bracket_match": bool(bracket_match),
        "corollary_match": bool(corollary_ok),
    }
