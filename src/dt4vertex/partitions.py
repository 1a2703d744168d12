"""Plane and solid partitions.

Solid partitions are stored as four asymptotic plane-partition legs plus a
finite set of boxes added strictly above the Cohen-Macaulay completion; the
dense array view is derived on demand inside a bounding box.  All box
coordinates are 0-based: a box (a, b, c, d) is the monomial
x1^a x2^b x3^c x4^d.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass


class PlanePartition:
    """Finite plane partition, stored as rows of weakly decreasing heights."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(tuple(int(x) for x in r) for r in rows if r)
        for i, row in enumerate(rows):
            if any(x <= 0 for x in row):
                raise ValueError("heights must be positive")
            if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("rows must be weakly decreasing")
            if i + 1 < len(rows):
                nxt = rows[i + 1]
                if len(nxt) > len(row) or any(row[j] < nxt[j] for j in range(len(nxt))):
                    raise ValueError("columns must be weakly decreasing")
        self.rows = rows

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def parse(cls, text):
        """Parse the row-list form, e.g. "[[2,1],[1]]": a JSON list of rows,
        each a list of JSON integers.  Anything else raises ValueError."""
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in rows
        ):
            raise ValueError(f"a leg must be a JSON list of rows of integers, not {text!r}")
        return cls(rows)

    @classmethod
    def from_boxes(cls, boxes):
        heights = {}
        for (i, j, k) in boxes:
            heights[(i, j)] = max(heights.get((i, j), 0), k + 1)
        if not heights:
            return cls()
        nrows = max(i for i, _ in heights) + 1
        rows = []
        for i in range(nrows):
            ncols = max((j for (a, j) in heights if a == i), default=-1) + 1
            rows.append([heights.get((i, j), 0) for j in range(ncols)])
        pp = cls(rows)
        if pp.size() != len(set(map(tuple, boxes))):
            raise ValueError("box set is not the box set of a plane partition")
        return pp

    def is_empty(self):
        return not self.rows

    def size(self):
        return sum(sum(r) for r in self.rows)

    def nrows(self):
        return len(self.rows)

    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def max_height(self):
        return self.rows[0][0] if self.rows else 0

    def height(self, i, j):
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    def boxes(self):
        for i, row in enumerate(self.rows):
            for j, h in enumerate(row):
                for k in range(h):
                    yield (i, j, k)

    def box_set(self):
        return frozenset(self.boxes())

    def contains_box(self, i, j, k):
        return k >= 0 and i >= 0 and j >= 0 and k < self.height(i, j)

    def permuted_axes(self, perm):
        """Apply a permutation of the three box coordinates: new coordinate
        r is the old coordinate perm[r]."""
        return PlanePartition.from_boxes(
            {(b[perm[0]], b[perm[1]], b[perm[2]]) for b in self.boxes()}
        )

    def render(self):
        """The row-list form, e.g. "[[2,1],[1]]": the compact JSON of the rows."""
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in self.rows) + "]"

    def sort_key(self):
        return (self.size(), self.rows)

    def __eq__(self, other):
        return isinstance(other, PlanePartition) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"PlanePartition({self.render()})"


EMPTY_PP = PlanePartition()


@dataclass(frozen=True)
class EdgeData:
    """Normal-bundle degrees (m, m', m'') of an invariant line; the
    Calabi-Yau condition forces m + m' + m'' = -2."""

    m: int
    mp: int
    mpp: int

    def __post_init__(self):
        if self.m + self.mp + self.mpp != -2:
            raise ValueError("normal degrees must sum to -2")

    def as_tuple(self):
        return (self.m, self.mp, self.mpp)


def f_statistic(pp, e):
    """chi of the pp-thickened invariant line with normal degrees e:
    sum over boxes of 1 - m(i-1) - m'(j-1) - m''(k-1)."""
    m, mp, mpp = e.as_tuple() if isinstance(e, EdgeData) else e
    total = 0
    for (a, b, c) in pp.boxes():
        total += 1 - m * a - mp * b - mpp * c
    return total


class SolidPartition:
    """Solid partition with asymptotic legs (lam, mu, nu, rho) along axes
    1..4 and a finite set of boxes added above the CM completion."""

    __slots__ = ("legs", "added")

    def __init__(self, legs, added=frozenset()):
        legs = tuple(legs)
        if len(legs) != 4:
            raise ValueError("need exactly four legs")
        self.legs = legs
        self.added = frozenset(tuple(b) for b in added)

    # -- membership

    def cm_contains(self, box):
        a, b, c, d = box
        if a < 0 or b < 0 or c < 0 or d < 0:
            return False
        lam, mu, nu, rho = self.legs
        if c < rho.height(a, b):
            return True
        h = lam.height(b, c)
        h2 = mu.height(a, c)
        if h2 > h:
            h = h2
        h3 = nu.height(a, b)
        if h3 > h:
            h = h3
        return d < h

    def contains(self, box):
        return self.cm_contains(box) or tuple(box) in self.added

    def legs_at(self, box):
        """Axes (0-based) of the legs whose cylinder contains the box."""
        a, b, c, d = box
        lam, mu, nu, rho = self.legs
        out = []
        if d < lam.height(b, c):
            out.append(0)
        if d < mu.height(a, c):
            out.append(1)
        if d < nu.height(a, b):
            out.append(2)
        if c < rho.height(a, b):
            out.append(3)
        return out

    # -- shape data

    def n_added(self):
        return len(self.added)

    def multi_leg_bounds(self):
        """Componentwise bounds such that every box lying in two or more legs
        has coordinates strictly below them."""
        lam, mu, nu, rho = self.legs
        return (
            max(mu.nrows(), nu.nrows(), rho.nrows()),
            max(lam.nrows(), nu.ncols(), rho.ncols()),
            max(lam.ncols(), mu.ncols(), rho.max_height()),
            max(lam.max_height(), mu.max_height(), nu.max_height()),
        )

    def multi_leg_boxes(self):
        """Finite list of (box, number of legs) with >= 2 legs."""
        A, B, C, D = self.multi_leg_bounds()
        out = []
        for a in range(A):
            for b in range(B):
                for c in range(C):
                    for d in range(D):
                        k = len(self.legs_at((a, b, c, d)))
                        if k >= 2:
                            out.append(((a, b, c, d), k))
        return out

    def renormalized_volume(self):
        """Box count where a box lying in k legs contributes 1 - k."""
        total = len(self.added)
        for _, k in self.multi_leg_boxes():
            total += 1 - k
        return total

    def validate(self):
        """Monotonicity of the implied array plus leg/CM discipline of the
        added boxes; raises on violation."""
        for box in self.added:
            if self.cm_contains(box):
                raise ValueError(f"added box {box} lies in the CM completion")
            if self.legs_at(box):
                raise ValueError(f"added box {box} lies in a leg")
            a, b, c, d = box
            for ax in range(4):
                pred = list(box)
                pred[ax] -= 1
                if pred[ax] >= 0 and not self.contains(tuple(pred)):
                    raise ValueError(f"box {box} misses predecessor {tuple(pred)}")
        return True

    def key(self):
        legs = ",".join(pp.render() for pp in self.legs)
        boxes = "".join(f"({a},{b},{c},{d})" for a, b, c, d in sorted(self.added))
        return f"dt:{legs};add:{boxes}"

    def __eq__(self, other):
        return (
            isinstance(other, SolidPartition)
            and self.legs == other.legs
            and self.added == other.added
        )

    def __hash__(self):
        return hash((self.legs, self.added))

    def __repr__(self):
        return f"SolidPartition({self.key()})"


def cm_complete(lam, mu, nu, rho):
    """The minimal solid partition with the given asymptotic legs."""
    return SolidPartition((lam, mu, nu, rho))


def renormalized_volume(sp):
    return sp.renormalized_volume()


def renormalized_volume_truncated(sp, bound):
    """Direct summation of (1 - #legs) over boxes in [0, bound)^4; stabilizes
    once bound exceeds the finite bounding data."""
    total = 0
    for a in range(bound):
        for b in range(bound):
            for c in range(bound):
                for d in range(bound):
                    box = (a, b, c, d)
                    if sp.contains(box):
                        total += 1 - len(sp.legs_at(box))
    return total


def frontier_search(frontier, opened, weight, budget, reverse=False):
    """Depth-first search over the box sets grown one addable box at a time.

    ``frontier`` lists the boxes addable to the empty set in the search
    order: increasing, or decreasing when ``reverse``.  ``opened(box,
    chosen)`` lists those that become addable once ``box`` has joined the
    set ``chosen``; adding a box takes nothing else off the frontier.
    ``weight(box)`` is what a box costs of ``budget``.  A node's children
    are the frontier boxes after its last box in the search order that fit
    the budget left, so every set is reached along exactly one path, in the
    order of a scan that tries every candidate box after the last one added.

    Yields the list of the boxes added, in the order added, at every node
    but the root.  The list is the search's own: copy it before resuming.
    """
    chosen = []
    present = set()

    def rec(cands, left):
        for i, box in enumerate(cands):
            chosen.append(box)
            present.add(box)
            yield chosen
            rest = left - weight(box)
            kids = cands[i + 1:]
            new = opened(box, present)
            if new:
                kids = sorted(kids + new, reverse=reverse)
            kids = [b for b in kids if weight(b) <= rest]
            if kids:
                yield from rec(kids, rest)
            chosen.pop()
            present.discard(box)

    yield from rec([b for b in frontier if weight(b) <= budget], budget)


def enumerate_dt(lam, mu, nu, rho, max_added):
    """All solid partitions with the given legs and at most max_added boxes
    above the CM completion, each exactly once.

    A depth-first search over the addable frontier: the boxes inside the
    bounds, outside the CM completion and the added set, whose every
    lattice predecessor is present.  Adding a box opens each successor
    box + e_i inside the bounds whose predecessors are then all present, and
    a node's children are the frontier boxes lexicographically greater than
    the last box added, in increasing order.  The order of the sequence is
    the order the sign solver's unknowns, and so every report, follow.
    """
    if max_added < 0:
        raise ValueError("max_added must be >= 0")
    cm = SolidPartition((lam, mu, nu, rho))
    yield cm
    if max_added == 0:
        return
    # Beyond multi_leg_bounds the CM membership along each axis has
    # stabilized, so an added box needs a predecessor chain of added boxes
    # from there; max_added bounds the reach.
    bounds = tuple(x + max_added for x in cm.multi_leg_bounds())
    legs = cm.legs
    cm_contains = cm.cm_contains

    def addable(box, present):
        for ax in range(4):
            if box[ax]:
                pred = box[:ax] + (box[ax] - 1,) + box[ax + 1:]
                if pred not in present and not cm_contains(pred):
                    return False
        return True

    def opened(box, present):
        out = []
        for ax in range(4):
            if box[ax] + 1 < bounds[ax]:
                succ = box[:ax] + (box[ax] + 1,) + box[ax + 1:]
                if addable(succ, present):
                    out.append(succ)
        return out

    # A box b addable to the CM completion with b_j > 0 has b - e_j in a leg
    # other than leg j, so b_j <= multi_leg_bounds()[j] < bounds[j].
    frontier = [
        box
        for box in itertools.product(*(range(x + 1) for x in cm.multi_leg_bounds()))
        if not cm_contains(box) and addable(box, ())
    ]
    for added in frontier_search(frontier, opened, lambda box: 1, max_added):
        sp = SolidPartition(legs, added)
        sp.validate()
        yield sp


def enumerate_pointlike(n):
    """All point-like solid partitions of size exactly n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    e = EMPTY_PP
    for sp in enumerate_dt(e, e, e, e, n):
        if sp.n_added() == n:
            yield sp


# ---------------------------------------------------------------------------
# enumeration of small partitions (used for legs and for CM curve data)


def partitions_of(n):
    """Ordinary partitions of n as weakly decreasing tuples."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def _subpartitions(bound):
    """All partitions fitting pointwise under the partition ``bound``."""
    out = []

    def rec(idx, prev, prefix):
        out.append(tuple(prefix))
        if idx >= len(bound):
            return
        cap = min(bound[idx], prev)
        for p in range(1, cap + 1):
            prefix.append(p)
            rec(idx + 1, p, prefix)
            prefix.pop()

    rec(0, bound[0] if bound else 0, [])
    return out


def plane_partitions_of(n):
    """Plane partitions of size exactly n, as chains of row partitions."""
    if n == 0:
        return [EMPTY_PP]
    out = []

    def rec(prev_row, remaining, rows):
        if remaining == 0:
            out.append(PlanePartition(rows))
            return
        if prev_row is None:
            cands = [p for s in range(1, remaining + 1) for p in partitions_of(s)]
        else:
            cands = [p for p in _subpartitions(prev_row) if 0 < sum(p) <= remaining]
        for row in cands:
            rows.append(row)
            rec(row, remaining - sum(row), rows)
            rows.pop()

    rec(None, n, [])
    out.sort()
    return out


# ---------------------------------------------------------------------------
# independent oracles (slice-chain decompositions along axis 1)


def _pp_supersets(base, extra_max):
    """Plane-partition box sets containing ``base`` with at most extra_max
    extra boxes, via predecessor-closed box additions."""
    base_set = set(base.box_set())
    bounds = (
        base.nrows() + extra_max,
        base.ncols() + extra_max,
        base.max_height() + extra_max,
    )
    cands = sorted(
        (i, j, k)
        for i in range(bounds[0])
        for j in range(bounds[1])
        for k in range(bounds[2])
        if (i, j, k) not in base_set
    )
    results = [frozenset(base_set)]
    cur = set(base_set)

    def ok(b):
        for ax in range(3):
            if b[ax] == 0:
                continue
            p = list(b)
            p[ax] -= 1
            if tuple(p) not in cur:
                return False
        return True

    def rec(start, budget):
        for idx in range(start, len(cands)):
            b = cands[idx]
            if b in cur or not ok(b):
                continue
            cur.add(b)
            results.append(frozenset(cur))
            if budget > 1:
                rec(idx + 1, budget - 1)
            cur.discard(b)

    if extra_max > 0:
        rec(0, extra_max)
    return results


def oracle_pointlike_boxsets(n):
    """Point-like solid partitions of size n as box sets, enumerated
    independently as chains of plane-partition slices along axis 1."""
    if n == 0:
        return [frozenset()]
    pp_cache = {s: [pp.box_set() for pp in plane_partitions_of(s)] for s in range(1, n + 1)}
    out = []

    def rec(prev, remaining, slices):
        if remaining == 0:
            boxes = frozenset(
                (a, b, c, d) for a, sl in enumerate(slices) for (b, c, d) in sl
            )
            out.append(boxes)
            return
        cap = min(remaining, len(prev) if prev is not None else remaining)
        for s in range(1, cap + 1):
            for sl in pp_cache[s]:
                if prev is not None and not sl <= prev:
                    continue
                slices.append(sl)
                rec(sl, remaining - s, slices)
                slices.pop()

    rec(None, n, [])
    return out


def oracle_dt_leg1_added(lam, max_added):
    """Added-box sets of solid partitions with single leg lam on axis 1 and
    at most max_added added boxes, via slice chains of supersets of lam."""
    base = lam.box_set()
    results = {frozenset()}

    def rec(prev, budget, slices):
        boxes = set()
        for a, sl in enumerate(slices):
            boxes.update((a, b, c, d) for (b, c, d) in sl - base)
        results.add(frozenset(boxes))
        if budget == 0:
            return
        for sl in _pp_supersets(lam, budget):
            extra = len(sl) - len(base)
            if extra == 0 or extra > budget:
                continue
            if prev is not None and not sl <= prev:
                continue
            slices.append(sl)
            rec(sl, budget - extra, slices)
            slices.pop()

    rec(None, max_added, [])
    return results
