"""Stable-pair fixed-point combinatorics: leg modules, the region
decomposition of the quotient module M/<(1,1,1,1)>, and gravity-closed box
configurations.

The paper's restriction to at most two non-empty legs is built in: with two
legs every region-II weight space is 1-dimensional, so a box configuration
is literally a set of weights.
"""

from __future__ import annotations

from .exactalg import TLaurent
from .partitions import frontier_search

OUTSIDE = "outside"
I_PLUS = "I+"
I_MINUS = "I-"
II = "II"

_REGION_BY_COUNT = {1: I_PLUS, 2: II}
_DIMENSION = {OUTSIDE: 0, I_PLUS: 0, I_MINUS: 1, II: 1}
_BOX_WEIGHT = {I_MINUS: 1, II: 1}


class TooManyLegs(Exception):
    """Three or four non-empty legs: the stable-pair fixed locus is not
    0-dimensional and box configurations no longer describe it."""


class LegModule:
    """The module M/<(1,1,1,1)> of a CM curve with legs on up to two axes,
    described through the region classification of its weights."""

    __slots__ = ("legs", "axes")

    def __init__(self, legs):
        legs = tuple(legs)
        if len(legs) != 4:
            raise ValueError("need exactly four legs")
        axes = tuple(i for i, pp in enumerate(legs) if not pp.is_empty())
        if len(axes) > 2:
            raise TooManyLegs(f"{len(axes)} non-empty legs")
        self.legs = legs
        self.axes = axes

    def leg_contains(self, axis, w):
        """Whether w lies in Leg_axis (the coordinate w[axis] is free)."""
        pp = self.legs[axis]
        if pp.is_empty():
            return False
        coords = tuple(w[i] for i in range(4) if i != axis)
        return pp.contains_box(*coords)

    def legs_at(self, w):
        return tuple(ax for ax in self.axes if self.leg_contains(ax, w))

    def region(self, w):
        """Region name and supporting-leg axes of a weight."""
        axes = self.legs_at(w)
        if not axes:
            return OUTSIDE, axes
        if any(x < 0 for x in w):
            return I_MINUS, axes
        return _REGION_BY_COUNT[len(axes)], axes

    def weight_dimension(self, w):
        """Dimension of the weight space of M/<(1,1,1,1)> at w."""
        return _DIMENSION[self.region(w)[0]]

    def in_box_region(self, w):
        return self.region(w)[0] in _BOX_WEIGHT

    def box_weight(self, w):
        return _BOX_WEIGHT.get(self.region(w)[0], 0)

    def _ii_candidates(self):
        bound = max(
            (max(pp.nrows(), pp.ncols(), pp.max_height()) for pp in self.legs),
            default=0,
        )
        out = []
        for w1 in range(bound):
            for w2 in range(bound):
                for w3 in range(bound):
                    for w4 in range(bound):
                        w = (w1, w2, w3, w4)
                        if len(self.legs_at(w)) >= 2:
                            out.append(w)
        return out

    def candidates(self, max_depth):
        """All weights that can occur in a box configuration whose weighted
        length is at most max_depth."""
        cands = set(self._ii_candidates())
        for ax in self.axes:
            pp = self.legs[ax]
            for (u, v, h) in pp.boxes():
                cross = [u, v, h]
                for k in range(1, max_depth + 1):
                    w = cross[:ax] + [-k] + cross[ax:]
                    cands.add(tuple(w))
        return sorted(cands, reverse=True)

    def key(self):
        return ",".join(pp.render() for pp in self.legs)

    def __repr__(self):
        return f"LegModule({self.key()})"


def build_leg_module(lam, mu, nu, rho):
    """Classify the quotient module for legs along the four axes; at most
    two may be non-empty."""
    return LegModule((lam, mu, nu, rho))


class BoxConfig:
    """A finite, gravity-closed set of weights in II u I-."""

    __slots__ = ("module", "boxes")

    def __init__(self, module, boxes=frozenset()):
        self.module = module
        self.boxes = frozenset(tuple(b) for b in boxes)

    def weighted_length(self):
        return sum(self.module.box_weight(w) for w in self.boxes)

    def check_closed(self):
        """Gravity pulls in the (1,1,1,1)-direction: a region weight with a
        predecessor in the configuration must itself be present."""
        for w in self.boxes:
            if not self.module.in_box_region(w):
                raise ValueError(f"{w} is outside the box region")
            for ax in range(4):
                s = list(w)
                s[ax] += 1
                s = tuple(s)
                if self.module.in_box_region(s) and s not in self.boxes:
                    raise ValueError(f"{w} in configuration but successor {s} missing")
        return True

    def character(self):
        """Sum of t^w over the boxes (each region-II space is 1-dimensional
        in the two-leg case, so multiplicity one per weight)."""
        return TLaurent({w: 1 for w in self.boxes})

    def key(self):
        boxes = "".join(f"({a},{b},{c},{d})" for a, b, c, d in sorted(self.boxes))
        return f"pt:{self.module.key()};box:{boxes}"

    def __eq__(self, other):
        return (
            isinstance(other, BoxConfig)
            and self.module.legs == other.module.legs
            and self.boxes == other.boxes
        )

    def __hash__(self):
        return hash((self.module.legs, self.boxes))

    def __repr__(self):
        return f"BoxConfig({self.key()})"


def boxconfig_character(config):
    return config.character()


def enumerate_boxconfigs(module, max_len):
    """All gravity-closed configurations of weighted length <= max_len,
    each exactly once.

    The mirror image of ``partitions.enumerate_dt``: a depth-first search
    over the closable frontier, the weights of ``module.candidates(max_len)``
    outside the configuration whose every in-region successor is in it.
    Adding a weight opens each candidate predecessor w - e_i whose
    in-region successors are then all present, and a node's children are
    the frontier weights lexicographically smaller than the last one added
    that fit the weighted budget left, in decreasing order.  The order of
    the sequence is the order the sign solver's unknowns, and so every
    report, follow.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    empty = BoxConfig(module, frozenset())
    empty.check_closed()
    yield empty
    if max_len == 0:
        return
    cands = module.candidates(max_len)
    weights = {w: module.box_weight(w) for w in cands}
    in_box_region = module.in_box_region

    def closable(w, present):
        for ax in range(4):
            succ = w[:ax] + (w[ax] + 1,) + w[ax + 1:]
            if succ not in present and in_box_region(succ):
                return False
        return True

    def opened(w, present):
        out = []
        for ax in range(4):
            pred = w[:ax] + (w[ax] - 1,) + w[ax + 1:]
            if pred in weights and closable(pred, present):
                out.append(pred)
        return out

    frontier = [w for w in cands if closable(w, ())]
    for chosen in frontier_search(frontier, opened, weights.__getitem__, max_len, reverse=True):
        config = BoxConfig(module, chosen)
        config.check_closed()
        yield config


def oracle_submodules(module, max_len, trunc=None):
    """Brute-force invariant submodules of the truncated quotient module:
    every subset of the truncated box region that is closed under the module
    action, filtered by weighted length.  Independent check for
    enumerate_boxconfigs; agreement needs trunc >= max_len + leg extent."""
    if trunc is None:
        extent = max(
            (max(pp.nrows(), pp.ncols(), pp.max_height()) for pp in module.legs),
            default=0,
        )
        trunc = max_len + extent + 1
    region = sorted(
        w
        for w in (
            (a, b, c, d)
            for a in range(-trunc, trunc + 1)
            for b in range(-trunc, trunc + 1)
            for c in range(-trunc, trunc + 1)
            for d in range(-trunc, trunc + 1)
        )
        if module.in_box_region(w)
    )
    if len(region) > 22:
        raise ValueError(f"truncated region too large for brute force ({len(region)})")
    n = len(region)
    configs = []
    for mask in range(1 << n):
        subset = {region[i] for i in range(n) if mask >> i & 1}
        ok = True
        for w in subset:
            for ax in range(4):
                s = list(w)
                s[ax] += 1
                s = tuple(s)
                if (
                    module.in_box_region(s)
                    and all(abs(x) <= trunc for x in s)
                    and s not in subset
                ):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        config = BoxConfig(module, frozenset(subset))
        if config.weighted_length() <= max_len:
            configs.append(config)
    return configs
