import json
import random

import pytest

from dt4vertex.partitions import (
    EMPTY_PP,
    EdgeData,
    PlanePartition,
    SolidPartition,
    cm_complete,
    enumerate_dt,
    enumerate_pointlike,
    f_statistic,
    oracle_dt_leg1_added,
    oracle_pointlike_boxsets,
    partitions_of,
    plane_partitions_of,
    renormalized_volume,
    renormalized_volume_truncated,
)

BOX = PlanePartition([[1]])


class TestPlanePartition:
    def test_parse_render_roundtrip(self):
        for text in ("[]", "[[1]]", "[[2,1],[1]]", "[[3,1],[2],[1]]"):
            assert PlanePartition.parse(text).render() == text

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            PlanePartition([[1, 2]])
        with pytest.raises(ValueError):
            PlanePartition([[1], [2]])
        with pytest.raises(ValueError):
            PlanePartition([[1], [1, 1]])

    def test_boxes_and_from_boxes(self):
        pp = PlanePartition([[2, 1], [1]])
        assert PlanePartition.from_boxes(pp.box_set()) == pp
        assert pp.size() == 4

    def test_counts(self):
        # plane partition counts 1, 1, 3, 6, 13
        for n, count in enumerate([1, 1, 3, 6, 13]):
            assert len(plane_partitions_of(n)) == count
        assert len(partitions_of(5)) == 7

    def test_permuted_axes(self):
        pp = PlanePartition([[2, 1], [1]])
        assert pp.permuted_axes((0, 1, 2)) == pp
        twice = pp.permuted_axes((1, 2, 0)).permuted_axes((2, 0, 1))
        assert twice == pp


class TestCmComplete:
    def test_all_empty(self):
        sp = cm_complete(EMPTY_PP, EMPTY_PP, EMPTY_PP, EMPTY_PP)
        assert not sp.cm_contains((0, 0, 0, 0))
        assert sp.renormalized_volume() == 0

    def test_single_leg_row(self):
        sp = cm_complete(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP)
        for a in range(7):
            assert sp.cm_contains((a, 0, 0, 0))
        assert not sp.cm_contains((0, 1, 0, 0))
        assert not sp.cm_contains((0, 0, 0, 1))

    def test_two_one_box_legs(self):
        sp = cm_complete(BOX, BOX, EMPTY_PP, EMPTY_PP)
        for i in range(5):
            assert sp.cm_contains((i, 0, 0, 0))
            assert sp.cm_contains((0, i, 0, 0))
        assert not sp.cm_contains((1, 1, 0, 0))

    def test_permutation_invariance(self):
        # permuting (lam, mu, nu) together with the coordinate permutation
        # fixing axis 4 leaves the completion invariant
        lam, mu, nu = (
            PlanePartition([[2, 1]]),
            PlanePartition([[1], [1]]),
            PlanePartition([[1]]),
        )
        base = cm_complete(lam, mu, nu, EMPTY_PP)
        # swap axes 1 and 2: lam and mu trade places, nu transposes
        swapped = cm_complete(mu, lam, nu.permuted_axes((1, 0, 2)), EMPTY_PP)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        assert base.cm_contains((a, b, c, d)) == swapped.cm_contains(
                            (b, a, c, d)
                        )


class TestRenormalizedVolume:
    def test_pointlike(self):
        sp = SolidPartition(
            (EMPTY_PP,) * 4, {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)}
        )
        assert renormalized_volume(sp) == 3

    def test_single_leg_zero(self):
        assert cm_complete(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP).renormalized_volume() == 0

    def test_two_legs_minus_one(self):
        sp = cm_complete(BOX, BOX, EMPTY_PP, EMPTY_PP)
        assert sp.renormalized_volume() == -1
        # direct truncated summation stabilizes to the same value
        assert renormalized_volume_truncated(sp, 6) == -1
        assert renormalized_volume_truncated(sp, 8) == -1

    def test_truncated_oracle_more_legs(self):
        sp = cm_complete(PlanePartition([[2]]), BOX, BOX, BOX)
        v = sp.renormalized_volume()
        assert renormalized_volume_truncated(sp, 7) == v
        assert renormalized_volume_truncated(sp, 9) == v

    def test_added_boxes_shift(self):
        for sp in enumerate_dt(BOX, BOX, EMPTY_PP, EMPTY_PP, 2):
            cm = SolidPartition(sp.legs)
            assert sp.renormalized_volume() == cm.renormalized_volume() + sp.n_added()


class TestEnumerateDT:
    def test_pointlike_counts(self):
        for n, count in [(0, 1), (1, 1), (2, 4), (3, 10), (4, 26)]:
            assert sum(1 for _ in enumerate_pointlike(n)) == count

    def test_pointlike_against_slice_oracle(self):
        for n in range(5):
            ours = sorted(
                tuple(sorted(sp.added)) for sp in enumerate_pointlike(n)
            )
            oracle = sorted(tuple(sorted(b)) for b in oracle_pointlike_boxsets(n))
            assert ours == oracle

    def test_agrees_with_pointlike_at_every_size(self):
        e = EMPTY_PP
        by_size = {}
        for sp in enumerate_dt(e, e, e, e, 4):
            by_size.setdefault(sp.n_added(), set()).add(sp.added)
        for n in range(5):
            assert by_size.get(n, set()) == {
                sp.added for sp in enumerate_pointlike(n)
            }

    def test_single_leg_max0(self):
        out = list(enumerate_dt(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP, 0))
        assert out == [cm_complete(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP)]

    def test_single_leg_against_oracle(self):
        for lam in (BOX, PlanePartition([[2]]), PlanePartition([[1], [1]])):
            for budget in (1, 2):
                ours = {sp.added for sp in enumerate_dt(lam, EMPTY_PP, EMPTY_PP, EMPTY_PP, budget)}
                oracle = oracle_dt_leg1_added(lam, budget)
                assert ours == oracle

    def test_no_duplicates_and_valid(self):
        seen = set()
        for sp in enumerate_dt(BOX, EMPTY_PP, BOX, EMPTY_PP, 2):
            assert sp.added not in seen
            seen.add(sp.added)
            sp.validate()

    def test_rho_leg_enumeration(self):
        out = list(enumerate_dt(EMPTY_PP, EMPTY_PP, EMPTY_PP, BOX, 1))
        for sp in out:
            sp.validate()
        assert len(out) >= 2


def enumerate_dt_scan_oracle(lam, mu, nu, rho, max_added):
    """Scan oracle of ``enumerate_dt``: at every node of the search it tries
    every candidate box of the bounding region after the last box added."""
    cm = SolidPartition((lam, mu, nu, rho))
    yield cm
    if max_added == 0:
        return
    bounds = tuple(x + max_added for x in cm.multi_leg_bounds())
    candidates = [
        (a, b, c, d)
        for a in range(bounds[0])
        for b in range(bounds[1])
        for c in range(bounds[2])
        for d in range(bounds[3])
        if not cm.cm_contains((a, b, c, d))
    ]
    candidates.sort()
    added = []
    added_set = set()

    def addable(box):
        for ax in range(4):
            if box[ax] == 0:
                continue
            pred = list(box)
            pred[ax] -= 1
            pred = tuple(pred)
            if pred not in added_set and not cm.cm_contains(pred):
                return False
        return True

    def rec(start):
        for idx in range(start, len(candidates)):
            box = candidates[idx]
            if not addable(box):
                continue
            added.append(box)
            added_set.add(box)
            yield SolidPartition(cm.legs, frozenset(added))
            if len(added) < max_added:
                yield from rec(idx + 1)
            added.pop()
            added_set.discard(box)

    yield from rec(0)


def keys(fixed_points):
    return [fp.key() for fp in fixed_points]


class TestEnumerationSequence:
    """``enumerate_dt`` yields the scan oracle's keys in the oracle's order:
    the sign solver's unknowns, and so every report, follow that order."""

    @pytest.mark.parametrize("max_added", range(7))
    def test_empty_legs(self, max_added):
        legs = (EMPTY_PP,) * 4
        assert keys(enumerate_dt(*legs, max_added)) == keys(
            enumerate_dt_scan_oracle(*legs, max_added))

    def test_criterion_2a_leg_sets(self):
        from test_acceptance import leg_tuples

        for legs in leg_tuples(2):
            for budget in range(5):
                assert keys(enumerate_dt(*legs, budget)) == keys(
                    enumerate_dt_scan_oracle(*legs, budget)), (legs, budget)

    @pytest.mark.parametrize(
        "legs",
        [
            (PlanePartition([[2, 1], [1]]), BOX, EMPTY_PP, EMPTY_PP),
            (PlanePartition([[1, 1]]), BOX, PlanePartition([[2]]), EMPTY_PP),
            (BOX, BOX, BOX, BOX),
        ],
        ids=["3+1", "2+1+2", "1+1+1+1"],
    )
    def test_larger_legs(self, legs):
        for budget in range(5):
            assert keys(enumerate_dt(*legs, budget)) == keys(
                enumerate_dt_scan_oracle(*legs, budget))


class TestRender:
    def test_equals_compact_json(self):
        for n in range(7):
            for pp in plane_partitions_of(n):
                want = json.dumps([list(r) for r in pp.rows], separators=(",", ":"))
                assert pp.render() == want
                assert PlanePartition.parse(pp.render()) == pp


class TestFStatistic:
    def test_single_box(self):
        for e in [(1, -1, -2), (0, -1, -1), (-1, -1, 0)]:
            assert f_statistic(BOX, EdgeData(*e)) == 1

    def test_height_two_column(self):
        lam = PlanePartition([[2]])
        assert f_statistic(lam, EdgeData(1, -1, -2)) == 4

    def test_two_box_row(self):
        lam = PlanePartition([[1], [1]])
        assert f_statistic(lam, EdgeData(0, -1, -1)) == 2

    def test_zero_degrees_not_allowed(self):
        with pytest.raises(ValueError):
            EdgeData(0, 0, 0)

    def test_size_at_zero_degrees(self):
        rng = random.Random(3)
        for pp in plane_partitions_of(4):
            assert f_statistic(pp, (0, 0, 0)) == pp.size()
        for _ in range(5):
            pp = rng.choice(plane_partitions_of(rng.randint(0, 4)))
            assert f_statistic(pp, (0, 0, 0)) == pp.size()
