import pytest

from dt4vertex.exactalg import TLaurent
from dt4vertex.partitions import EMPTY_PP, PlanePartition
from dt4vertex.ptconfig import (
    I_MINUS,
    I_PLUS,
    II,
    OUTSIDE,
    BoxConfig,
    TooManyLegs,
    boxconfig_character,
    build_leg_module,
    enumerate_boxconfigs,
    oracle_submodules,
)

BOX = PlanePartition([[1]])


def config_sets(configs):
    return sorted(tuple(sorted(c.boxes)) for c in configs)


class TestLegModule:
    def test_single_leg_regions(self):
        mod = build_leg_module(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP)
        for i in range(-3, 0):
            assert mod.region((i, 0, 0, 0)) == (I_MINUS, (0,))
        for i in range(0, 3):
            assert mod.region((i, 0, 0, 0)) == (I_PLUS, (0,))
        assert mod.region((0, 1, 0, 0)) == (OUTSIDE, ())
        assert mod.weight_dimension((-1, 0, 0, 0)) == 1
        assert mod.weight_dimension((1, 0, 0, 0)) == 0

    def test_two_leg_regions(self):
        mod = build_leg_module(BOX, BOX, EMPTY_PP, EMPTY_PP)
        assert mod.region((0, 0, 0, 0)) == (II, (0, 1))
        assert mod.weight_dimension((0, 0, 0, 0)) == 1
        for i in range(-3, 0):
            assert mod.region((i, 0, 0, 0)) == (I_MINUS, (0,))
            assert mod.region((0, i, 0, 0)) == (I_MINUS, (1,))
        assert mod.region((1, 0, 0, 0)) == (I_PLUS, (0,))

    def test_three_legs_rejected(self):
        with pytest.raises(TooManyLegs):
            build_leg_module(BOX, BOX, BOX, EMPTY_PP)
        with pytest.raises(TooManyLegs):
            build_leg_module(BOX, BOX, BOX, BOX)


class TestEnumerateBoxConfigs:
    def test_single_leg_length_one(self):
        mod = build_leg_module(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP)
        got = config_sets(enumerate_boxconfigs(mod, 1))
        assert got == [(), ((-1, 0, 0, 0),)]

    def test_length_zero(self):
        mod = build_leg_module(BOX, BOX, EMPTY_PP, EMPTY_PP)
        assert config_sets(enumerate_boxconfigs(mod, 0)) == [()]

    def test_closure_on_yield(self):
        mod = build_leg_module(PlanePartition([[2]]), BOX, EMPTY_PP, EMPTY_PP)
        for config in enumerate_boxconfigs(mod, 3):
            assert config.check_closed()
            assert config.weighted_length() <= 3

    @pytest.mark.parametrize(
        "legs,max_len",
        [
            ((BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP), 3),
            ((PlanePartition([[2]]), EMPTY_PP, EMPTY_PP, EMPTY_PP), 3),
            ((PlanePartition([[1], [1]]), EMPTY_PP, EMPTY_PP, EMPTY_PP), 3),
            ((PlanePartition([[1, 1]]), EMPTY_PP, EMPTY_PP, EMPTY_PP), 3),
            ((BOX, BOX, EMPTY_PP, EMPTY_PP), 3),
            ((BOX, EMPTY_PP, BOX, EMPTY_PP), 3),
            ((EMPTY_PP, EMPTY_PP, BOX, BOX), 3),
        ],
    )
    def test_matches_submodule_oracle(self, legs, max_len):
        mod = build_leg_module(*legs)
        ours = config_sets(enumerate_boxconfigs(mod, max_len))
        oracle = config_sets(oracle_submodules(mod, max_len, trunc=4))
        assert ours == oracle

    def test_empty_module(self):
        mod = build_leg_module(EMPTY_PP, EMPTY_PP, EMPTY_PP, EMPTY_PP)
        assert config_sets(enumerate_boxconfigs(mod, 5)) == [()]
        assert config_sets(oracle_submodules(mod, 5, trunc=2)) == [()]

    def test_axis_relabeling_invariance(self):
        lam, mu = PlanePartition([[2]]), BOX

        def census(mod):
            out = {}
            for c in enumerate_boxconfigs(mod, 3):
                out[c.weighted_length()] = out.get(c.weighted_length(), 0) + 1
            return out

        # swapping axes 1 and 2 trades the two partitions verbatim
        mod_a = build_leg_module(lam, mu, EMPTY_PP, EMPTY_PP)
        assert census(mod_a) == census(build_leg_module(mu, lam, EMPTY_PP, EMPTY_PP))
        # moving legs from axes (1,2) to (3,4) under the coordinate
        # permutation new(1,2,3,4) = old(3,4,1,2) cycles the partition indices
        mod_b = build_leg_module(
            EMPTY_PP,
            EMPTY_PP,
            lam.permuted_axes((1, 2, 0)),
            mu.permuted_axes((1, 2, 0)),
        )
        assert census(mod_a) == census(mod_b)


def enumerate_boxconfigs_scan_oracle(module, max_len):
    """Scan oracle of ``enumerate_boxconfigs``: at every node of the search
    it tries every candidate weight after the last one added, in decreasing
    order."""
    yield BoxConfig(module, frozenset())
    if max_len == 0:
        return
    cands = module.candidates(max_len)
    weights = [module.box_weight(w) for w in cands]
    chosen = []
    chosen_set = set()

    def closable(w):
        for ax in range(4):
            s = list(w)
            s[ax] += 1
            s = tuple(s)
            if module.in_box_region(s) and s not in chosen_set:
                return False
        return True

    def rec(start, used):
        for idx in range(start, len(cands)):
            w = cands[idx]
            wt = weights[idx]
            if used + wt > max_len or not closable(w):
                continue
            chosen.append(w)
            chosen_set.add(w)
            yield BoxConfig(module, frozenset(chosen))
            yield from rec(idx + 1, used + wt)
            chosen.pop()
            chosen_set.discard(w)

    yield from rec(0, 0)


class TestEnumerationSequence:
    """``enumerate_boxconfigs`` yields the scan oracle's keys in the
    oracle's order: the sign solver's unknowns, and so every report, follow
    that order."""

    def assert_same_sequence(self, legs, budgets):
        module = build_leg_module(*legs)
        for budget in budgets:
            got = [c.key() for c in enumerate_boxconfigs(module, budget)]
            want = [c.key() for c in enumerate_boxconfigs_scan_oracle(module, budget)]
            assert got == want, (legs, budget)

    def test_criterion_2a_leg_sets(self):
        from test_acceptance import leg_tuples

        for legs in leg_tuples(2):
            self.assert_same_sequence(legs, range(5))

    def test_two_legs_of_three_and_one_boxes(self):
        self.assert_same_sequence(
            (PlanePartition([[2, 1], [1]]), BOX, EMPTY_PP, EMPTY_PP), range(5))


class TestBoxConfigCharacter:
    def test_examples(self):
        mod2 = build_leg_module(BOX, BOX, EMPTY_PP, EMPTY_PP)
        assert boxconfig_character(BoxConfig(mod2, frozenset())) == TLaurent.zero()
        assert boxconfig_character(
            BoxConfig(mod2, {(0, 0, 0, 0)})
        ) == TLaurent.one()
        mod1 = build_leg_module(BOX, EMPTY_PP, EMPTY_PP, EMPTY_PP)
        assert boxconfig_character(
            BoxConfig(mod1, {(-1, 0, 0, 0)})
        ) == TLaurent({(-1, 0, 0, 0): 1})

    def test_weighted_length_two_leg_case(self):
        mod = build_leg_module(BOX, BOX, EMPTY_PP, EMPTY_PP)
        cfg = BoxConfig(mod, {(0, 0, 0, 0), (-1, 0, 0, 0)})
        assert cfg.weighted_length() == 2
