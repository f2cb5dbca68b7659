"""argmax sets, level correspondences, monotone-correspondence checkers."""
from fractions import Fraction

import pytest

from latgames import (
    Correspondence,
    LatticeFunction,
    argmax_set,
    classify_subset,
    is_increasing_strong_set_order,
    is_increasing_weak_veinott,
    is_quasisupermodular,
    level_correspondence,
    max_selection,
    verify_kuku,
)
from latgames.errors import EmptyValue, NoGreatestElement
from latgames.generators import (
    all_lattices,
    chain_lattice,
    fraction_chain,
    random_function,
)
from latgames.lattice import poset_from_covers
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL

CHAIN2 = (0b11, 0b10)  # up-rows of the two-element chain index 0 < 1


def value_masks(L, keys, up, values):
    """A correspondence whose values are given as label tuples."""
    return Correspondence(L, keys, up, [L.subset_mask(v) for v in values])


class TestArgmaxSet:
    def test_star_function_drops_low_midpoint(self, star_function):
        assert argmax_set(star_function) == ("M", "m", "x2", "x3", "x4", "x5")

    def test_constant_gives_whole_domain(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 3))
        assert argmax_set(f) == diamond_lattice.labels

    def test_parabola_section_peaks_at_one_half(self):
        grid6 = fraction_chain([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                                Fraction(2, 3), Fraction(5, 6), 1])
        table = {l: 2 * (Fraction(l) - Fraction(l) ** 2) for l in grid6.labels}
        f = LatticeFunction(grid6, RATIONAL, table)
        assert max(table.values()) == Fraction(1, 2)
        assert argmax_set(f) == ("1/2",)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = Xoshiro256StarStar(31)
        for L in all_lattices(4):
            f = random_function(rng, L, "rejection", values=(0, 1, 2))
            assert argmax_set(f.transform(lambda v: v ** 3 + 1)) == argmax_set(f)


class TestLevelCorrespondence:
    def test_star_levels(self, star_function):
        F = level_correspondence(star_function)
        L = star_function.domain
        assert F.keys == (Fraction(0), Fraction(1))
        assert F.up == (0b11, 0b10)
        assert L.labels_of(F.masks[0]) == L.labels
        assert L.labels_of(F.masks[1]) == ("M", "m", "x2", "x3", "x4", "x5")

    def test_constant_single_level(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 2))
        F = level_correspondence(f)
        assert (F.keys, F.up, F.masks) == ((Fraction(2),), (1,), (diamond_lattice.full,))

    def test_injective_chain_nested_levels(self):
        c = chain_lattice(3)
        f = LatticeFunction(c, RATIONAL, {"c0": 0, "c1": 1, "c2": 2})
        F = level_correspondence(f)
        masks = F.masks
        assert len(masks) == 3
        for small, large in zip(masks[1:], masks):
            assert small & ~large == 0  # antitone nesting

    def test_levels_antitone_and_chain_subcomplete(self):
        rng = Xoshiro256StarStar(77)
        for _ in range(30):
            L = all_lattices(5)[rng.below(len(all_lattices(5)))]
            f = random_function(rng, L, "rejection", values=(0, 1, 2, 3))
            F = level_correspondence(f)
            for lo, hi in zip(F.masks, F.masks[1:]):
                assert hi & ~lo == 0
            for mask in F.masks:
                flags = classify_subset(L, L.labels_of(mask))
                assert flags.is_chain_subcomplete.holds


class TestWeakVeinott:
    def test_quasisupermodular_levels_are_increasing(self):
        rng = Xoshiro256StarStar(4242)
        lattices = all_lattices(5)
        for _ in range(150):
            L = lattices[rng.below(len(lattices))]
            f = random_function(rng, L, "rejection", values=(0, 1, 2))
            assert is_increasing_weak_veinott(level_correspondence(f)).holds

    def test_veinott_example_levels_pass(self, veinott_function):
        # The joint function fails quasisupermodularity only through its weak
        # clause at equality, which the weak-Veinott premise never reaches, so
        # level-set monotonicity still holds for this instance.
        assert not is_quasisupermodular(veinott_function).holds
        assert is_increasing_weak_veinott(level_correspondence(veinott_function)).holds

    def test_strict_failure_with_slack_breaks_monotonicity(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, {"0": 0, "a": 2, "b": 1, "1": 1})
        verdict = is_increasing_weak_veinott(level_correspondence(f))
        assert not verdict.holds
        w = verdict.witness_dict()
        assert (w["c"], w["c2"]) == (Fraction(1), Fraction(2))
        assert {w["x"], w["x2"]} == {"a", "b"}

    def test_constant_correspondence(self, diamond_lattice):
        full = diamond_lattice.full
        F = Correspondence(diamond_lattice, (0, 1), CHAIN2, (full, full))
        assert is_increasing_weak_veinott(F).holds

    def test_empty_value_rejected(self, diamond_lattice):
        F = value_masks(diamond_lattice, (0, 1), CHAIN2, [("a",), ()])
        with pytest.raises(EmptyValue, match="^value at index 1 is empty$"):
            is_increasing_weak_veinott(F)
        with pytest.raises(EmptyValue, match="^value at index 1 is empty$"):
            is_increasing_strong_set_order(F)

    def test_non_chain_index_rejected(self, diamond_lattice):
        F = value_masks(diamond_lattice, ("a", "b"), (0b01, 0b10), [("0",), ("1",)])
        with pytest.raises(ValueError, match="^the weak Veinott check needs a chain index$"):
            is_increasing_weak_veinott(F)

    def test_chain_index_listed_as_poset_rows_is_a_chain(self, diamond_lattice):
        index = poset_from_covers(["lo", "hi"], [("hi", "lo")])  # "hi" < "lo"
        F = value_masks(diamond_lattice, index.labels, index.up, [("0",), ("1",)])
        assert F.up == CHAIN2
        assert is_increasing_weak_veinott(F).holds

    def test_rows_and_masks_must_match_the_keys(self, diamond_lattice):
        with pytest.raises(ValueError, match="one entry per index element"):
            Correspondence(diamond_lattice, (0, 1), CHAIN2, (1,))


class TestStrongSetOrder:
    def test_two_point_index_diamond_counterexample(self, diamond_lattice):
        G = value_masks(diamond_lattice, (0, 1), CHAIN2, [("0",), ("a", "b")])
        verdict = is_increasing_strong_set_order(G)
        assert not verdict.holds
        w = verdict.witness_dict()
        assert (w["x"], w["x2"]) == ("a", "b")  # the reflexive pair at the top index
        with pytest.raises(NoGreatestElement):
            max_selection(G)

    def test_constant_correspondence_monotone(self, diamond_lattice):
        G = value_masks(diamond_lattice, (0, 1), CHAIN2, [("0", "a"), ("0", "a")])
        assert is_increasing_strong_set_order(G).holds
        sel = max_selection(G)
        assert sel == {0: "a", 1: "a"}

    def test_max_selection_monotone_when_order_holds(self, diamond_lattice):
        G = value_masks(diamond_lattice, (0, 1, 2), (0b111, 0b110, 0b100),
                        [("0", "a"), ("a",), ("a", "1")])
        assert is_increasing_strong_set_order(G).holds
        sel = max_selection(G)
        assert diamond_lattice.leq(sel[0], sel[1]) and diamond_lattice.leq(sel[1], sel[2])

    def test_poset_index(self, diamond_lattice):
        index = poset_from_covers(["lo", "hi"], [("lo", "hi")])
        G = value_masks(diamond_lattice, index.labels, index.up, [("1",), ("0",)])
        assert is_increasing_strong_set_order(G).holds

    def test_antichain_index_checks_only_reflexive_pairs(self, diamond_lattice):
        G = value_masks(diamond_lattice, ("s", "t"), (0b01, 0b10), [("1",), ("0",)])
        assert is_increasing_strong_set_order(G).holds
        G = value_masks(diamond_lattice, ("s", "t"), (0b01, 0b10), [("1",), ("a", "b")])
        assert is_increasing_strong_set_order(G).witness == (
            ("s", "t"), ("s2", "t"), ("x", "a"), ("x2", "b"), ("op", "meet"), ("value", "0"))


class TestVerifyKuku:
    def test_star_function_report(self, star_function):
        report = verify_kuku(star_function)
        assert report.premises_hold
        assert report.argmax == ("M", "m", "x2", "x3", "x4", "x5")
        assert report.conclusion_holds

    def test_star_function_is_supermodular_and_order_usc(self, star_function):
        from latgames import is_order_upper_semicontinuous, is_supermodular

        assert is_supermodular(star_function).holds
        assert is_order_upper_semicontinuous(star_function).holds

    def test_constant_trivial(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 0))
        report = verify_kuku(f)
        assert report.premises_hold and report.conclusion_holds

    def test_failed_premise_still_reports_conclusion(self, sum_f, sum_g):
        h = sum_f + sum_g
        report = verify_kuku(h)
        assert not report.quasisupermodular.holds
        assert report.argmax == ("(3,2)",)
        assert report.conclusion_holds  # sufficient, not necessary

    def test_exhaustive_small_instances_never_falsify(self):
        from conftest import all_functions

        values = [Fraction(v) for v in (0, 1, 2)]
        for L in all_lattices(4):
            for f in all_functions(L, values):
                report = verify_kuku(f)  # raises TheoremFalsified on violation
                if report.premises_hold:
                    assert report.conclusion_holds
