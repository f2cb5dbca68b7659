"""order-property checkers: worked counterexamples, implications, invariances."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgames import (
    ChainCodomain,
    LatticeFunction,
    discrete_closed_family,
    explicit_closed_family,
    has_increasing_differences,
    interval_closed_family,
    is_order_upper_semicontinuous,
    is_quasisupermodular,
    is_single_crossing,
    is_supermodular,
    is_topologically_usc,
    is_upper_chain_subcomplete,
    product_lattice,
    sections_quasisupermodular,
    transfer_continuity,
)
from latgames.errors import (
    CarrierMismatch,
    DomainMismatch,
    InvariantViolation,
    LabeledCodomainUnsupported,
    NotAProductDomain,
    NotStrictlyIncreasing,
)
from latgames.functions import image_map
from latgames.generators import (
    all_lattices,
    chain_lattice,
    diamond,
    fraction_chain,
    grid_lattice,
    random_function,
)
from latgames.rng import Xoshiro256StarStar
from latgames.verdict import Verdict

from conftest import (RATIONAL, all_functions, iter_chain_masks, oracle_upper_chain_subcomplete,
                      with_join_entry)


class TestQuasisupermodular:
    def test_veinott_joint_fails_with_meet2_join0(self, veinott_function):
        f = veinott_function
        verdict = is_quasisupermodular(f)
        assert not verdict.holds
        w = verdict.witness_dict()
        dom = f.domain
        # the frozen acceptance values are about the witness pair's meet/join
        assert f.value(dom.meet_label(w["x"], w["y"])) == 2
        assert f.value(dom.join_label(w["x"], w["y"])) == 0

    def test_veinott_sections_hold(self, veinott_function):
        assert sections_quasisupermodular(veinott_function, split=0).holds

    def test_sum_of_quasisupermodular_fails(self, sum_f, sum_g):
        assert is_quasisupermodular(sum_f).holds
        assert is_quasisupermodular(sum_g).holds
        h = sum_f + sum_g
        verdict = is_quasisupermodular(h)
        assert not verdict.holds
        w = verdict.witness_dict()
        assert {w["x"], w["y"]} == {"(2,3)", "(3,2)"}
        # h(1,1)=0 < h(3,2)=1 while h(4,5)=-1 equals h(2,3)
        assert h.value("(1,1)") == 0 and h.value("(3,2)") == 1
        assert h.value("(4,5)") == h.value("(2,3)") == -1

    def test_chain_domain_always_quasisupermodular(self):
        for n in (1, 2, 3, 4):
            c = chain_lattice(n)
            for f in all_functions(c, [Fraction(0), Fraction(1), Fraction(2)]):
                assert is_quasisupermodular(f).holds

    def test_weak_and_strict_clauses_reported_separately(self, diamond_lattice):
        weak = LatticeFunction(diamond_lattice, RATIONAL, {"0": 1, "a": 1, "b": 2, "1": 0})
        v = is_quasisupermodular(weak)
        assert not v.holds and v.witness_dict()["clause"] == "weak"
        strict = LatticeFunction(diamond_lattice, RATIONAL, {"0": 0, "a": 2, "b": 1, "1": 1})
        v = is_quasisupermodular(strict)
        assert not v.holds and v.witness_dict()["clause"] == "strict"

    def test_witness_is_lexicographically_least(self, veinott_function):
        verdict = is_quasisupermodular(veinott_function)
        w = verdict.witness_dict()
        assert (w["x"], w["y"]) == ("(0,1)", "(1,0)")

    def test_labeled_chain_codomain(self, diamond_lattice):
        lab = ChainCodomain.labeled(["lo", "mid", "hi"])
        f = LatticeFunction(diamond_lattice, lab, {"0": "lo", "a": "mid", "b": "mid", "1": "hi"})
        assert is_quasisupermodular(f).holds
        bad = LatticeFunction(diamond_lattice, lab, {"0": "lo", "a": "hi", "b": "mid", "1": "mid"})
        assert not is_quasisupermodular(bad).holds


class TestSupermodular:
    def test_first_coordinate_is_supermodular(self, sum_f):
        assert is_supermodular(sum_f).holds  # 2+3 <= 1+4

    def test_negated_second_coordinate_is_not(self, sum_g):
        verdict = is_supermodular(sum_g)
        assert not verdict.holds
        w = verdict.witness_dict()
        assert {w["x"], w["y"]} == {"(2,3)", "(3,2)"}

    def test_diamond_second_player_payoff_not_supermodular(self, diamond_lattice):
        f2 = LatticeFunction(diamond_lattice, RATIONAL,
                             {"0": 0, "a": 1, "b": 1, "1": Fraction(3, 2)})
        verdict = is_supermodular(f2)
        assert not verdict.holds
        assert set(verdict.witness_dict().values()) == {"a", "b"}
        assert is_quasisupermodular(f2).holds

    def test_constant_function(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 7))
        assert is_supermodular(f).holds

    def test_labeled_rejected(self, diamond_lattice):
        lab = ChainCodomain.labeled(["x", "y"])
        f = LatticeFunction(diamond_lattice, lab, dict.fromkeys(diamond_lattice.labels, "x"))
        with pytest.raises(LabeledCodomainUnsupported):
            is_supermodular(f)

    def test_supermodular_implies_quasisupermodular_exhaustive(self):
        values = [Fraction(v) for v in (0, 1, 2, 3)]
        for L in all_lattices(4):
            for f in all_functions(L, values):
                if is_supermodular(f).holds:
                    assert is_quasisupermodular(f).holds


class TestSingleCrossing:
    def test_veinott_relative_to_diamond_chain(self, veinott_function):
        assert is_single_crossing(veinott_function, split=0).holds

    def test_veinott_fails_the_other_way(self, veinott_function):
        # single crossing is not symmetric in the two blocks
        verdict = is_single_crossing(veinott_function, split=1)
        assert not verdict.holds
        assert verdict.witness_dict()["clause"] == "strict"

    def test_parabola_scaling_holds(self):
        f = _parabola_function()
        assert is_single_crossing(f, split=1).holds

    def test_singleton_second_block_vacuous(self, diamond_lattice):
        single = chain_lattice(1, labels=["q"])
        P = product_lattice([diamond_lattice, single])
        rng = Xoshiro256StarStar(5)
        table = {label: Fraction(rng.below(5)) for label in P.labels}
        f = LatticeFunction(P, RATIONAL, table)
        assert is_single_crossing(f, split=0).holds

    def test_non_product_domain_rejected(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 0))
        with pytest.raises(NotAProductDomain):
            is_single_crossing(f, split=0)

    def test_bad_split_rejected(self, veinott_function):
        with pytest.raises(NotAProductDomain):
            is_single_crossing(veinott_function, split=(0, 1))


class TestIncreasingDifferences:
    def test_separable_additive_holds(self):
        quarter = fraction_chain([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
        half = fraction_chain([0, Fraction(1, 2), 1])
        P = product_lattice([quarter, half, half])
        table = {}
        for label, coord in zip(P.labels, P.coords):
            s1 = Fraction(quarter.labels[coord[0]])
            a = Fraction(half.labels[coord[1]])
            b = Fraction(half.labels[coord[2]])
            table[label] = s1 + a + b
        f = LatticeFunction(P, RATIONAL, table)
        assert has_increasing_differences(f, split=0).holds
        # The block of the two halves against the quarter: one factor of a
        # nested product.
        halves = product_lattice([half, half])
        nested = product_lattice([quarter, halves])
        g = LatticeFunction(nested, RATIONAL, {
            label: Fraction(quarter.labels[s]) + sum(Fraction(half.labels[x])
                                                     for x in halves.coords[h])
            for label, (s, h) in zip(nested.labels, nested.coords)})
        assert has_increasing_differences(g, split=1).holds

    def test_parabola_scaling_fails(self):
        f = _parabola_function()
        verdict = has_increasing_differences(f, split=0)
        assert not verdict.holds
        w = verdict.witness_dict()
        # witness re-checks: the difference in the first block shrinks
        s1 = {"p": Fraction(w["p"]), "p2": Fraction(w["p2"])}
        s2 = {"q": Fraction(w["q"]), "q2": Fraction(w["q2"])}
        def val(x, y):
            return (x + 1) * (y - y * y)
        lhs = val(s1["p2"], s2["q2"]) - val(s1["p"], s2["q2"])
        rhs = val(s1["p2"], s2["q"]) - val(s1["p"], s2["q"])
        assert lhs < rhs

    def test_increasing_differences_implies_single_crossing(self):
        values = [Fraction(v) for v in (0, 1, 2)]
        c2 = chain_lattice(2)
        c3 = chain_lattice(3)
        for P in (product_lattice([c2, c2]), product_lattice([c2, c3])):
            for f in all_functions(P, values):
                if has_increasing_differences(f, split=0).holds:
                    assert is_single_crossing(f, split=0).holds


def _parabola_function():
    grid6 = fraction_chain([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                            Fraction(2, 3), Fraction(5, 6), 1])
    P = product_lattice([grid6, grid6])
    table = {}
    for label, coord in zip(P.labels, P.coords):
        s1 = Fraction(grid6.labels[coord[0]])
        s2 = Fraction(grid6.labels[coord[1]])
        table[label] = (s1 + 1) * (s2 - s2 * s2)
    return LatticeFunction(P, RATIONAL, table)


class TestUpperChainSubcomplete:
    def test_always_holds_on_small_lattices(self):
        values = [Fraction(v) for v in (0, 1, 2)]
        for L in all_lattices(4):
            for f in all_functions(L, values):
                assert is_upper_chain_subcomplete(f) == oracle_upper_chain_subcomplete(f) \
                    == Verdict(True)
        rng = Xoshiro256StarStar(0x5EED_0603)
        for L in all_lattices(6):
            f = LatticeFunction(L, RATIONAL, {label: rng.below(3) for label in L.labels})
            assert is_upper_chain_subcomplete(f) == oracle_upper_chain_subcomplete(f) \
                == Verdict(True)

    def test_corrupted_join_table_is_an_invariant_violation(self, diamond_lattice):
        bad = with_join_entry(diamond_lattice, "b", "a", "a")
        f = LatticeFunction(bad, RATIONAL, dict.fromkeys(bad.labels, 1))
        # Every level set of a constant is the whole carrier: the chain scan passes.
        assert oracle_upper_chain_subcomplete(f).holds
        with pytest.raises(InvariantViolation,
                           match=r"join table entry \(b, a\) is a, but the order's join is 1"):
            is_upper_chain_subcomplete(f)
        with pytest.raises(InvariantViolation):
            is_order_upper_semicontinuous(f)

    def test_lattices_from_check_lattice_start_checked(self, monkeypatch):
        # check_lattice filled the tables from pairwise_bounds, and
        # product_lattice read them off checked factors, so the table check
        # does not run that search again.
        from latgames import lattice

        built = [diamond(), product_lattice([diamond(), chain_lattice(3)])]

        def refuse(poset):
            raise AssertionError("pairwise_bounds ran again")

        monkeypatch.setattr(lattice, "pairwise_bounds", refuse)
        for L in built:
            f = LatticeFunction(L, RATIONAL, dict.fromkeys(L.labels, 1))
            assert is_upper_chain_subcomplete(f).holds

    def test_star_function(self, star_function):
        assert is_upper_chain_subcomplete(star_function).holds
        assert (is_order_upper_semicontinuous(star_function)
                == is_upper_chain_subcomplete(star_function))

    def test_constant(self, diamond_lattice):
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 1))
        assert is_upper_chain_subcomplete(f).holds


class TestTransferContinuity:
    def test_star_with_interval_topology(self, star_function):
        fam = interval_closed_family(star_function.domain)
        report = transfer_continuity(star_function, fam)
        assert report.transfer_upper.holds and report.transfer_weak_upper.holds

    def test_discrete_topology_always_upper(self, diamond_lattice):
        fam = discrete_closed_family(diamond_lattice.labels)
        f = LatticeFunction(diamond_lattice, RATIONAL, {"0": 3, "a": 0, "b": 2, "1": 1})
        report = transfer_continuity(f, fam)
        assert report.transfer_upper.holds

    def test_constant_vacuous(self, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        f = LatticeFunction(diamond_lattice, RATIONAL, dict.fromkeys(diamond_lattice.labels, 5))
        report = transfer_continuity(f, fam)
        assert report.transfer_upper.holds and report.transfer_weak_upper.holds

    def test_down_topology_splits_the_two_notions(self):
        c3 = chain_lattice(3)
        fam = explicit_closed_family(c3.labels, [(), ("c0",), ("c0", "c1"), c3.labels])
        valley = LatticeFunction(c3, RATIONAL, {"c0": 1, "c1": 0, "c2": 1})
        report = transfer_continuity(valley, fam)
        assert not report.transfer_upper.holds
        assert report.transfer_upper.witness_dict() == {"x": "c0", "y": "c1"}
        assert report.transfer_weak_upper.holds

    def test_transfer_upper_without_topological_usc(self):
        c3 = chain_lattice(3)
        fam = explicit_closed_family(c3.labels, [(), ("c0",), ("c0", "c1"), c3.labels])
        f = LatticeFunction(c3, RATIONAL, {"c0": 2, "c1": 0, "c2": 1})
        report = transfer_continuity(f, fam)
        assert report.transfer_upper.holds
        usc = is_topologically_usc(f, fam)
        assert not usc.holds
        assert usc.witness_dict()["level"] == 1

    def test_topological_usc_implies_transfer_upper(self):
        # down-set topology on a chain: any nonincreasing table is usc
        c4 = chain_lattice(4)
        downs = [tuple(c4.labels[:k]) for k in range(5)]
        fam = explicit_closed_family(c4.labels, downs)
        for f in all_functions(c4, [Fraction(0), Fraction(1), Fraction(2)]):
            if is_topologically_usc(f, fam).holds:
                report = transfer_continuity(f, fam)
                assert report.transfer_upper.holds
                assert report.transfer_weak_upper.holds

    def test_carrier_mismatch(self, star_function, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        with pytest.raises(CarrierMismatch):
            transfer_continuity(star_function, fam)

    def test_labeled_extension_flagged(self):
        c3 = chain_lattice(3)
        lab = ChainCodomain.labeled(["lo", "hi"])
        f = LatticeFunction(c3, lab, {"c0": "hi", "c1": "lo", "c2": "hi"})
        fam = discrete_closed_family(c3.labels)
        report = transfer_continuity(f, fam)
        assert report.transfer_upper.holds


class TestTransformAndSum:
    def test_cube_map_preserves_quasisupermodularity(self):
        rng = Xoshiro256StarStar(99)
        for L in (diamond(), grid_lattice((2, 3)), chain_lattice(4)):
            for _ in range(10):
                f = random_function(rng, L, "supermodular_then_transform")
                cubed = f.transform(lambda v: v ** 3)
                assert is_quasisupermodular(cubed).holds

    def test_verdict_invariant_under_transform(self, sum_f, sum_g):
        h = sum_f + sum_g
        t = lambda v: 5 * v + Fraction(1, 3)
        before = is_quasisupermodular(h)
        after = is_quasisupermodular(h.transform(t))
        assert before.holds == after.holds
        assert before.witness == after.witness

    def test_identity_transform(self, sum_f):
        assert sum_f.transform(lambda v: v) == sum_f

    def test_non_strict_map_rejected(self, sum_f):
        with pytest.raises(NotStrictlyIncreasing):
            sum_f.transform(lambda v: v * 0)

    def test_map_error_texts(self):
        image = (Fraction(0), Fraction(1, 2), Fraction(2))
        mapped = image_map(image, {image[0]: -1, image[1]: Fraction(1, 3), image[2]: 1})
        assert mapped == [-1, Fraction(1, 3), 1] and {type(v) for v in mapped} == {Fraction}
        for t, text in (
                (lambda v: 1.5, "map produced non-rational value 1.5"),
                (lambda v: v > 1, "map produced non-rational value False"),
                ({image[0]: Fraction(7, 2), image[1]: 4, image[2]: 3},
                 "map is not strictly increasing on the image: t(1/2) = 4 !< t(2) = 3")):
            with pytest.raises(NotStrictlyIncreasing) as caught:
                image_map(image, t)
            assert str(caught.value) == text
        f = LatticeFunction(chain_lattice(3), ChainCodomain.rational(),
                            dict(zip(chain_lattice(3).labels, image)))
        with pytest.raises(NotStrictlyIncreasing) as caught:
            f.transform(lambda v: v * 0)
        assert str(caught.value) == ("map is not strictly increasing on the image: "
                                     "t(0) = 0 !< t(1/2) = 0")

    def test_sum_requires_same_domain(self, sum_f, star_function):
        with pytest.raises(DomainMismatch):
            sum_f + star_function

    def test_sum_requires_rational(self, diamond_lattice):
        lab = ChainCodomain.labeled(["x", "y"])
        f = LatticeFunction(diamond_lattice, lab, dict.fromkeys(diamond_lattice.labels, "x"))
        with pytest.raises(LabeledCodomainUnsupported):
            f + f

    @settings(max_examples=40, deadline=None)
    @given(increments=st.lists(
        st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9, 2)),
        min_size=4, max_size=4),
        start=st.fractions(min_value=-5, max_value=5))
    def test_any_increasing_map_preserves_verdict(self, increments, start, sum_g):
        image = sorted(sum_g.image())
        level = start
        mapping = {}
        for v, inc in zip(image, increments):
            mapping[v] = level
            level += inc
        transformed = sum_g.transform(mapping)
        assert is_quasisupermodular(transformed).holds


class TestSectionRestrictionProperty:
    def test_chain_restrictions_imply_single_crossing_and_sections(self):
        # when every restriction to lattice x chain is quasisupermodular,
        # single crossing and sectionwise quasisupermodularity follow
        rng = Xoshiro256StarStar(1234)
        D = diamond()
        c3 = chain_lattice(3)
        P = product_lattice([D, c3])
        hits = 0
        for _ in range(200):
            f = random_function(rng, P, "supermodular_then_transform")
            if _all_chain_restrictions_qsm(f, D, c3):
                hits += 1
                assert is_single_crossing(f, split=0).holds
                assert sections_quasisupermodular(f, split=0).holds
        assert hits >= 20  # the hypothesis is not vacuous in this sample

    def test_veinott_shows_converse_fails(self, veinott_function):
        # single crossing + quasisupermodular sections, yet the restriction to
        # the full (two-point) chain is the joint function, which fails
        assert is_single_crossing(veinott_function, split=0).holds
        assert sections_quasisupermodular(veinott_function, split=0).holds
        assert not is_quasisupermodular(veinott_function).holds


def _all_chain_restrictions_qsm(f, first, second):
    for cmask in iter_chain_masks(second, second.full):
        chain_labels = second.labels_of(cmask)
        sub = chain_lattice(len(chain_labels), labels=list(chain_labels)) \
            if _labels_sorted(chain_labels, second) else None
        assert sub is not None
        restricted = product_lattice([first, sub])
        table = {}
        for label, coord in zip(restricted.labels, restricted.coords):
            a = first.labels[coord[0]]
            b = sub.labels[coord[1]]
            table[label] = f.value(f"({a},{b})")
        if not is_quasisupermodular(LatticeFunction(restricted, f.codomain, table)).holds:
            return False
    return True


def _labels_sorted(labels, lattice):
    order = [l for l in lattice.labels if l in set(labels)]
    return list(labels) == order
