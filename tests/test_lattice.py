"""lattice construction, subset classification, and the small-size order facts."""
import itertools
import sys

import pytest

from latgames import (
    check_lattice,
    classify_subset,
    extremes,
    inf_subset,
    poset_from_covers,
    product_lattice,
    sup_subset,
)
from latgames.errors import (
    BadLabel,
    CycleDetected,
    DuplicateLabel,
    EmptyFactorList,
    EmptySubset,
    InvariantViolation,
    NotALattice,
    UnknownLabel,
)
from latgames.functions import ChainCodomain
from latgames.generators import (all_lattices, chain_lattice, diamond, grid_lattice,
                                 lattices_of_size)
from latgames.lattice import (FiniteLattice, FinitePoset, chain_ranks, extremal_in, iter_bits,
                              validate_label)
from latgames.rng import Xoshiro256StarStar
from latgames.verdict import Verdict

from conftest import (
    brute_is_sublattice,
    brute_is_subcomplete,
    iter_chain_masks,
    oracle_chain_unbounded,
    oracle_glb,
    oracle_least_unbounded,
    oracle_lub,
    oracle_sup_subset,
    oracle_inf_subset,
    with_join_entry,
)


class TestPosetFromCovers:
    def test_diamond_incomparable_middles(self, diamond_lattice):
        P = diamond_lattice
        assert P.leq("0", "a") and P.leq("0", "b") and P.leq("a", "1")
        assert not P.leq("a", "b") and not P.leq("b", "a")
        assert P.leq("0", "1")  # transitive closure

    def test_single_point(self):
        P = poset_from_covers(["x"], [])
        assert P.labels == ("x",)
        assert P.leq("x", "x")

    def test_two_cycle_detected(self):
        with pytest.raises(CycleDetected):
            poset_from_covers(["p", "q"], [("p", "q"), ("q", "p")])

    def test_longer_cycle_detected(self):
        with pytest.raises(CycleDetected):
            poset_from_covers(["p", "q", "r"], [("p", "q"), ("q", "r"), ("r", "p")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            poset_from_covers(["x", "x"], [])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            poset_from_covers(["x"], [("x", "y")])

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            poset_from_covers(["a b"], [])
        with pytest.raises(BadLabel):
            poset_from_covers([""], [])

    def test_every_whitespace_code_point_is_rejected(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) > 20 and "\x1c" in spaces and "\u3000" in spaces
        for c in spaces:
            for label in (c, f"a{c}b", f"{c}ab", f"ab{c}", f"a{c}{c}b"):
                with pytest.raises(BadLabel):
                    validate_label(label)
        for label in ("", None, 1, b"ab", ["ab"], ("ab",)):
            with pytest.raises(BadLabel, match="nonempty whitespace-free strings"):
                validate_label(label)
        for label in ("a", "a,b", "(x,y)", "\u200b", "é", "a\x00b"):
            assert validate_label(label) is label

    @pytest.mark.parametrize("labels", [["lo w", "", "hi gh"], ["lo", ""], ["lo", "h\ti"], [1]])
    def test_bad_codomain_label(self, labels):
        # Labeled-codomain labels follow the rule of element labels.
        with pytest.raises(BadLabel):
            ChainCodomain.labeled(labels)

    def test_redundant_covers_normalize(self):
        direct = poset_from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
        redundant = poset_from_covers(["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")])
        assert direct == redundant
        assert redundant.covers == (("0", "1"), ("1", "2"))


class TestCheckLattice:
    def test_diamond_meet_join(self, diamond_lattice):
        assert diamond_lattice.meet_label("a", "b") == "0"
        assert diamond_lattice.join_label("a", "b") == "1"

    def test_antichain_fails_with_witness(self):
        P = poset_from_covers(["x", "y"], [])
        with pytest.raises(NotALattice) as err:
            check_lattice(P)
        assert err.value.pair == ("x", "y")
        assert err.value.missing == "lub"

    def test_induced_four_points_is_diamond(self, induced_diamond):
        # exhaustive glb/lub search over the induced order
        assert induced_diamond.meet_label("(2,3)", "(3,2)") == "(1,1)"
        assert induced_diamond.join_label("(2,3)", "(3,2)") == "(4,5)"

    def test_tables_match_relation_oracle(self, diamond_lattice, induced_diamond, star5):
        for L in (diamond_lattice, induced_diamond, star5):
            for a, b in itertools.product(L.labels, repeat=2):
                assert L.meet_label(a, b) == oracle_glb(L, a, b)
                assert L.join_label(a, b) == oracle_lub(L, a, b)

    def test_lattice_laws(self, star5):
        L = star5
        for a, b, c in itertools.product(L.labels, repeat=3):
            assert L.meet_label(a, b) == L.meet_label(b, a)
            assert L.join_label(a, b) == L.join_label(b, a)
            assert L.meet_label(a, L.meet_label(b, c)) == L.meet_label(L.meet_label(a, b), c)
            assert L.join_label(a, L.join_label(b, c)) == L.join_label(L.join_label(a, b), c)
            assert L.meet_label(a, L.join_label(a, b)) == a
            assert L.join_label(a, L.meet_label(a, b)) == a
        for a in L.labels:
            assert L.meet_label(a, a) == a and L.join_label(a, a) == a


class TestSupInfSubset:
    def test_diamond_pair(self, diamond_lattice):
        assert sup_subset(diamond_lattice, ["a", "b"]) == "1"
        assert inf_subset(diamond_lattice, ["a", "b"]) == "0"

    def test_singleton(self, diamond_lattice):
        assert sup_subset(diamond_lattice, ["a"]) == "a"
        assert inf_subset(diamond_lattice, ["a"]) == "a"

    def test_whole_lattice(self, diamond_lattice):
        assert sup_subset(diamond_lattice, diamond_lattice.labels) == "1"
        assert inf_subset(diamond_lattice, diamond_lattice.labels) == "0"

    def test_empty_rejected(self, diamond_lattice):
        with pytest.raises(EmptySubset):
            sup_subset(diamond_lattice, [])
        with pytest.raises(EmptySubset):
            inf_subset(diamond_lattice, [])

    def test_fold_matches_upper_bound_oracle(self, star5):
        labels = star5.labels
        for r in (1, 2, 3):
            for combo in itertools.combinations(labels, r):
                assert sup_subset(star5, combo) == oracle_sup_subset(star5, combo)
                assert inf_subset(star5, combo) == oracle_inf_subset(star5, combo)

    def test_union_of_chains_sup(self):
        # For W, V with a chain union, the sup of the union is one of the two sups.
        from latgames.corpus import corpus_lattices

        rng = Xoshiro256StarStar(20240817)
        pool = all_lattices(5) + corpus_lattices(8)
        for _ in range(300):
            L = pool[rng.below(len(pool))]
            chain_mask = rng.choice(list(_chain_masks(L)))
            bits = [i for i in range(L.n) if chain_mask >> i & 1]
            if len(bits) < 2:
                continue
            split = 1 + rng.below(len(bits) - 1)
            w = [L.labels[i] for i in bits[:split]]
            v = [L.labels[i] for i in bits[split:]]
            rng.shuffle(w)
            rng.shuffle(v)
            union_sup = sup_subset(L, w + v)
            assert union_sup in (sup_subset(L, w), sup_subset(L, v))


def _chain_masks(L):
    return iter_chain_masks(L, L.full)


class TestProductLattice:
    def test_square(self):
        c = chain_lattice(2, labels=["0", "1"])
        P = product_lattice([c, c])
        assert P.n == 4
        assert P.meet_label("(0,1)", "(1,0)") == "(0,0)"
        assert P.join_label("(0,1)", "(1,0)") == "(1,1)"

    def test_diamond_times_chain_has_eight_elements(self, veinott_domain):
        assert veinott_domain.n == 8
        assert veinott_domain.meet_label("(a,0)", "(b,1)") == "(0,0)"
        assert veinott_domain.join_label("(a,0)", "(b,1)") == "(1,1)"

    def test_single_factor_is_isomorphic_copy(self, diamond_lattice):
        P = product_lattice([diamond_lattice])
        assert P.n == diamond_lattice.n
        assert P.labels == ("(0)", "(1)", "(a)", "(b)")
        for a, b in itertools.product(diamond_lattice.labels, repeat=2):
            assert diamond_lattice.leq(a, b) == P.leq(f"({a})", f"({b})")

    def test_empty_factor_list(self):
        with pytest.raises(EmptyFactorList):
            product_lattice([])


class TestClassifySubset:
    def test_grid_embedding_witness(self):
        c4 = chain_lattice(4, labels=["1", "2", "3", "4"])
        c5 = chain_lattice(5, labels=["1", "2", "3", "4", "5"])
        grid = product_lattice([c4, c5])
        flags = classify_subset(grid, ["(1,1)", "(2,3)", "(3,2)", "(4,5)"])
        assert not flags.is_sublattice.holds
        w = flags.is_sublattice.witness_dict()
        assert {w["x"], w["y"]} == {"(2,3)", "(3,2)"}
        assert w["op"] == "meet" and w["value"] == "(2,2)"
        assert not flags.is_subcomplete.holds
        assert flags.is_chain_subcomplete.holds

    def test_antichain_pair_in_diamond(self, diamond_lattice):
        flags = classify_subset(diamond_lattice, ["a", "b"])
        assert flags.is_antichain.holds
        assert not flags.is_chain.holds
        assert not flags.is_sublattice.holds
        assert flags.is_sublattice.witness_dict()["op"] == "meet"

    def test_chain_subset(self, diamond_lattice):
        flags = classify_subset(diamond_lattice, ["0", "a", "1"])
        assert flags.is_chain.holds
        assert not flags.is_antichain.holds
        assert flags.is_sublattice.holds
        assert flags.is_subcomplete.holds

    def test_empty_subset_convention(self, diamond_lattice):
        flags = classify_subset(diamond_lattice, [])
        for _, verdict in flags.items():
            assert verdict.holds

    def test_chain_subcomplete_always_true_small(self):
        for L in all_lattices(4):
            for mask in range(1 << L.n):
                flags = classify_subset(L, L.labels_of(mask))
                assert flags.is_chain_subcomplete.holds

    def test_flags_match_brute_force(self, star5):
        rng = Xoshiro256StarStar(7)
        for _ in range(60):
            mask = rng.below(1 << star5.n)
            labels = star5.labels_of(mask)
            flags = classify_subset(star5, labels)
            assert flags.is_sublattice.holds == brute_is_sublattice(star5, labels)
            if labels:
                assert flags.is_subcomplete.holds == brute_is_subcomplete(star5, labels)

    def test_cap_shortcut_flagged(self):
        # 25 elements, past the old enumeration cap of 20: there is no cap
        # any more, so both flags are decided.
        c = chain_lattice(25)
        flags = classify_subset(c, c.labels)
        assert flags.is_subcomplete == Verdict(True)
        assert flags.is_chain_subcomplete == Verdict(True)

    def test_cap_shortcut_false_witness_rechecks(self):
        # 25-point grid minus an interior join: 24 elements, and the
        # exhaustive scan stops at the least failing submask.
        c5 = chain_lattice(5)
        grid = product_lattice([c5, c5])
        labels = [l for l in grid.labels if l != "(c1,c1)"]
        flags = classify_subset(grid, labels)
        assert not flags.is_subcomplete.holds
        assert flags.is_subcomplete.witness == oracle_least_unbounded(
            grid, grid.subset_mask(labels))
        assert flags.is_subcomplete.witness_dict() == {
            "subset": ("(c0,c1)", "(c1,c0)"), "bound": "sup", "value": "(c1,c1)"}


def _assert_matches_oracle(L, mask):
    flags = classify_subset(L, L.labels_of(mask))
    hit = oracle_least_unbounded(L, mask)
    assert flags.is_subcomplete == Verdict(hit is None, witness=hit)
    assert flags.is_chain_subcomplete == Verdict(True) and oracle_chain_unbounded(L, mask) is None
    return hit


class TestSubcompletenessDecider:
    """``classify_subset`` decides subcompleteness by the sublattice scan and
    builds the least submask witness from prefix closures; the exhaustive
    submask and chain scans are the oracles."""

    def test_every_subset_of_small_lattices(self):
        for L in all_lattices(6):
            for mask in range(1, 1 << L.n):
                hit = _assert_matches_oracle(L, mask)
                if hit is not None:
                    assert len(hit[0][1]) == 2  # size <= 6: the least witness is a pair

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
    def test_every_subset_of_small_grids(self, dims):
        L = grid_lattice(dims)
        for mask in range(1, 1 << L.n):
            _assert_matches_oracle(L, mask)

    @pytest.mark.parametrize("dims", [(5, 5), (6, 6), (3, 3, 3), (2, 2, 2, 3)])
    def test_seeded_subsets_of_larger_grids(self, dims):
        L = grid_lattice(dims)
        rng = Xoshiro256StarStar(0x5EED_0601)
        for _ in range(40):
            picks = list(range(L.n))
            rng.shuffle(picks)
            _assert_matches_oracle(L, sum(1 << i for i in picks[:10 + rng.below(11)]))

    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 2, 2, 3), (4, 4, 2)])
    def test_seeded_intervals_whole_and_punctured(self, dims):
        # Random subsets of larger grids almost never hold; intervals do, and
        # an interval less one element fails with witnesses beyond pairs.
        L = grid_lattice(dims)
        rng = Xoshiro256StarStar(0x5EED_0602)
        sizes, tried = set(), 0
        while tried < 8:
            a, b = rng.below(L.n), rng.below(L.n)
            interval = L.up[L.meet[a][b]] & L.down[L.join[a][b]]
            if not 8 <= interval.bit_count() <= 16:
                continue
            tried += 1
            assert _assert_matches_oracle(L, interval) is None
            for i in iter_bits(interval):
                hit = _assert_matches_oracle(L, interval & ~(1 << i))
                sizes.add(0 if hit is None else len(hit[0][1]))
        assert {2, 3} <= sizes

    def test_cube_without_top_has_the_three_atoms_as_least_witness(self):
        cube = grid_lattice((2, 2, 2))
        labels = [l for l in cube.labels if l != "(1,1,1)"]
        flags = classify_subset(cube, labels)
        assert flags.is_subcomplete.witness_dict() == {
            "subset": ("(0,0,1)", "(0,1,0)", "(1,0,0)"), "bound": "sup", "value": "(1,1,1)"}
        assert flags.is_subcomplete.witness == oracle_least_unbounded(
            cube, cube.subset_mask(labels))

    def test_prefix_that_fails_only_through_a_triple(self):
        # Every pair up to (1,0,1,0) has its join and meet inside, yet the
        # join of a triple ending there escapes: the prefix test needs the
        # closure, not the pairwise joins.  The only such subset of 2^4.
        L = grid_lattice((2, 2, 2, 2))
        labels = ["(0,0,0,0)", "(0,1,0,0)", "(1,0,0,0)", "(1,0,0,1)", "(1,0,1,0)",
                  "(1,0,1,1)", "(1,1,0,0)", "(1,1,0,1)", "(1,1,1,0)"]
        _assert_matches_oracle(L, L.subset_mask(labels))
        assert classify_subset(L, labels).is_subcomplete.witness_dict() == {
            "subset": ("(0,1,0,0)", "(1,0,0,1)", "(1,0,1,0)"), "bound": "sup",
            "value": "(1,1,1,1)"}

    def test_corrupted_join_table_is_an_invariant_violation(self, diamond_lattice):
        bad = with_join_entry(diamond_lattice, "a", "b", "0")
        with pytest.raises(InvariantViolation, match=r"join table entry \(a, b\) is 0"):
            classify_subset(bad, ["a", "b"])


class TestExtremes:
    def test_diamond(self, diamond_lattice):
        ex = extremes(diamond_lattice)
        assert ex.least == "0" and ex.greatest == "1"
        assert ex.minimal == ("0",) and ex.maximal == ("1",)

    def test_antichain_has_no_least(self):
        P = poset_from_covers(["x", "y"], [])
        ex = extremes(P)
        assert ex.least is None and ex.greatest is None
        assert ex.minimal == ("x", "y") and ex.maximal == ("x", "y")

    def test_chain(self):
        c = chain_lattice(3, labels=["0", "1", "2"])
        ex = extremes(c)
        assert ex.least == "0" and ex.greatest == "2"

    def test_minimal_of_lattice_is_the_least(self):
        # On a lattice the minimal element is unique and least (dually for maximal).
        for L in all_lattices(5):
            ex = extremes(L)
            assert ex.minimal == (ex.least,)
            assert ex.maximal == (ex.greatest,)

    def test_bottom_and_top_are_the_least_and_greatest_elements(self):
        lattices = list(all_lattices(6))
        for n in (1, 2, 7, 48):
            labels = [f"c{k}" for k in range(n)]
            lattices += [chain_lattice(n, labels), chain_lattice(n, labels[::-1])]
        lattices += [product_lattice([A, B]) for A, B in itertools.product(all_lattices(4), repeat=2)]
        lattices += [product_lattice([chain_lattice(3), diamond(), chain_lattice(2)]),
                     grid_lattice((48, 48))]
        for L in lattices:
            assert L.bottom == extremal_in(L, L.full, False), L
            assert L.top == extremal_in(L, L.full, True), L

    @pytest.mark.parametrize("labels, up, missing", [
        (("a", "b"), (0b01, 0b10), "glb"),         # an antichain: neither bound
        (("0", "a", "b"), (0b111, 0b010, 0b100), "lub"),  # a least, no greatest element
        (("1", "a", "b"), (0b001, 0b011, 0b101), "glb"),  # a greatest, no least element
    ])
    def test_a_poset_without_a_bound_is_not_a_lattice(self, labels, up, missing):
        with pytest.raises(NotALattice) as exc:
            FiniteLattice(FinitePoset(labels, up), (), ())
        assert exc.value.missing == missing and exc.value.pair == ()


class TestMeetJoinRoundTrip:
    def test_tables_reproducible_from_relation(self):
        for L in all_lattices(5):
            rebuilt = check_lattice(L)
            assert rebuilt.meet == L.meet
            assert rebuilt.join == L.join


class TestLatticeEnumeration:
    def test_counts_by_size(self):
        # naturally labeled counts; the unlabeled counts 1,1,1,2,5 are recovered
        # after quotienting by isomorphism below
        assert len(lattices_of_size(1)) == 1
        assert len(lattices_of_size(2)) == 1
        assert len(lattices_of_size(3)) == 1
        assert len(lattices_of_size(4)) == 2

    def test_unlabeled_counts_up_to_six(self):
        expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
        for n, count in expected.items():
            classes = set()
            for L in lattices_of_size(n):
                classes.add(_canonical_form(L))
            assert len(classes) == count, f"size {n}"


class TestChainRanks:
    def test_ranks_exactly_on_chains_up_to_six(self):
        # a chain: every element is comparable to every other; its rank is
        # the number of elements below it
        kinds = set()
        for L in all_lattices(6) + (chain_lattice(3, labels=["c2", "c9", "c10"]),):
            chain = all(L.up[x] | L.down[x] == L.full for x in range(L.n))
            want = [L.down[x].bit_count() - 1 for x in range(L.n)] if chain else None
            assert chain_ranks(L) == want, L
            kinds.add(chain)
        assert kinds == {True, False}
        assert chain_ranks(chain_lattice(3, labels=["c2", "c9", "c10"])) == [2, 0, 1]


def _canonical_form(L):
    """Isomorphism invariant: minimal relation bitset over all relabelings."""
    n = L.n
    best = None
    for perm in itertools.permutations(range(n)):
        bits = 0
        for i in range(n):
            for j in range(n):
                if L._leq(i, j):
                    bits |= 1 << (perm[i] * n + perm[j])
        if best is None or bits < best:
            best = bits
    return best


def test_cover_indexes_are_the_covers_in_a_linear_extension_of_the_lower_element():
    # Read forwards, every cover into an element comes before every cover
    # out of it; componentwise_up relies on that order in both directions.
    lattices = list(all_lattices(6)) + [grid_lattice((3, 4)), product_lattice([diamond()] * 2)]
    for L in lattices:
        pairs = L.cover_indexes
        assert tuple(sorted((L.labels[i], L.labels[j]) for i, j in pairs)) == L.covers
        assert L.covers == tuple(sorted(
            (L.labels[i], L.labels[j]) for i in range(L.n) for j in range(L.n)
            if i != j and L._leq(i, j) and not any(
                k not in (i, j) and L._leq(i, k) and L._leq(k, j) for k in range(L.n))))
        position = {}
        for k, (i, j) in enumerate(pairs):
            position.setdefault(i, k)
            assert position.get(j, len(pairs)) > k, (L.labels, pairs)
