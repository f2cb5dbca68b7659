"""interval/discrete/explicit closed families: point closures, queries, and
the materialized closed-set family as oracle."""
import pytest

from latgames import (
    ChainCodomain,
    LatticeFunction,
    TopologySpec,
    classify_subset,
    discrete_closed_family,
    explicit_closed_family,
    interval_closed_family,
    is_topologically_usc,
    transfer_continuity,
)
from latgames.errors import InvariantViolation
from latgames.generators import all_lattices, chain_lattice, diamond, diamond_mk
from latgames.rng import Xoshiro256StarStar
from latgames.topology import family_for

from conftest import (
    all_closed_families,
    oracle_closure,
    oracle_interval_sets,
    oracle_topologically_usc,
    oracle_transfer,
    seeded_functions,
)


class TestIntervalFamily:
    def test_diamond_singleton_closed(self, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        assert fam.is_closed(["a"])  # down-ray of a intersected with its up-ray

    def test_chain_full_power_set(self):
        c = chain_lattice(3, labels=["0", "1", "2"])
        fam = interval_closed_family(c)
        assert len(fam.sets) == 2 ** 3
        assert fam.is_closed(["0", "2"])

    def test_star_cosingleton_closed(self, star5):
        fam = interval_closed_family(star5)
        others = [l for l in star5.labels if l != "x1"]
        assert fam.is_closed(others)  # union of the rays through the other midpoints

    def test_rays_are_members(self, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        P = diamond_lattice
        for i in range(P.n):
            assert fam.is_closed_mask(P.up[i])
            assert fam.is_closed_mask(P.down[i])

    def test_finite_carrier_saturates_to_power_set(self):
        # Singletons are ray intersections, so unions rebuild every subset.
        for L in all_lattices(4):
            fam = interval_closed_family(L)
            assert len(fam.sets) == 2 ** L.n


class TestClosureAndQueries:
    def test_closure_of_closed_set_is_itself(self, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        assert fam.closure(["0", "1"]) == ("0", "1")

    def test_closure_properties(self, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        for mask in range(1 << diamond_lattice.n):
            a = diamond_lattice.labels_of(mask)
            closed = fam.closure(a)
            assert set(a) <= set(closed)                       # extensive
            assert fam.closure(closed) == closed               # idempotent
            assert fam.is_closed(a) == (tuple(closed) == a)    # fixed points
        # monotone
        assert set(fam.closure(["0"])) <= set(fam.closure(["0", "a"]))

    def test_empty_set_closed(self, diamond_lattice):
        fam = interval_closed_family(diamond_lattice)
        assert fam.is_closed([])

    def test_discrete_everything_closed(self):
        fam = discrete_closed_family(("p", "q", "r"))
        assert len(fam.sets) == 8
        assert fam.is_closed(["q"])
        assert fam.closure(["p", "r"]) == ("p", "r")


class TestExplicitFamily:
    def test_down_sets_valid(self):
        fam = explicit_closed_family(("c0", "c1", "c2"),
                                     [(), ("c0",), ("c0", "c1"), ("c0", "c1", "c2")])
        assert fam.is_closed(["c0", "c1"])
        assert not fam.is_closed(["c1"])
        assert fam.closure(["c1"]) == ("c0", "c1")

    def test_missing_carrier_rejected(self):
        with pytest.raises(InvariantViolation):
            explicit_closed_family(("p", "q"), [(), ("p",)])

    def test_union_gap_rejected(self):
        with pytest.raises(InvariantViolation):
            explicit_closed_family(("p", "q", "r"),
                                   [(), ("p",), ("q",), ("p", "q", "r")])

    def test_unknown_label_rejected(self):
        with pytest.raises(InvariantViolation):
            explicit_closed_family(("p",), [(), ("p",), ("z",)])


class TestClosedSetsAreChainSubcomplete:
    def test_all_small_lattices(self):
        # every interval-closed set contains the sup and inf of each of its chains
        for L in all_lattices(4) + (diamond_mk(5), diamond()):
            fam = interval_closed_family(L)
            for mask in fam.sets:
                flags = classify_subset(L, L.labels_of(mask))
                assert flags.is_chain_subcomplete.holds


def assert_matches_materialized(fam, sets, functions):
    """Every query of ``fam`` agrees with the closed-set list ``sets``."""
    members = set(sets)
    assert fam.sets == sets
    for mask in range(fam.full + 1):
        assert fam.is_closed_mask(mask) == (mask in members)
        assert fam.closure_mask(mask) == oracle_closure(sets, mask)
        assert fam.closure(fam.labels_of(mask)) == fam.labels_of(oracle_closure(sets, mask))
    for f in functions:
        assert is_topologically_usc(f, fam) == oracle_topologically_usc(f, sets)
        assert transfer_continuity(f, fam) == oracle_transfer(f, sets)


def sweep_functions(L, seed: int) -> list:
    """``seeded_functions`` plus a seeded function into a five-label chain
    whose values skip two of its labels."""
    rng = Xoshiro256StarStar(seed)
    chain = ChainCodomain.labeled(["none", "lo", "mid", "hi", "top"])
    return [*seeded_functions(L, seed),
            LatticeFunction(L, chain, {label: ("lo", "hi", "top")[rng.below(3)]
                                       for label in L.labels})]


class TestAgainstMaterializedFamilies:
    def test_topology_counts(self):
        assert [len(all_closed_families(n)) for n in range(1, 5)] == [1, 4, 29, 355]

    @pytest.mark.parametrize("L", [chain_lattice(n) for n in range(1, 5)] + [diamond()],
                             ids=["chain1", "chain2", "chain3", "chain4", "diamond"])
    def test_every_topology_on_small_carriers(self, L):
        functions = sweep_functions(L, 0x7090 + L.n)
        for sets in all_closed_families(L.n):
            spec = TopologySpec("explicit", tuple(L.labels_of(mask) for mask in sets))
            assert_matches_materialized(family_for(spec, L), sets, functions)

    def test_interval_and_discrete_on_all_lattices_up_to_six(self):
        for k, L in enumerate(all_lattices(6)):
            functions = sweep_functions(L, 0x7091 + k)
            assert_matches_materialized(family_for(TopologySpec("interval"), L),
                                        oracle_interval_sets(L), functions)
            assert_matches_materialized(family_for(TopologySpec("discrete"), L),
                                        tuple(range(1 << L.n)), functions)
