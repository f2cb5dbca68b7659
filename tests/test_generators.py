"""seeded generators: determinism, family shapes, payoff soundness."""
from fractions import Fraction

import pytest

from latgames import check_lattice, is_quasisupermodular, is_supermodular, validate_game
from latgames.errors import CapExceeded, RejectionBudgetExhausted
from latgames.functions import LatticeFunction
from latgames.generators import (
    GenSpec,
    all_lattices,
    chain_lattice,
    diamond_mk,
    generate,
    grid_lattice,
    lattices_of_size,
    meet_join_closure_lattice,
    random_function,
    random_game,
    random_monotone_supermodular,
    random_strictly_increasing_map,
)
from latgames.io import serialize
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL


class TestRng:
    def test_known_stream_is_stable(self):
        rng = Xoshiro256StarStar(1)
        first = [rng.next_u64() for _ in range(4)]
        rng2 = Xoshiro256StarStar(1)
        assert first == [rng2.next_u64() for _ in range(4)]
        assert all(0 <= v < (1 << 64) for v in first)

    def test_stream_regression_pin(self):
        # frozen outputs of this implementation; corpus reproducibility and
        # seeded suites silently change if these ever move
        rng = Xoshiro256StarStar(1)
        assert [rng.next_u64() for _ in range(6)] == [
            0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514,
            0x642E1C7BC266A3A7, 0xB27A48E29A233673, 0x24C123126FFDA722,
        ]
        rng = Xoshiro256StarStar(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0,
        ]

    def test_different_seeds_differ(self):
        assert Xoshiro256StarStar(1).next_u64() != Xoshiro256StarStar(2).next_u64()

    def test_bounded_draws_cover_range(self):
        rng = Xoshiro256StarStar(3)
        seen = {rng.below(5) for _ in range(300)}
        assert seen == {0, 1, 2, 3, 4}

    def test_shuffle_deterministic(self):
        rng = Xoshiro256StarStar(9)
        xs = list(range(8))
        rng.shuffle(xs)
        ys = list(range(8))
        rng2 = Xoshiro256StarStar(9)
        rng2.shuffle(ys)
        assert xs == ys


class TestFamilies:
    def test_diamond_mk5_is_the_seven_element_star(self):
        spec = GenSpec(seed=1, family="diamond_Mk", k=5)
        kind, L = generate(spec)
        assert kind == "lattice" and L.n == 7
        assert L.labels == ("M", "m", "x1", "x2", "x3", "x4", "x5")
        assert L.meet_label("x1", "x2") == "m"
        assert L.join_label("x1", "x2") == "M"

    def test_chain_and_grid(self):
        assert generate(GenSpec(seed=0, family="chain", size=5))[1].n == 5
        kind, grid = generate(GenSpec(seed=0, family="grid", dims=(2, 3)))
        assert grid.n == 6 and grid.factors is not None

    def test_closure_family_yields_lattices(self):
        rng = Xoshiro256StarStar(11)
        for _ in range(20):
            L = meet_join_closure_lattice(rng)
            check_lattice(L.poset)  # meets and joins exist and match
            assert L.n >= 2

    def test_caps(self):
        with pytest.raises(CapExceeded, match="chain of 100 elements"):
            generate(GenSpec(seed=0, family="chain", size=100))
        with pytest.raises(CapExceeded, match="10000 cells"):
            grid_lattice((100, 100))
        with pytest.raises(CapExceeded, match="k = 50"):
            diamond_mk(50)
        with pytest.raises(CapExceeded, match=r"grid dimensions \(0, 3\) must be positive"):
            generate(GenSpec(seed=0, family="grid", dims=(0, 3)))


class TestDeterminism:
    def test_identical_specs_identical_bytes(self):
        for spec in (
            GenSpec(seed=7, family="random_meet_join_closure"),
            GenSpec(seed=7, family="grid", dims=(2, 3), payoff="supermodular_then_transform"),
            GenSpec(seed=40, family="diamond_Mk", k=3, payoff="rejection"),
        ):
            kind_a, a = generate(spec)
            kind_b, b = generate(spec)
            assert kind_a == kind_b
            assert serialize(a) == serialize(b)

    def test_seed_changes_instance(self):
        a = generate(GenSpec(seed=1, family="random_meet_join_closure"))[1]
        b = generate(GenSpec(seed=2, family="random_meet_join_closure"))[1]
        assert serialize(a) != serialize(b) or a.n == b.n  # same shape allowed, bytes usually differ


class TestPayoffStrategies:
    def test_supermodular_then_transform_is_quasisupermodular(self):
        rng = Xoshiro256StarStar(21)
        for L in (grid_lattice((2, 3)), diamond_mk(4), chain_lattice(5)):
            for _ in range(10):
                f = random_function(rng, L, "supermodular_then_transform")
                assert is_quasisupermodular(f).holds

    def test_rejection_strategy(self):
        rng = Xoshiro256StarStar(22)
        f = random_function(rng, diamond_mk(3), "rejection", values=(0, 1, 2))
        assert is_quasisupermodular(f).holds

    def test_rejection_budget_exhausted(self):
        rng = Xoshiro256StarStar(23)
        # budget 0 draws nothing, so even a chain cannot be produced
        with pytest.raises(RejectionBudgetExhausted):
            random_function(rng, chain_lattice(3), "rejection", budget=0)

    def test_monotone_supermodular_construction(self):
        rng = Xoshiro256StarStar(24)
        for L in all_lattices(5)[:10]:
            table = random_monotone_supermodular(rng, L)
            f = LatticeFunction(L, RATIONAL, table)
            assert is_supermodular(f).holds
            for a in L.labels:
                for b in L.labels:
                    if L.leq(a, b):
                        assert f.value(a) <= f.value(b)

    def test_increasing_map_is_strictly_increasing(self):
        rng = Xoshiro256StarStar(25)
        image = [Fraction(v) for v in (-3, 0, 1, 7)]
        mapping = random_strictly_increasing_map(rng, image)
        assert mapping[Fraction(-3)] < mapping[Fraction(0)] < mapping[Fraction(1)] < mapping[Fraction(7)]


class TestRandomGames:
    def test_games_validate(self):
        rng = Xoshiro256StarStar(26)
        for _ in range(10):
            G = random_game(rng)
            assert validate_game(G).holds
            assert 2 <= len(G.players) <= 3

    def test_game_stream_deterministic(self):
        a = random_game(Xoshiro256StarStar(27))
        b = random_game(Xoshiro256StarStar(27))
        assert a.players == b.players
        assert a.payoffs == b.payoffs


class TestCrossProcessDeterminism:
    def test_output_independent_of_hash_seed(self, tmp_path):
        # set/dict iteration must never leak into instance bytes
        import os
        import subprocess
        import sys

        outputs = []
        for hashseed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "latgames.cli", "generate", "--seed", "31337",
                 "--family", "random_meet_join_closure", "--payoff", "rejection"],
                capture_output=True, text=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert '"table"' in outputs[0]


class TestEnumerationHelpers:
    def test_all_lattices_sizes(self):
        for L in all_lattices(4):
            assert 1 <= L.n <= 4

    def test_lattices_have_canonical_natural_labels(self):
        for L in lattices_of_size(4):
            assert L.labels == ("a", "b", "c", "d")
            for i in range(L.n):
                for j in range(L.n):
                    if L.poset._leq(i, j):
                        assert i <= j
