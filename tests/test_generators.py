"""seeded generators: determinism, family shapes, payoff soundness."""
import copy
import hashlib
import math
from fractions import Fraction

import pytest

from latgames import check_lattice, is_quasisupermodular, is_supermodular, validate_game
from latgames import generators
from latgames.cli import main
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
from latgames.lattice import strong_set_witness
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
            check_lattice(L)  # meets and joins exist and match
            assert L.n >= 2

    def test_random_lattice_builds_no_grid_it_would_discard(self, monkeypatch):
        # Closures are replaced by a chain too large to keep, so every grid
        # built below is a grid draw of random_lattice itself.
        built = []
        monkeypatch.setattr(generators, "grid_lattice",
                            lambda dims: built.append(dims) or grid_lattice(dims))
        monkeypatch.setattr(generators, "_meet_join_closure",
                            lambda rng: (chain_lattice(9), chain_lattice(9).full))
        rng = Xoshiro256StarStar(3)
        drawn = [generators.random_lattice(rng, max_size=4) for _ in range(100)]
        assert all(L.n <= 4 for L in drawn)
        assert built and all(math.prod(dims) <= 4 for dims in built)

    def test_random_lattice_builds_no_closure_it_would_discard(self, monkeypatch):
        closures, built = [], []
        closure, induced = generators._meet_join_closure, generators._induced_lattice
        monkeypatch.setattr(generators, "_meet_join_closure",
                            lambda rng: closures.append(closure(rng)) or closures[-1])
        monkeypatch.setattr(generators, "_induced_lattice",
                            lambda grid, mask: built.append(mask) or induced(grid, mask))
        rng = Xoshiro256StarStar(3)
        drawn = [generators.random_lattice(rng, max_size=5) for _ in range(100)]
        assert all(L.n <= 5 for L in drawn)
        assert built and all(mask.bit_count() <= 5 for mask in built)
        assert len(built) < len(closures)  # the larger closures were drawn but not built

    def test_the_closure_equals_the_restarted_pair_scan(self):
        # The same draws replayed from a copy of the stream, closed the old
        # way: restart the strong-set scan after each element it adds.
        rng = Xoshiro256StarStar(0x6E_0029)
        sizes = set()
        for _ in range(300):
            replay = copy.deepcopy(rng)
            grid, mask = generators._meet_join_closure(rng)
            assert grid.factors == grid_lattice((replay.randint(2, 4),
                                                 replay.randint(2, 4))).factors
            want = 1 << grid.bottom | 1 << grid.top
            for i in range(grid.n):
                if replay.chance(2, 5):
                    want |= 1 << i
            sizes.add(mask.bit_count() - want.bit_count())
            while (hit := strong_set_witness(grid, want, want)) is not None:
                want |= 1 << hit[3]
            assert mask == want
            assert rng.next_u64() == replay.next_u64()
        assert 0 in sizes and max(sizes) >= 3  # some sets were closed, some grew

    def test_caps(self):
        with pytest.raises(CapExceeded, match="chain of 100 elements"):
            generate(GenSpec(seed=0, family="chain", size=100))
        with pytest.raises(CapExceeded, match="10000 cells"):
            grid_lattice((100, 100))
        with pytest.raises(CapExceeded, match="k = 50"):
            diamond_mk(50)
        with pytest.raises(CapExceeded, match=r"grid dimensions \(0, 3\) must be positive"):
            generate(GenSpec(seed=0, family="grid", dims=(0, 3)))

    def test_grid_cap_message_names_the_cap(self):
        with pytest.raises(CapExceeded, match=r"^grid with 4097 cells exceeds the generator cap "
                                              r"of 4096 cells$"):
            grid_lattice((17, 241))

    def test_lattice_enumeration_cap_message_names_the_sizes(self):
        with pytest.raises(CapExceeded, match=r"^exhaustive lattice enumeration of size 8 exceeds "
                                              r"the cap of 7 elements$"):
            lattices_of_size(8)


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

    def test_grid_function_output_is_pinned(self, capsys):
        # Every draw checks the base table's supermodularity; on a grid that
        # is decided from the factors, and the bytes must not move with it.
        code = main(["generate", "--seed", "7", "--family", "grid", "--dims", "32x32",
                     "--payoff", "supermodular_then_transform"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5be7db2b63048983ae208fe6dc8697db7de588533074a56b4a25807b73125e4a")

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
                    if L._leq(i, j):
                        assert i <= j
