"""Best-response correspondences as value masks over the opponents' up-rows,
and zhou's cover-pair check ``games.best_response_strong_set_order``, both
against the label-level scan ``conftest.oracle_strong_set_order``; the
stdout of a failing ``verify --theorem zhou``; the correspondence cap,
which guards only the scan a failing check runs for its witness; and one
build of each player's opponent cover pairs per game."""
import itertools
import json
import math
from fractions import Fraction

import pytest

from latgames import (Game, argmax, best_response_correspondence, games,
                      is_increasing_strong_set_order, properties, reports)
from latgames.cli import main
from latgames.errors import StateSpaceTooLarge, TheoremFalsified
from latgames.games import best_response_strong_set_order, enumerate_nash, radix_strides
from latgames.generators import chain_lattice, diamond, random_monotone_supermodular
from latgames.io import game_obj, save_path
from latgames.lattice import product_lattice
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL, oracle_strong_set_order, plateau_game


def assert_matches_oracle(G) -> int:
    """Compare every player's verdict, from the correspondence scan and from
    the cover-pair check, with the oracle; return how many failed."""
    failed = 0
    for p in G.players:
        verdict = oracle_strong_set_order(G, p)
        assert is_increasing_strong_set_order(best_response_correspondence(G, p)) == verdict, \
            (p, G.values)
        assert best_response_strong_set_order(G, p) == verdict, (p, G.values)
        failed += not verdict.holds
    return failed


def perturbed(G, rng) -> Game:
    """G with one player's payoffs raised above the table's maximum at one
    to three profiles, so that there the own strategy becomes a best
    response, alone or tied with another raised entry."""
    player = rng.choice(G.players)
    values = list(G.values[player])
    top = max(values)
    for _ in range(1 + rng.below(3)):
        values[rng.below(len(values))] = top + 1 + rng.below(2)
    payoffs = dict(G.values)
    payoffs[player] = values
    return Game(G.players, G.strategies, G.codomains, payoffs)


def test_criterion_06_games(criterion_06_games):
    assert sum(map(assert_matches_oracle, criterion_06_games)) == 0


def test_perturbed_criterion_06_games(criterion_06_games):
    rng = Xoshiro256StarStar(0x550_0011)
    failed = sum(assert_matches_oracle(perturbed(G, rng)) for G in criterion_06_games)
    assert 100 < failed < 500, failed


def test_failing_zhou_report(capsys, tmp_path):
    # Player 1 is indifferent between the atoms a and b of the diamond
    # against c0, so that best-response value is not a sublattice; player 2
    # matches whether player 1 plays above 0.
    D, C = diamond(), chain_lattice(2)
    u1 = {"c0": {"0": 0, "a": 1, "b": 1, "1": 0}, "c1": {"0": 1, "a": 0, "b": 0, "1": 0}}
    profiles = list(itertools.product(D.labels, C.labels))
    payoffs = {"1": {(s1, s2): Fraction(u1[s2][s1]) for s1, s2 in profiles},
               "2": {(s1, s2): Fraction((s1 != "0") == (s2 == "c1")) for s1, s2 in profiles}}
    path = tmp_path / "atoms.json"
    save_path(path, Game(["1", "2"], {"1": D, "2": C}, {"1": RATIONAL, "2": RATIONAL}, payoffs))
    assert main(["verify", str(path), "--theorem", "zhou"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PROPERTY validated FAIL player=1 check=section-quasisupermodular opponents=(c0) "
        "x=a y=b clause=weak",
        "COUNT 0",
        "PROPERTY equilibria-nonempty FAIL",
        "PROPERTY complete-lattice FAIL",
        "PROPERTY best-response-strong-set-order:1 FAIL s=(c0) s2=(c0) x=a x2=b op=meet value=0",
        "PROPERTY best-response-strong-set-order:2 PASS",
    ]


def own_index_game(sizes) -> Game:
    """Chains of the given sizes, each player paid minus the label index of
    their own strategy: one best response everywhere, one equilibrium."""
    players = [f"p{k}" for k in range(len(sizes))]
    factors = [chain_lattice(n) for n in sizes]
    count = math.prod(sizes)
    payoffs = {p: [-(x // stride % n) for x in range(count)]
               for p, n, stride in zip(players, sizes, radix_strides(factors))}
    return Game(players, dict(zip(players, factors)), dict.fromkeys(players, RATIONAL), payoffs)


def test_opponent_space_at_the_cap():
    G = own_index_game([2, 64, 64])
    F = best_response_correspondence(G, "p0")
    assert len(F.keys) == len(F.up) == len(F.masks) == 4096
    assert set(F.masks) == {1}


def test_zhou_passes_beyond_the_correspondence_cap(capsys, tmp_path):
    # A passing check materializes nothing, so the cap does not apply.
    G = own_index_game([2, 65, 64])
    assert enumerate_nash(G).count == 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(game_obj(G)))
    assert main(["verify", str(path), "--theorem", "zhou"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PROPERTY validated PASS",
        "COUNT 1",
        "PROPERTY equilibria-nonempty PASS",
        "PROPERTY complete-lattice PASS",
        "PROPERTY best-response-strong-set-order:p0 PASS",
        "PROPERTY best-response-strong-set-order:p1 PASS",
        "PROPERTY best-response-strong-set-order:p2 PASS",
        "PROPERTY tarski-agreement PASS",
    ]


def test_failing_zhou_beyond_the_correspondence_cap_exits_two(capsys, tmp_path):
    # p0's best response falls from c1 to c0 once p1 leaves the bottom, so
    # the check fails and the scan for its witness meets the cap.
    G = own_index_game([2, 65, 64])
    payoffs = dict(G.values)
    payoffs["p0"] = [(1 if x // 64 % 65 == 0 else -1) * (x // 4160) for x in range(2 * 65 * 64)]
    G = Game(G.players, G.strategies, G.codomains, payoffs)
    with pytest.raises(StateSpaceTooLarge):
        best_response_strong_set_order(G, "p0")
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(game_obj(G)))
    assert main(["verify", str(path), "--theorem", "zhou"]) == 2
    assert capsys.readouterr().out == ("ERROR StateSpaceTooLarge: opponent space of size 4160 "
                                       "exceeds the correspondence cap 4096\n")


def test_every_two_player_zero_one_game_on_c2_by_c3():
    C2, C3 = chain_lattice(2), chain_lattice(3)
    tables = list(itertools.product((0, 1), repeat=6))
    failed = 0
    for u1, u2 in itertools.product(tables, repeat=2):
        G = Game(["1", "2"], {"1": C2, "2": C3}, {"1": RATIONAL, "2": RATIONAL},
                 {"1": list(u1), "2": list(u2)})
        failed += assert_matches_oracle(G)
    assert 0 < failed < 8192, failed


def seeded_game(rng, factors) -> Game:
    """Payoff own(s_i) + c(s_i) · Σ_j d_j(s_j), each part monotone and
    supermodular, so best responses rise; then, on a fair coin, perturbed."""
    players = [f"p{k}" for k in range(len(factors))]
    parts = [[random_monotone_supermodular(rng, f) for _ in range(3)] for f in factors]
    payoffs = {}
    for i, p in enumerate(players):
        own, c = parts[i][0], parts[i][1]
        payoffs[p] = [own[profile[i]] + c[profile[i]] * sum(
                          parts[j][2][label] for j, label in enumerate(profile) if j != i)
                      for profile in itertools.product(*(f.labels for f in factors))]
    G = Game(players, dict(zip(players, factors)), dict.fromkeys(players, RATIONAL), payoffs)
    return perturbed(G, rng) if rng.chance(1, 2) else G


def test_seeded_three_player_games_with_diamonds_chains_and_products():
    # Opponents include a diamond (covers of a factor that is not a chain)
    # and a product strategy set, whose labels hold commas but name every
    # opponent profile once.
    D, C2, C3 = diamond(), chain_lattice(2), chain_lattice(3)
    shapes = [(D, C2, C3), (C3, D, C2), (C2, C3, D), (D, D, C2), (C2, D, D),
              (product_lattice([C2, C2]), D, C2), (C2, product_lattice([C2, C3]), D)]
    rng = Xoshiro256StarStar(0x550_0019)
    failed = checks = 0
    for factors in shapes:
        for _ in range(24):
            G = seeded_game(rng, factors)
            failed += assert_matches_oracle(G)
            checks += len(G.players)
    assert 40 < failed < checks - 300, (failed, checks)


def _ladder(sizes, falling=False) -> Game:
    """Chains whose labels sort out of chain order from size 11 on; each
    player's one best response is the rank nearest the sum of the opponents'
    ranks, or, ``falling``, nearest its distance below their top."""
    factors = [chain_lattice(n, labels=[f"c{k}" for k in range(n)]) for n in sizes]
    players = [f"p{k}" for k in range(len(sizes))]
    count = math.prod(sizes)
    strides = radix_strides(factors)
    payoffs = {}
    for i, p in enumerate(players):
        row = []
        for x in range(count):
            ranks = [int(f.labels[x // stride % f.n][1:]) for f, stride in zip(factors, strides)]
            rest = sum(ranks) - ranks[i]
            target = sum(n - 1 for n in sizes) - (sizes[i] - 1) - rest if falling else rest
            row.append(-abs(ranks[i] - min(target, sizes[i] - 1)))
        payoffs[p] = row
    return Game(players, dict(zip(players, factors)), dict.fromkeys(players, RATIONAL), payoffs)


@pytest.mark.parametrize("G", [
    plateau_game([chain_lattice(6), chain_lattice(6)]), plateau_game([diamond(), chain_lattice(4)]),
    plateau_game([chain_lattice(3)] * 3), _ladder([2, 8]), _ladder([12, 4]), _ladder([3, 3, 3]),
], ids=["plateau-2x6", "plateau-diamond-c4", "plateau-3x3", "ladder-2x8", "ladder-12x4",
        "ladder-3x3x3"])
def test_plateau_and_ladder_games_pass(G):
    assert assert_matches_oracle(G) == 0


@pytest.mark.parametrize("sizes", [[2, 8], [12, 4], [3, 3, 3]])
def test_falling_ladders_fail(sizes):
    G = _ladder(sizes, falling=True)
    assert assert_matches_oracle(G) == len(sizes)


def test_a_passing_check_materializes_nothing(monkeypatch, criterion_06_games):
    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return wrapper

    for name in ("product_elements", "best_response_correspondence"):
        monkeypatch.setattr(games, name, counted(getattr(games, name)))
    for G in [plateau_game([chain_lattice(32), chain_lattice(32)]), _ladder([12, 4])] + \
            criterion_06_games[:100]:
        for p in G.players:
            assert best_response_strong_set_order(G, p).holds
        lines, _ = reports.zhou_report(G)
        assert all(line.endswith("PASS") for line in lines if "strong-set-order" in line)
    assert calls == []
    # the counters do see the scan a failing check runs for its witness
    assert not best_response_strong_set_order(_ladder([2, 8], falling=True), "p0").holds
    assert calls == ["best_response_correspondence", "product_elements"]


def test_the_rescan_tests_each_pair_of_values_once(monkeypatch):
    calls = []
    original = argmax.strong_set_witness

    def counted(L, lo, hi):
        calls.append((lo, hi))
        return original(L, lo, hi)

    monkeypatch.setattr(argmax, "strong_set_witness", counted)
    G = plateau_game([diamond(), chain_lattice(5)])
    for p in G.players:
        calls.clear()
        assert is_increasing_strong_set_order(best_response_correspondence(G, p)).holds
        assert len(calls) == len(set(calls)) == 1
    F = best_response_correspondence(_ladder([3, 3, 3]), "p0")
    calls.clear()
    assert is_increasing_strong_set_order(F).holds
    pairs = {(lo, F.masks[k2]) for lo, up in zip(F.masks, F.up) for k2 in range(len(F.keys))
             if up >> k2 & 1}
    assert len(calls) == len(set(calls)) == len(pairs) == 6


def test_a_cover_pair_failure_the_scan_cannot_confirm_is_loud(monkeypatch):
    monkeypatch.setattr(games, "strong_set_witness", lambda L, lo, hi: (0, 0, "meet", 0))
    with pytest.raises(TheoremFalsified):
        best_response_strong_set_order(plateau_game([chain_lattice(2), chain_lattice(2)]), "p1")


def _clash_game() -> Game:
    """Opponents q and r label the profiles (a, b,c) and (a,b, c) alike."""
    S = {"p": chain_lattice(2), "q": chain_lattice(2, labels=["a", "a,b"]),
         "r": chain_lattice(2, labels=["c", "b,c"])}
    return Game(list(S), S, dict.fromkeys(S, RATIONAL), {p: [0] * 8 for p in S})


def test_opponent_labels_that_encode_alike_exit_two(capsys, tmp_path):
    path = tmp_path / "clash.json"
    save_path(path, _clash_game())
    assert main(["verify", str(path), "--theorem", "zhou"]) == 2
    assert capsys.readouterr().out == \
        "ERROR DuplicateLabel: product label '(a,b,c)' names two elements\n"
    assert main(["solve", str(path)]) == 0


def test_zhou_builds_each_players_opponent_covers_once(monkeypatch, criterion_06_games):
    built = []
    cover_pairs = games.cover_pairs

    def counting(factors):
        built.append(len(factors))
        return cover_pairs(factors)

    monkeypatch.setattr(games, "cover_pairs", counting)
    monkeypatch.setattr(properties, "cover_pairs", counting)
    for G in criterion_06_games[:50]:
        expected = reports.zhou_report(G)
        fresh = Game(G.players, G.strategies, G.codomains, G.values)
        before = len(built)
        assert reports.zhou_report(fresh) == expected
        assert built[before:] == [len(G.players) - 1] * len(G.players)
