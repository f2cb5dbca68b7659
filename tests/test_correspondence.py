"""Best-response correspondences as value masks over the opponents' up-rows,
against the label-level scan ``conftest.oracle_strong_set_order``; the
stdout of a failing ``verify --theorem zhou``; and the correspondence cap."""
import itertools
import json
import math
from fractions import Fraction

from latgames import Game, best_response_correspondence, is_increasing_strong_set_order
from latgames.cli import main
from latgames.games import enumerate_nash, radix_strides
from latgames.generators import chain_lattice, diamond
from latgames.io import game_obj, save_path
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL, oracle_strong_set_order


def assert_matches_oracle(G) -> int:
    """Compare every player's verdict with the oracle; return how many failed."""
    failed = 0
    for p in G.players:
        verdict = is_increasing_strong_set_order(best_response_correspondence(G, p))
        assert verdict == oracle_strong_set_order(G, p), (p, G.values)
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


def test_zhou_beyond_the_correspondence_cap_exits_two(capsys, tmp_path):
    G = own_index_game([2, 65, 64])
    assert enumerate_nash(G).count == 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(game_obj(G)))
    assert main(["verify", str(path), "--theorem", "zhou"]) == 2
    assert capsys.readouterr().out == ("ERROR StateSpaceTooLarge: opponent space of size 4160 "
                                       "exceeds the correspondence cap 4096\n")
