"""Pinned generator streams.

The benchmark workloads, the acceptance suite and the corpus are built from
these seeded streams, so a change to a generator must leave every draw and
every instance as it was.  Each test hashes the canonical text of a stream
and compares it with a digest recorded before the generators were last
rewritten; comparing two runs of the same code would not catch a drift.
"""
import hashlib

from latgames.generators import (
    REJECTION,
    SUPERMODULAR_THEN_TRANSFORM,
    chain_lattice,
    diamond,
    diamond_mk,
    lattices_of_size,
    meet_join_closure_lattice,
    random_function,
    random_game,
    random_strictly_increasing_map,
)
from latgames.io import serialize
from latgames.lattice import product_lattice
from latgames.rng import Xoshiro256StarStar

SEEDS = (1, 2, 3, 5, 8)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def function_stream():
    """Meet-join closures and functions on lattices that are not products of
    chains (the up-set-plus-shift branch), under both payoff strategies."""
    for seed in SEEDS:
        rng = Xoshiro256StarStar(seed)
        L = meet_join_closure_lattice(rng)
        yield serialize(L)
        for D in (L, diamond_mk(3), chain_lattice(5), product_lattice([diamond(), chain_lattice(2)])):
            for strategy in (SUPERMODULAR_THEN_TRANSFORM, REJECTION):
                yield serialize(random_function(rng, D, strategy))


def large_game_stream():
    """Games whose strategy lattices may exceed six elements, where
    ``_random_supermodular_any`` falls back to the up-set construction."""
    rng = Xoshiro256StarStar(0x5EED_0008)
    for _ in range(12):
        yield serialize(random_game(rng, max_players=2, max_size=8))


def transformed_stream(games):
    """The first criterion-06 games with each player's payoffs mapped in
    turn by ``Game.transformed``, under maps from one seed."""
    rng = Xoshiro256StarStar(0x5EED_0009)
    for G in games:
        for p in G.players:
            G = G.transformed(p, random_strictly_increasing_map(rng, set(G.values[p])))
            yield serialize(G)


def lattice_rows():
    for n in range(1, 7):
        for L in lattices_of_size(n):
            yield repr((L.labels, L.up))


def test_criterion_06_games_are_pinned(criterion_06_games):
    assert digest(map(serialize, criterion_06_games)) == (
        "73ccbbc33b1d9ab20b79f42cbc759ba786969ca13674c27a4d4266c8f383422a")


def test_function_stream_is_pinned():
    assert digest(function_stream()) == (
        "d52905e0bc095da25bf87fa8dc4e938840f7d3af284e074f61b4a21b83279cbc")


def test_large_game_stream_is_pinned():
    assert digest(large_game_stream()) == (
        "1bd1518778d9f74c57dd6035e0e13b16c6e25ee09fc5406ded51b77fbbc059b2")


def test_transformed_stream_is_pinned(criterion_06_games):
    assert digest(transformed_stream(criterion_06_games[:40])) == (
        "595b9ed325d2cbf4084ca80c5b4926b21593a8b5032c9c5a1ce39be1fb8f5783")


def test_lattice_enumeration_is_pinned():
    assert digest(lattice_rows()) == (
        "8ebe9458892e78d94ed4c13752d316a4c9102b723d548d4d6c6ac0b498e66a01")
