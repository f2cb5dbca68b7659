"""Dense rank keys: equal to a ranking of the values read from the codomain's
definition, and unchanged by strictly increasing maps, for functions, game
players and labeled chains."""
from __future__ import annotations

import resource
import time
from fractions import Fraction

from latgames import Game
from latgames.functions import ChainCodomain, LatticeFunction
from latgames.generators import (all_lattices, chain_lattice, grid_lattice,
                                 random_strictly_increasing_map)
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL, value_order


def direct_ranks(codomain, values) -> list:
    """Each value's number of distinct smaller values."""
    key = value_order(codomain)
    distinct = sorted({key(v) for v in values})
    return [distinct.index(key(v)) for v in values]


def _rational_tables(rng, L, count=4):
    """Tables with many ties, mixed signs and unlike denominators."""
    for _ in range(count):
        yield {label: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10**20 + 39)))
               for label in L.labels}
    yield {label: rng.randint(-3, 3) for label in L.labels}


def _chain_embedding(rng, labels) -> tuple:
    """A longer labeled chain and a strictly increasing map of ``labels`` into it."""
    longer, image = [], {}
    for label in labels:
        longer += [f"gap{len(longer) + k}" for k in range(rng.below(3))]
        image[label] = f"to-{label}"
        longer.append(image[label])
    return ChainCodomain.labeled(longer), image


def test_function_ranks_on_small_lattices_and_under_maps():
    rng = Xoshiro256StarStar(0xA7_0001)
    lattices = list(all_lattices(5)) + [grid_lattice((3, 4)), chain_lattice(9)]
    for L in lattices:
        for table in _rational_tables(rng, L):
            f = LatticeFunction(L, RATIONAL, table)
            assert list(f.keys) == direct_ranks(RATIONAL, f.values)
            g = f.transform(random_strictly_increasing_map(rng, f.image()))
            assert g.keys == f.keys
            assert g.image() == tuple(sorted(set(g.values)))


def test_labeled_chain_ranks_under_embeddings():
    rng = Xoshiro256StarStar(0xA7_0002)
    chain = ("lo", "mid", "hi", "top")
    codomain = ChainCodomain.labeled(chain)
    for L in list(all_lattices(4)) + [grid_lattice((2, 3))]:
        for _ in range(4):
            f = LatticeFunction(L, codomain, {label: chain[rng.below(4)] for label in L.labels})
            assert list(f.keys) == direct_ranks(codomain, f.values)
            longer, t = _chain_embedding(rng, chain)
            g = LatticeFunction(L, longer, {label: t[v] for label, v in f.table().items()})
            assert g.keys == f.keys
            assert g.image() == tuple(t[v] for v in f.image())


def test_game_player_ranks_under_maps(criterion_06_games):
    rng = Xoshiro256StarStar(0xA7_0003)
    for G in criterion_06_games[:200]:
        for p in G.players:
            assert G.ranks[p] == direct_ranks(G.codomains[p], G.values[p])
            H = G.transformed(p, random_strictly_increasing_map(rng, set(G.values[p])))
            assert H.ranks == G.ranks
            assert H.values[p] != G.values[p] or len(set(G.values[p])) == 1


def test_labeled_game_ranks_under_embeddings():
    rng = Xoshiro256StarStar(0xA7_0004)
    S = chain_lattice(3)
    chain = ("bad", "fair", "good")
    for _ in range(20):
        tables = {p: {(a, b): chain[rng.below(3)] for a in S.labels for b in S.labels}
                  for p in ("p1", "p2")}
        codomains = {p: ChainCodomain.labeled(chain) for p in tables}
        G = Game(list(tables), {p: S for p in tables}, codomains, tables)
        longer, t = _chain_embedding(rng, chain)
        mapped = {p: {profile: t[v] for profile, v in table.items()}
                  for p, table in tables.items()}
        H = Game(list(tables), {p: S for p in tables}, {p: longer for p in tables}, mapped)
        for p in tables:
            assert G.ranks[p] == direct_ranks(codomains[p], G.values[p])
        assert H.ranks == G.ranks


def test_rational_ranks_stay_small_on_coprime_denominators():
    # 10^4 values 1/p over distinct, mostly coprime 20-digit p: a common
    # denominator of them all has about 660,000 bits, and so would each key
    values = [Fraction(1, 10**20 + 2 * k + 1) for k in range(10**4)]
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    ranks = RATIONAL.ranks(values)
    elapsed = time.perf_counter() - start
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
    assert ranks == list(range(len(values) - 1, -1, -1))
    assert elapsed < 10
    assert grown_kib < 64 * 1024
