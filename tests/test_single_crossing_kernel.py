"""The cover-pair single-crossing kernel against the exhaustive scan it replaced.

The oracles below are the canonical quartic scans over every p <= p2 and
every q <= q2, kept here only to pin the kernel down: on every instance the
kernel must return the same ``Verdict``, least witness and clause included.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from latgames import ChainCodomain, Game, LatticeFunction, product_lattice
from latgames.games import validate_game
from latgames.generators import all_lattices, chain_lattice, diamond
from latgames.lattice import tuple_label
from latgames.properties import is_quasisupermodular, is_single_crossing
from latgames.rng import Xoshiro256StarStar
from latgames.verdict import Verdict

RATIONAL = ChainCodomain.rational()


# ------------------------------------------------------------------ oracles

def _leq(factors, a, b):
    return all(f.poset._leq(x, y) for f, x, y in zip(factors, a, b))


def _clause(lo_q, hi_q, lo_q2, hi_q2):
    if lo_q <= hi_q and not lo_q2 <= hi_q2:
        return "weak"
    if lo_q < hi_q and not lo_q2 < hi_q2:
        return "strict"
    return None


def oracle_single_crossing(f: LatticeFunction, p_part, q_part) -> Verdict:
    """Exhaustive canonical scan over every p <= p2 and q <= q2 of the blocks."""
    factors = f.domain.factors
    P = [factors[k] for k in p_part]
    Q = [factors[k] for k in q_part]
    ps = list(itertools.product(*(range(x.n) for x in P)))
    qs = list(itertools.product(*(range(x.n) for x in Q)))

    def key(p, q):
        coord = [0] * len(factors)
        for k, c in zip(p_part + q_part, p + q):
            coord[k] = c
        return f.keys[f.domain.coord_index[tuple(coord)]]

    def label(block, coord):
        labels = tuple(x.labels[c] for x, c in zip(block, coord))
        return labels[0] if len(labels) == 1 else tuple_label(labels)

    for p, p2 in itertools.product(ps, repeat=2):
        if p == p2 or not _leq(P, p, p2):
            continue
        for q, q2 in itertools.product(qs, repeat=2):
            if q == q2 or not _leq(Q, q, q2):
                continue
            clause = _clause(key(p, q), key(p2, q), key(p, q2), key(p2, q2))
            if clause is not None:
                return Verdict(False, witness=(
                    ("p", label(P, p)), ("p2", label(P, p2)),
                    ("q", label(Q, q)), ("q2", label(Q, q2)), ("clause", clause)))
    return Verdict(True)


def oracle_validate_game(G: Game) -> Verdict:
    """Sectionwise quasisupermodularity, then the exhaustive single-crossing
    scan over opponent profiles, player by player."""
    for i, player in enumerate(G.players):
        for opp in G.opp_profiles(i):
            inner = is_quasisupermodular(G.section(i, opp))
            if not inner.holds:
                return Verdict(False, witness=(
                    ("player", player), ("check", "section-quasisupermodular"),
                    ("opponents", opp)) + inner.witness)
        factor = G.factors[i]
        others = G.factors[:i] + G.factors[i + 1:]
        keys = G.keys[player]
        opps = list(G.opp_profiles(i))
        coords = [tuple(f.index[x] for f, x in zip(others, q)) for q in opps]
        leq_pairs = [(c, d) for c, d in itertools.product(range(len(opps)), repeat=2)
                     if c != d and _leq(others, coords[c], coords[d])]
        for p, p2 in itertools.product(factor.labels, repeat=2):
            if p == p2 or not factor.leq(p, p2):
                continue
            lo = [keys[G._insert(i, q, p)] for q in opps]
            hi = [keys[G._insert(i, q, p2)] for q in opps]
            for c, d in leq_pairs:
                clause = _clause(lo[c], hi[c], lo[d], hi[d])
                if clause is not None:
                    return Verdict(False, witness=(
                        ("player", player), ("check", "single-crossing"), ("p", p),
                        ("p2", p2), ("q", opps[c]), ("q2", opps[d]), ("clause", clause)))
    return Verdict(True)


# ------------------------------------------------------------- instances

def _tables(rng, D, L, C):
    """Seeded tables on D = L x C with many ties: uniform noise, separable
    sums (single crossing holds), sums with one entry nudged, and sums plus
    a product of monotone weights (increasing differences)."""
    yield {label: rng.below(3) for label in D.labels}
    g = [rng.below(3) for _ in range(L.n)]
    h = [rng.below(3) for _ in range(C.n)]
    separable = {label: g[a] + h[b] for label, (a, b) in zip(D.labels, D.coords)}
    yield separable
    for _ in range(3):
        nudged = dict(separable)
        label = D.labels[rng.below(D.n)]
        nudged[label] += rng.choice((-1, 1))
        yield nudged
    w = [bin(L.poset.down[a]).count("1") // 2 for a in range(L.n)]
    yield {label: separable[label] + w[a] * b for label, (a, b) in zip(D.labels, D.coords)}


def _function_cases():
    rng = Xoshiro256StarStar(0x5C_0001)
    for L in all_lattices(6):
        for m in (2, 3):
            C = chain_lattice(m)
            D = product_lattice([L, C])
            for table in _tables(rng, D, L, C):
                yield LatticeFunction(D, RATIONAL, table)


def _perturbed(G: Game, seed: int) -> Game:
    """The game with one payoff entry moved: to another value of the same
    table (a tie) or by one unit up or down."""
    rng = Xoshiro256StarStar(seed)
    player = rng.choice(G.players)
    profiles = list(G.profiles())
    target = profiles[rng.below(len(profiles))]
    table = dict(G.payoffs[player])
    if rng.chance(1, 2):
        table[target] = table[profiles[rng.below(len(profiles))]]
    else:
        table[target] += rng.choice((Fraction(-1), Fraction(1)))
    payoffs = dict(G.payoffs)
    payoffs[player] = table
    return Game(G.players, G.strategies, G.codomains, payoffs)


# ------------------------------------------------------------------ tests

def test_functions_on_all_small_lattices_times_a_chain():
    outcomes = Counter()
    cases = 0
    for f in _function_cases():
        for split in (0, 1):
            got = is_single_crossing(f, split=split)
            assert got == oracle_single_crossing(f, (split,), (1 - split,)), (f.table(), split)
            outcomes["pass" if got.holds else got.witness_dict()["clause"]] += 1
        cases += 1
    assert cases == 51 * 2 * 6
    assert outcomes["pass"] and outcomes["weak"] and outcomes["strict"], outcomes


def test_multi_factor_blocks():
    """Splits naming two factors on one side, over a three-factor product."""
    rng = Xoshiro256StarStar(0x5C_0002)
    factors = [chain_lattice(2), diamond(), chain_lattice(3)]
    D = product_lattice(factors)
    for _ in range(40):
        f = LatticeFunction(D, RATIONAL, {label: rng.below(3) for label in D.labels})
        for split in (0, 1, 2, (0, 2), (1, 2)):
            got = is_single_crossing(f, split=split)
            p_part = (split,) if isinstance(split, int) else split
            q_part = tuple(k for k in range(3) if k not in p_part)
            assert got == oracle_single_crossing(f, p_part, q_part)


def test_criterion_06_games_and_their_perturbations(criterion_06_games):
    clauses = Counter()
    for k, G in enumerate(criterion_06_games):
        assert validate_game(G) == oracle_validate_game(G) == Verdict(True)
        H = _perturbed(G, seed=k)
        got = validate_game(H)
        assert got == oracle_validate_game(H), k
        if not got.holds and got.witness_dict()["check"] == "single-crossing":
            clauses[got.witness_dict()["clause"]] += 1
    assert clauses["weak"] and clauses["strict"], clauses
