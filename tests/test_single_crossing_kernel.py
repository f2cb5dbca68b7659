"""The cover-pair kernel against the exhaustive scans it replaced.

Single crossing (sign step on keys) and increasing differences (difference
step on values) share one kernel.  The oracles below are the canonical
quartic scans over every p <= p2 and every q <= q2, kept here only to pin
the kernel down: on every instance it must return the same ``Verdict``,
least witness and clause included.  Increasing differences are decided on
the cover pairs of P as well; a passing check builds one difference
column per cover pair of P, and a failing one still reports the least
witness over every p <= p2.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from latgames import ChainCodomain, Game, LatticeFunction, product_lattice, properties
from latgames.errors import NotAProductDomain, TheoremFalsified
from latgames.functions import integer_values
from latgames.games import validate_game
from latgames.generators import all_lattices, chain_lattice, diamond, grid_lattice
from latgames.lattice import tuple_label
from latgames.properties import has_increasing_differences, is_single_crossing, is_supermodular
from latgames.rng import Xoshiro256StarStar
from latgames.verdict import Verdict

from conftest import (coord_leq, oracle_supermodular, oracle_validate_game, product_tables,
                      sc_clause, small_product_functions)
from test_qsm_kernel import planted

RATIONAL = ChainCodomain.rational()


# ------------------------------------------------------------------ oracles

def _quartic_scan(f: LatticeFunction, p_part, q_part, table, fails) -> Verdict:
    """Exhaustive canonical scan over every p <= p2 and q <= q2 of the blocks.

    ``fails`` gets the ``table`` entries at (p,q), (p2,q), (p,q2), (p2,q2) and
    returns None, or the witness fields that follow p, p2, q and q2.
    """
    factors = f.domain.factors
    P = [factors[k] for k in p_part]
    Q = [factors[k] for k in q_part]
    ps = list(itertools.product(*(range(x.n) for x in P)))
    qs = list(itertools.product(*(range(x.n) for x in Q)))

    def at(p, q):
        coord = [0] * len(factors)
        for k, c in zip(p_part + q_part, p + q):
            coord[k] = c
        return table[f.domain.coords.index(tuple(coord))]

    def label(block, coord):
        labels = tuple(x.labels[c] for x, c in zip(block, coord))
        return labels[0] if len(labels) == 1 else tuple_label(labels)

    for p, p2 in itertools.product(ps, repeat=2):
        if p == p2 or not coord_leq(P, p, p2):
            continue
        for q, q2 in itertools.product(qs, repeat=2):
            if q == q2 or not coord_leq(Q, q, q2):
                continue
            extra = fails(at(p, q), at(p2, q), at(p, q2), at(p2, q2))
            if extra is not None:
                return Verdict(False, witness=(
                    ("p", label(P, p)), ("p2", label(P, p2)),
                    ("q", label(Q, q)), ("q2", label(Q, q2))) + extra)
    return Verdict(True)


def oracle_single_crossing(f: LatticeFunction, p_part, q_part) -> Verdict:
    def fails(*keys):
        clause = sc_clause(*keys)
        return None if clause is None else (("clause", clause),)
    return _quartic_scan(f, p_part, q_part, f.keys, fails)


def oracle_increasing_differences(f: LatticeFunction, p_part, q_part) -> Verdict:
    def fails(lo_q, hi_q, lo_q2, hi_q2):
        return () if hi_q2 - lo_q2 < hi_q - lo_q else None
    return _quartic_scan(f, p_part, q_part, f.values, fails)


# ------------------------------------------------------------- instances

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


def _three_factor_tables(rng, D):
    """Uniform noise, and separable sums (increasing differences hold for
    every split) with one entry nudged half the time."""
    while True:
        yield {label: rng.below(3) for label in D.labels}
        parts = [[rng.below(3) for _ in range(f.n)] for f in D.factors]
        table = {label: sum(g[c] for g, c in zip(parts, coord))
                 for label, coord in zip(D.labels, D.coords)}
        if rng.chance(1, 2):
            table[D.labels[rng.below(D.n)]] += rng.choice((-1, 1))
        yield table


# ------------------------------------------------------------------ tests

def test_functions_on_all_small_lattices_times_a_chain():
    outcomes = Counter()
    cases = 0
    for f in small_product_functions(0x5C_0001):
        for split in (0, 1):
            parts = (split,), (1 - split,)
            got = is_single_crossing(f, split=split)
            assert got == oracle_single_crossing(f, *parts), (f.table(), split)
            outcomes["pass" if got.holds else got.witness_dict()["clause"]] += 1
            got = has_increasing_differences(f, split=split)
            assert got == oracle_increasing_differences(f, *parts), (f.table(), split)
            outcomes["incr-diff " + ("pass" if got.holds else "fail")] += 1
        cases += 1
    assert cases == 51 * 2 * 6
    assert all(outcomes[k] for k in ("pass", "weak", "strict", "incr-diff pass",
                                     "incr-diff fail")), outcomes


def test_multi_factor_blocks():
    """Every factor of a three-factor product against the rest, and blocks
    of two factors, in factor order and out of it, as one factor of a
    nested product: its verdicts are the flat scan's with the block as P.
    A tuple split is not a factor index."""
    rng = Xoshiro256StarStar(0x5C_0002)
    factors = [chain_lattice(2), diamond(), chain_lattice(3)]
    D = product_lattice(factors)
    at = dict(zip(D.coords, D.labels))
    blocks = []
    for p_part in ((0, 2), (1, 2), (2, 0), (2, 1), (1, 0)):
        q_part = tuple(k for k in range(3) if k not in p_part)
        block = product_lattice([factors[k] for k in p_part])
        nested = product_lattice([factors[q_part[0]], block])
        flat = []  # the element of D at each element of the nested product
        for q, b in nested.coords:
            coord = [0] * 3
            for k, c in zip(q_part + p_part, (q,) + block.coords[b]):
                coord[k] = c
            flat.append(at[tuple(coord)])
        blocks.append((p_part, q_part, nested, flat))
    outcomes = Counter()
    for table in itertools.islice(_three_factor_tables(rng, D), 80):
        f = LatticeFunction(D, RATIONAL, table)
        for split in (0, 1, 2):
            q_part = tuple(k for k in range(3) if k != split)
            assert is_single_crossing(f, split=split) == oracle_single_crossing(f, (split,), q_part)
            got = has_increasing_differences(f, split=split)
            assert got == oracle_increasing_differences(f, (split,), q_part), (table, split)
            outcomes[got.holds] += 1
        for p_part, q_part, nested, flat in blocks:
            g = LatticeFunction(nested, RATIONAL, dict(zip(nested.labels, map(table.get, flat))))
            assert is_single_crossing(g, split=1) == oracle_single_crossing(f, p_part, q_part)
            got = has_increasing_differences(g, split=1)
            assert got == oracle_increasing_differences(f, p_part, q_part), (table, p_part)
            outcomes[got.holds] += 1
    assert outcomes[True] and outcomes[False], outcomes
    for p_part, _, _, _ in blocks:
        with pytest.raises(NotAProductDomain):
            is_single_crossing(f, split=p_part)
        with pytest.raises(NotAProductDomain):
            has_increasing_differences(f, split=p_part)


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


@pytest.mark.parametrize("dens", [(3, 7), (2**61 - 1, 2**31 - 1)], ids=["small", "beyond-2^64"])
def test_increasing_differences_on_integer_values_match_the_fraction_path(dens, monkeypatch):
    """Adding g(p)/d1 + h(q)/d2 keeps every difference of differences, so
    the verdicts are those of the integer tables; with the two large primes
    the common denominator d1·d2 exceeds 2^64 and no integer form exists."""
    rng = Xoshiro256StarStar(0x1D_0064)
    functions = []
    for f in itertools.islice(small_product_functions(0x1D_0001), 0, None, 5):
        g = [Fraction(rng.randint(1, 4), dens[0]) for _ in range(f.domain.factors[0].n)]
        h = [Fraction(rng.randint(1, 4), dens[1]) for _ in range(f.domain.factors[1].n)]
        functions.append(LatticeFunction(f.domain, RATIONAL, {
            label: v + g[a] + h[b]
            for (label, v), (a, b) in zip(f.table().items(), f.domain.coords)}))
        assert (integer_values(functions[-1]) is None) == (dens[0] > 2**32)
    got = [has_increasing_differences(f, split=s) for f in functions for s in (0, 1)]
    monkeypatch.setattr(properties, "integer_values", lambda values: None)
    assert got == [has_increasing_differences(f, split=s) for f in functions for s in (0, 1)]
    assert got == [oracle_increasing_differences(f, (s,), (1 - s,))
                   for f in functions for s in (0, 1)]
    assert any(v.holds for v in got) and not all(v.holds for v in got)


def test_a_cover_pair_drop_the_rescan_cannot_confirm_is_loud(monkeypatch):
    # f(p, q) = p·(q - 1) rises in q at p = 1, so it is single crossing;
    # with lows and highs swapped the kernel sees a drop on a real cover
    # pair, and the rescan over every q <= q2 finds none.
    D = grid_lattice((2, 3))
    f = LatticeFunction(D, RATIONAL,
                        {label: p * (q - 1) for label, (p, q) in zip(D.labels, D.coords)})
    assert is_single_crossing(f, 0).holds
    cover_pairs = properties.cover_pairs
    monkeypatch.setattr(properties, "cover_pairs", lambda factors: cover_pairs(factors)[::-1])
    with pytest.raises(TheoremFalsified):
        is_single_crossing(f, 0)


# ------------------------------------------- increasing differences on covers

def _comparable_pairs(P) -> int:
    return sum(row.bit_count() - 1 for row in P.up)


@pytest.fixture
def differences_built(monkeypatch):
    """The difference columns built by the property checkers, one entry each."""
    built = []
    differences = properties._differences

    def counting(hi, lo):
        built.append(1)
        return differences(hi, lo)

    monkeypatch.setattr(properties, "_differences", counting)
    return built


@pytest.mark.parametrize("factors", [
    [chain_lattice(8), chain_lattice(8)],
    [diamond(), chain_lattice(4)],
    [chain_lattice(3), diamond(), chain_lattice(5)],
], ids=["8x8", "diamond-4", "3-diamond-5"])
def test_a_passing_check_builds_one_difference_column_per_cover_pair(factors, differences_built):
    # h(x) = |down(x)| is supermodular and increasing on every factor, so the
    # product of the h is supermodular with increasing differences.
    D = product_lattice(factors)
    f = LatticeFunction(D, RATIONAL, {
        label: Fraction(1, 3) * sum(f.down[c].bit_count() for f, c in zip(factors, coord))
        + Fraction(1, 2) * math.prod(f.down[c].bit_count() for f, c in zip(factors, coord))
        for label, coord in zip(D.labels, D.coords)})
    for split, P in enumerate(factors):
        differences_built.clear()
        assert has_increasing_differences(f, split=split).holds
        assert len(differences_built) == len(P.covers) < _comparable_pairs(P)
    differences_built.clear()
    assert is_supermodular(f).holds
    assert len(differences_built) == sum(len(P.covers) for P in factors[:-1])


def _separable_coupled(rng, n: int) -> LatticeFunction:
    """g(a) + h(b) + a·b on an n x n grid: supermodular, with increasing
    differences for both splits."""
    D = grid_lattice((n, n))
    g = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    h = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
    return LatticeFunction(D, RATIONAL, {label: g[a] + h[b] + a * b
                                         for label, (a, b) in zip(D.labels, D.coords)})


@pytest.mark.parametrize("n", [8, 12, 16])
def test_planted_late_failures_return_the_least_witness(n):
    rng = Xoshiro256StarStar(0x1D_0027 + n)
    base = _separable_coupled(rng, n)
    assert has_increasing_differences(base, split=0).holds
    steep = rng.randint(2, 5)
    f = planted(base, 1 + rng.below(4), steep, rng.randint(1, steep - 1))
    for split in (0, 1):
        got = has_increasing_differences(f, split=split)
        assert not got.holds
        assert got == oracle_increasing_differences(f, (split,), (1 - split,)), split
    assert is_supermodular(f) == oracle_supermodular(f)
    assert not is_supermodular(f).holds


def test_non_chain_factors_match_the_oracle_on_both_value_paths(monkeypatch):
    """Every lattice L of size <= 5 against a chain, P = L and P = the chain,
    on tables with thirds and halves; with ``integer_values`` patched to None
    the columns hold ``Fraction``s, the path for denominators past 2^64."""
    rng = Xoshiro256StarStar(0x1D_0005)
    functions = []
    for L in all_lattices(5):
        for m in (2, 3):
            C = chain_lattice(m)
            D = product_lattice([L, C])
            for table in product_tables(rng, D, L, C):
                functions.append(LatticeFunction(D, RATIONAL, {
                    label: v * Fraction(1, 3) + Fraction(a % 2, 2)
                    for (label, v), (a, _) in zip(table.items(), D.coords)}))
    want = [oracle_increasing_differences(f, (s,), (1 - s,)) for f in functions for s in (0, 1)]
    assert [has_increasing_differences(f, split=s) for f in functions for s in (0, 1)] == want
    monkeypatch.setattr(properties, "integer_values", lambda values: None)
    assert [has_increasing_differences(f, split=s) for f in functions for s in (0, 1)] == want
    outcomes = Counter((v.holds, s) for v, s in zip(want, itertools.cycle((0, 1))))
    assert all(outcomes[k] for k in itertools.product((True, False), (0, 1))), outcomes
