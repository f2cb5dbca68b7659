"""The quasisupermodularity kernel against a plain pairwise scan.

``properties.qsm_witness`` decides QSM for a function, for every section of a
function and for every section of a game.  Here each of those must return
the same ``Verdict`` as ``conftest.oracle_qsm``, which takes meets and joins
from the raw order relation and visits every ordered pair.  On a product of
two chains ``is_quasisupermodular`` decides by ``two_chain_failing_x`` and
scans only the x it names; its verdicts and witnesses must be those of
``qsm_witness`` over every pair, also on chains whose labels sort in
another order than their ranks.
"""
from __future__ import annotations

import itertools
from collections import Counter

import pytest

from latgames import ChainCodomain, Game, LatticeFunction, product_lattice
from latgames import properties
from latgames.errors import TheoremFalsified
from latgames.games import validate_game
from latgames.generators import (SUPERMODULAR_THEN_TRANSFORM, chain_lattice, diamond, diamond_mk,
                                 grid_lattice, random_function)
from latgames.lattice import chain_ranks, tuple_label
from latgames.properties import (is_quasisupermodular, is_single_crossing, qsm_witness,
                                 sections_quasisupermodular)
from latgames.rng import Xoshiro256StarStar
from latgames.verdict import Verdict

from conftest import oracle_qsm, oracle_validate_game, small_product_functions

RATIONAL = ChainCodomain.rational()


def _verdict(hit, *head) -> Verdict:
    if hit is None:
        return Verdict(True)
    x, y, clause = hit
    return Verdict(False, witness=head + (("x", x), ("y", y), ("clause", clause)))


def oracle_function_qsm(f: LatticeFunction) -> Verdict:
    return _verdict(oracle_qsm(f.domain, f.keys))


def oracle_sections(f: LatticeFunction, split: int) -> Verdict:
    """Each section over factor ``split``, at every q of the other factors in
    canonical nested order."""
    D = f.domain
    S = D.factors[split]
    Q = D.factors[:split] + D.factors[split + 1:]
    for q in itertools.product(*(range(x.n) for x in Q)):
        keys = [f.keys[D.coords.index(q[:split] + (s,) + q[split:])] for s in range(S.n)]
        hit = oracle_qsm(S, keys)
        if hit is not None:
            labels = tuple(x.labels[c] for x, c in zip(Q, q))
            return _verdict(hit, ("at", labels[0] if len(labels) == 1 else tuple_label(labels)))
    return Verdict(True)


def _break_a_section(G: Game, seed: int) -> Game | None:
    """The game with one payoff moved so that a section of a player whose
    strategy lattice is not a chain may fail QSM: at an incomparable pair
    (x, y), f(x v y) becomes f(y) (a tie, for the strict clause) or f(y) - 1
    (for the weak clause).  None when every strategy lattice is a chain."""
    rng = Xoshiro256StarStar(seed)
    candidates = []
    for i, L in enumerate(G.factors):
        P = L
        candidates += [(i, x, y) for x in range(L.n)
                       for y in range(x + 1, L.n) if not (P.up[x] | P.down[x]) >> y & 1]
    if not candidates:
        return None
    i, x, y = rng.choice(candidates)
    L, player = G.factors[i], G.players[i]
    opps = list(G.opp_profiles(i))
    opp = opps[rng.below(len(opps))]
    table = dict(G.payoffs[player])
    at_y = table[opp[:i] + (L.labels[y],) + opp[i:]]
    table[opp[:i] + (L.labels[L.join[x][y]],) + opp[i:]] = at_y - rng.below(2)
    payoffs = dict(G.payoffs)
    payoffs[player] = table
    return Game(G.players, G.strategies, G.codomains, payoffs)


def test_functions_and_sections_on_all_small_lattices_times_a_chain():
    outcomes = Counter()
    for f in small_product_functions(0x5C_0003):
        got = is_quasisupermodular(f)
        assert got == oracle_function_qsm(f), f.table()
        outcomes["qsm", got.holds or got.witness_dict()["clause"]] += 1
        for split in (0, 1):
            got = sections_quasisupermodular(f, split=split)
            assert got == oracle_sections(f, split), (f.table(), split)
            outcomes["sections", split, got.holds or got.witness_dict()["clause"]] += 1
    for key in (("qsm", True), ("qsm", "weak"), ("qsm", "strict"), ("sections", 0, True),
                ("sections", 0, "weak"), ("sections", 0, "strict"), ("sections", 1, True)):
        assert outcomes[key], (key, outcomes)


def test_sections_of_three_factor_products():
    rng = Xoshiro256StarStar(0x5C_0004)
    D = product_lattice([chain_lattice(2), diamond(), diamond()])
    failed = Counter()
    for _ in range(40):
        f = LatticeFunction(D, RATIONAL, {label: rng.below(3) for label in D.labels})
        for split in (0, 1, 2):
            got = sections_quasisupermodular(f, split=split)
            assert got == oracle_sections(f, split), split
            failed[split] += not got.holds
    assert failed[1] and failed[2], failed


def test_games_with_a_broken_section(criterion_06_games):
    clauses = Counter()
    for k, G in enumerate(criterion_06_games):
        H = _break_a_section(G, seed=k)
        if H is None:
            continue
        got = validate_game(H)
        assert got == oracle_validate_game(H), k
        if not got.holds and got.witness_dict()["check"] == "section-quasisupermodular":
            clauses[got.witness_dict()["clause"]] += 1
    assert clauses["weak"] and clauses["strict"], clauses


def test_three_chain_table_whose_splits_all_pass_but_is_not_qsm():
    # On 2×2×2 every one-factor section is QSM and every factor-versus-rest
    # split is single crossing, yet the table is not QSM: the two-chain
    # shortcut (QSM iff single crossing both ways) does not extend to three
    # factors.
    bit = chain_lattice(2, labels=["0", "1"])
    D = product_lattice([bit, bit, bit])
    values = {(0, 0, 0): 6, (0, 0, 1): 12, (0, 1, 0): 4, (0, 1, 1): 7,
              (1, 0, 0): 3, (1, 0, 1): 7, (1, 1, 0): 1, (1, 1, 1): 4}
    f = LatticeFunction(D, RATIONAL, {tuple_label(map(str, c)): v for c, v in values.items()})
    for split in (0, 1, 2):
        assert sections_quasisupermodular(f, split) == Verdict(True)
        assert is_single_crossing(f, split) == Verdict(True)
    want = Verdict(False, witness=(("x", "(1,0,1)"), ("y", "(0,1,0)"), ("clause", "strict")))
    assert is_quasisupermodular(f) == want == oracle_function_qsm(f)


def scan_verdict(f: LatticeFunction) -> Verdict:
    """The verdict of the pairwise scan ``qsm_witness`` alone."""
    hit = qsm_witness(f.domain, [f.keys])
    if hit is None:
        return Verdict(True)
    _, x, y, clause = hit
    return Verdict(False, witness=(("x", f.domain.labels[x]), ("y", f.domain.labels[y]),
                                   ("clause", clause)))


def planted(f: LatticeFunction, start: int, steep: int, shallow: int) -> LatticeFunction:
    """f with its last two rows lifted above every other value: row n-2
    rises by ``steep`` per column and row n-1 by ``shallow`` < ``steep``, so
    the first QSM violation, x = (n-1, 0), y = (n-2, 1), is in the last row
    of the scan."""
    n = f.domain.factors[0].n
    table = f.table()
    for label, (a, b) in zip(f.domain.labels, f.domain.coords):
        if a >= n - 2:
            table[label] = max(f.values) + start + (steep if a == n - 2 else shallow) * b
    return LatticeFunction(f.domain, RATIONAL, table)


@pytest.mark.parametrize("dims, values", [
    ((2, 2), 3), ((2, 3), 3), ((3, 2), 3), ((3, 3), 3), ((2, 4), 3), ((4, 2), 2), ((4, 3), 2),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"{v}values")
def test_two_chains_on_every_small_table(dims, values):
    D = grid_lattice(dims)
    outcomes = Counter()
    for combo in itertools.product(range(values), repeat=D.n):
        f = LatticeFunction(D, RATIONAL, dict(zip(D.labels, combo)))
        got = is_quasisupermodular(f)
        assert got == scan_verdict(f), combo
        outcomes[got.holds or got.witness_dict()["clause"]] += 1
    assert outcomes[True] and outcomes["weak"] and outcomes["strict"], outcomes


def test_two_chains_on_seeded_grids_and_planted_late_failures():
    rng = Xoshiro256StarStar(0x5C_0017)
    outcomes = Counter()
    for dims in ((2, 7), (7, 2), (3, 5), (5, 4), (6, 6), (9, 9)):
        D = grid_lattice(dims)
        base = random_function(rng, D, SUPERMODULAR_THEN_TRANSFORM)
        fs = [base, LatticeFunction(D, RATIONAL, {x: rng.below(4) for x in D.labels})]
        if dims[0] > 2:
            fs.append(planted(base, 1 + rng.below(4), 5, 1 + rng.below(4)))
        for f in fs:
            got = is_quasisupermodular(f)
            assert got == scan_verdict(f) == oracle_function_qsm(f), (dims, f.table())
            outcomes[got.holds] += 1
        if dims[0] > 2:
            n = dims[0]
            labels = [tuple_label(c.labels[i] for c, i in zip(D.factors, coord))
                      for coord in ((n - 1, 0), (n - 2, 1))]
            assert got.witness == (("x", labels[0]), ("y", labels[1]), ("clause", "weak"))
    assert outcomes[True] and outcomes[False], outcomes


def test_a_passing_two_chain_grid_never_scans_pairs(monkeypatch):
    rng = Xoshiro256StarStar(0x5C_0018)
    fs = [random_function(rng, grid_lattice(dims), SUPERMODULAR_THEN_TRANSFORM)
          for dims in ((1, 4), (2, 2), (3, 5), (16, 16))]

    def refuse(*args, **kwargs):
        raise AssertionError("the pairwise scan ran on a passing product of two chains")

    monkeypatch.setattr(properties, "qsm_witness", refuse)
    for f in fs:
        assert is_quasisupermodular(f) == Verdict(True)


def test_other_products_never_take_the_two_chain_route(monkeypatch):
    # M3 x C2 and diamond x C3 have a factor that is not a chain; 2x2x2 has
    # three factors.
    rng = Xoshiro256StarStar(0x5C_0019)
    bit = chain_lattice(2)
    domains = [product_lattice([diamond_mk(3), bit]), product_lattice([diamond(), chain_lattice(3)]),
               product_lattice([bit, bit, bit])]
    fs = [LatticeFunction(D, RATIONAL, {x: rng.below(3) for x in D.labels})
          for D in domains for _ in range(30)]

    def refuse(*args, **kwargs):
        raise AssertionError("the two-chain kernel ran in place of the QSM scan")

    monkeypatch.setattr(properties, "two_chain_failing_x", refuse)
    outcomes = Counter()
    for f in fs:
        got = is_quasisupermodular(f)
        assert got == oracle_function_qsm(f), f.table()
        outcomes[got.holds] += 1
    assert outcomes[True] and outcomes[False], outcomes


def test_a_failing_split_that_the_scan_cannot_find_is_loud(monkeypatch):
    D = grid_lattice((2, 2))
    f = LatticeFunction(D, RATIONAL, dict(zip(D.labels, (0, 1, 1, 0))))
    ranks = [chain_ranks(c) for c in D.factors]
    assert properties.two_chain_failing_x(D, ranks, f.keys) is not None
    monkeypatch.setattr(properties, "qsm_witness", lambda L, columns, xs=None: None)
    with pytest.raises(TheoremFalsified):
        is_quasisupermodular(f)


def _shuffled_chains(rng, dims):
    """Two chains whose labels, drawn from a seeded shuffle, sort in another
    order than their ranks."""
    chains = []
    for n in dims:
        labels = [f"r{i}" for i in range(n)]
        while labels == sorted(labels):
            rng.shuffle(labels)
        chains.append(chain_lattice(n, labels=labels))
    return product_lattice(chains)


def test_two_chains_whose_label_order_is_not_their_rank_order():
    rng = Xoshiro256StarStar(0x5C_0025)
    D = _shuffled_chains(rng, (3, 3))
    cases = [(D, combo) for combo in itertools.product(range(3), repeat=D.n)]
    for dims in ((4, 4), (5, 3)):
        E = _shuffled_chains(rng, dims)
        cases += [(E, [rng.below(3) for _ in E.labels]) for _ in range(300)]
    outcomes = Counter()
    for E, combo in cases:
        f = LatticeFunction(E, RATIONAL, dict(zip(E.labels, combo)))
        got = is_quasisupermodular(f)
        assert got == scan_verdict(f) == oracle_function_qsm(f), (E.labels, combo)
        outcomes[got.holds or got.witness_dict()["clause"]] += 1
    assert outcomes[True] and outcomes["weak"] and outcomes["strict"], outcomes


def test_a_failing_16x16_check_builds_one_meet_and_one_join_row():
    rng = Xoshiro256StarStar(0x5C_0026)
    base = random_function(rng, grid_lattice((16, 16)), SUPERMODULAR_THEN_TRANSFORM)
    f = planted(base, 2, 5, 1)
    L = f.domain
    assert not any(r is not None for r in L.meet._rows + L.join._rows)
    want = Verdict(False, witness=(("x", "(15,00)"), ("y", "(14,01)"), ("clause", "weak")))
    assert is_quasisupermodular(f) == want
    assert sum(r is not None for r in L.meet._rows) == 1
    assert sum(r is not None for r in L.join._rows) == 1
