"""The quasisupermodularity kernel against a plain pairwise scan.

``properties.qsm_witness`` decides QSM for a function, for every section of a
function and for every section of a game.  Here each of those must return
the same ``Verdict`` as ``conftest.oracle_qsm``, which takes meets and joins
from the raw order relation and visits every ordered pair.
"""
from __future__ import annotations

import itertools
from collections import Counter

from latgames import ChainCodomain, Game, LatticeFunction, product_lattice
from latgames.games import validate_game
from latgames.generators import chain_lattice, diamond
from latgames.lattice import tuple_label
from latgames.properties import is_quasisupermodular, is_single_crossing, sections_quasisupermodular
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
        P = L.poset
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
