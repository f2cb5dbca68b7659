"""Equilibrium-set structure on bitmask rows against the list scans it replaced.

The oracle is the O(|E|³) scan ``verify_equilibrium_structure`` used to run:
upper and lower bound lists per pair of equilibria, every member of a list
tried as the bound, and extremes found by comparing each equilibrium with
all others, all through componentwise ``profile_leq``.  On every game the
fast path must return an equal ``NashReport``.
"""
from __future__ import annotations

import functools
import gc
import itertools
from collections import Counter

import pytest

from latgames import ChainCodomain, Game, enumerate_nash, reports, verify_equilibrium_structure
from latgames import games
from latgames.corpus import get_entry
from latgames.errors import TheoremFalsified
from latgames.games import NashReport, _chain_sublattice, _pair_closed
from latgames.generators import chain_lattice, diamond, random_lattice
from latgames.io import load_path
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL, brute_nash_set, plateau_game, profile_leq


# ------------------------------------------------------------------ oracle

def oracle_structure(G: Game) -> NashReport:
    E = tuple(brute_nash_set(G))

    @functools.cache  # the scan asks the same pairs over and over
    def leq(a, b):
        return profile_leq(G, a, b)

    largest = least = None
    for e in E:
        if all(leq(e2, e) for e2 in E):
            largest = e
        if all(leq(e, e2) for e2 in E):
            least = e
    complete = bool(E)
    for a, b in itertools.combinations_with_replacement(E, 2):
        ubs = [g for g in E if leq(a, g) and leq(b, g)]
        if not any(all(leq(u, v) for v in ubs) for u in ubs):
            complete = False
            break
        lbs = [g for g in E if leq(g, a) and leq(g, b)]
        if not any(all(leq(v, u) for v in lbs) for u in lbs):
            complete = False
            break
    gap = None
    eset = set(E)
    for a, b in itertools.combinations(E, 2):
        m = tuple(f.labels[f.meet[f.index[x]][f.index[y]]] for f, x, y in zip(G.factors, a, b))
        if m not in eset:
            gap = (a, b, "meet", m)
            break
        v = tuple(f.labels[f.join[f.index[x]][f.index[y]]] for f, x, y in zip(G.factors, a, b))
        if v not in eset:
            gap = (a, b, "join", v)
            break
    rational = all(G.codomains[p].is_rational for p in G.players)
    return NashReport(
        equilibria=E, largest=largest, least=least, is_complete_lattice=complete,
        sublattice_gap=gap, certifies=("order", "topological") if rational else ("order",))


def assert_matches_oracle(G: Game) -> NashReport:
    want = oracle_structure(G)
    assert verify_equilibrium_structure(G) == want
    assert enumerate_nash(G) == NashReport(want.equilibria, want.largest, want.least)
    return want


# ------------------------------------------------------------- instances

def _binary_game(rng) -> Game:
    """Unvalidated game: 0/1 payoffs on small random lattices, so ties are
    common and the equilibrium set is often incomplete or has a gap."""
    players = [f"p{k}" for k in range(1, rng.randint(2, 3) + 1)]
    strategies = {p: random_lattice(rng, max_size=5) for p in players}
    profiles = list(itertools.product(*(strategies[p].labels for p in players)))
    payoffs = {p: {profile: rng.below(2) for profile in profiles} for p in players}
    return Game(players, strategies, dict.fromkeys(players, RATIONAL), payoffs)


def _constant_chain_game(size: int) -> Game:
    chain = chain_lattice(size, labels=[f"c{k}" for k in range(size)])
    profiles = itertools.product(chain.labels, repeat=2)
    table = dict.fromkeys(profiles, 0)
    return Game(["1", "2"], {"1": chain, "2": chain}, {"1": RATIONAL, "2": RATIONAL},
                {"1": table, "2": table})


def _chain(size: int):
    """A chain whose labels c0 < c1 < ... sort out of chain order from size 11 on."""
    return chain_lattice(size, labels=[f"c{k}" for k in range(size)])


def _game_with_equilibria(chains, target) -> Game:
    """Identical payoffs minus the L1 distance, in chain positions, to
    ``target``, a set of position tuples over ``_chain`` factors: off the
    target some player can move one coordinate closer, so the equilibrium
    set is exactly the target."""
    players = [f"p{k}" for k in range(1, len(chains) + 1)]
    table = [-min(sum(abs(int(label[1:]) - t) for label, t in zip(profile, point))
                  for point in target)
             for profile in itertools.product(*(c.labels for c in chains))]
    return Game(players, dict(zip(players, chains)), dict.fromkeys(players, RATIONAL),
                dict.fromkeys(players, table))


def _random_sublattice(rng, sizes) -> set:
    """A sublattice of the product of chains of ``sizes`` cut out by a few
    random constraints x_i <= x_j + c and x_i >= c (each keeps meets and
    joins; one that would leave nothing is dropped)."""
    points = set(itertools.product(*map(range, sizes)))
    for _ in range(rng.randint(1, 3)):
        i, j = rng.below(len(sizes)), rng.below(len(sizes))
        c = rng.randint(-1, 1)
        if i == j:
            kept = {x for x in points if x[i] >= c + 1}
        else:
            kept = {x for x in points if x[i] <= x[j] + c}
        points = kept or points
    return points


def _brute_is_sublattice(factors, coords) -> bool:
    members = set(coords)
    return all(tuple(getattr(f, op)[x][y] for f, x, y in zip(factors, a, b)) in members
               for a, b in itertools.combinations(coords, 2) for op in ("meet", "join"))


# ------------------------------------------------------------------ tests

def test_criterion_06_games(criterion_06_games):
    for G in criterion_06_games:
        report = assert_matches_oracle(G)
        assert report.is_complete_lattice


def test_seeded_unvalidated_binary_games():
    rng = Xoshiro256StarStar(0x5EED_E001)
    seen = Counter()
    for _ in range(1000):
        report = assert_matches_oracle(_binary_game(rng))
        seen["incomplete"] += bool(report.equilibria) and not report.is_complete_lattice
        seen["gap"] += report.sublattice_gap is not None
        seen["no-largest"] += bool(report.equilibria) and report.largest is None
    assert min(seen.values()) >= 20, seen


def test_matching_pennies_has_no_equilibrium():
    c = chain_lattice(2)
    lo, hi = c.labels
    match = {(a, b): int(a == b) for a in (lo, hi) for b in (lo, hi)}
    mismatch = {k: 1 - v for k, v in match.items()}
    G = Game(["1", "2"], {"1": c, "2": c}, {"1": RATIONAL, "2": RATIONAL},
             {"1": match, "2": mismatch})
    report = assert_matches_oracle(G)
    assert report.equilibria == () and report.largest is None and report.least is None
    assert report.is_complete_lattice is False


def test_labeled_gains_game():
    lab = ChainCodomain.labeled(["lose", "draw", "win"])
    c, d = chain_lattice(3), diamond()
    grade = {"0": "lose", "a": "draw", "b": "draw", "1": "win"}
    pay1 = {(x, y): "draw" for x in c.labels for y in d.labels}
    pay2 = {(x, y): grade[y] if x != "c2" else "draw" for x in c.labels for y in d.labels}
    G = Game(["1", "2"], {"1": c, "2": d}, {"1": lab, "2": lab}, {"1": pay1, "2": pay2})
    report = assert_matches_oracle(G)
    assert report.certifies == ("order",) and report.count == 6


def test_label_order_that_is_not_a_linear_extension():
    # c10 sorts before c2, so canonical index order disagrees with the chain
    G = _constant_chain_game(12)
    assert G.factors[0].labels[2] == "c10"
    report = assert_matches_oracle(G)
    assert report.count == 144 and report.is_complete_lattice
    assert report.largest == ("c11", "c11") and report.least == ("c0", "c0")


def test_even_weight_cube_is_complete_but_not_a_sublattice():
    # The corpus game game_even_weight_cube: E = {000, 011, 101, 110, 111}
    # has every two-player projection equal to the full square, yet
    # 011 ∧ 101 = 001 is missing.
    _, G = load_path(get_entry("game_even_weight_cube").instance_path)
    report = assert_matches_oracle(G)
    assert report.equilibria == (("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"),
                                 ("1", "1", "0"), ("1", "1", "1"))
    assert report.is_complete_lattice
    assert report.sublattice_gap == (("0", "1", "1"), ("1", "0", "1"), "meet", ("0", "0", "1"))


# ------------------------------------------- the projection test (Theorem 2)

@pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 2, 3), (3, 3)])
def test_projection_test_on_every_subset_of_a_small_product(sizes):
    # 255, 4095 and 511 nonempty subsets; the 3x3 chains run c2 < c9 < c10,
    # so their labels sort out of chain order
    factors = [chain_lattice(n, labels=["c2", "c9", "c10"] if len(sizes) == 2 else None)
               for n in sizes]
    if len(sizes) == 2:
        assert factors[0].labels == ("c10", "c2", "c9")
    product = list(itertools.product(*(range(f.n) for f in factors)))
    seen = Counter()
    for mask in range(1, 1 << len(product)):
        coords = [c for k, c in enumerate(product) if mask >> k & 1]
        want = _brute_is_sublattice(factors, coords)
        assert _chain_sublattice(factors, coords) is want, coords
        seen[want] += 1
    assert min(seen.values()) > 0, seen


def test_projection_test_leaves_no_cyclic_garbage():
    # on a 4x4x3 product, the cube minus one corner: every level of the count runs
    factors = [chain_lattice(n) for n in (4, 4, 3)]
    coords = list(itertools.product(*(range(f.n) for f in factors)))[1:]
    gc.collect()
    gc.disable()
    try:
        assert _chain_sublattice(factors, coords) is False
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_even_weight_cube_fails_only_the_cylinder_count():
    _, G = load_path(get_entry("game_even_weight_cube").instance_path)
    coords = [G.coords(G.profile_index(e)) for e in enumerate_nash(G).equilibria]
    for i, j in itertools.combinations(range(3), 2):
        rows = [0, 0]
        for c in coords:
            rows[c[i]] |= 1 << c[j]
        assert rows == [0b11, 0b11] and _pair_closed(rows)
    assert _chain_sublattice(G.factors, coords) is False


# ------------------------------------------------------ route and oracle

def _refuse(*args, **kwargs):
    raise AssertionError("the structure check fell back to a pair scan")


@pytest.mark.parametrize("sizes", [(8, 8), (4, 4, 4), (32, 32)])
def test_plateaus_take_the_projection_test(monkeypatch, sizes):
    G = plateau_game([_chain(n) for n in sizes])
    if sizes == (32, 32):
        # The O(|E|^3) oracle is too slow at |E| = 1024; E is the whole
        # product, a sublattice with the top and bottom profiles.
        top = tuple(f"c{n - 1}" for n in sizes)
        want = NashReport(tuple(brute_nash_set(G)), top, ("c0", "c0"), True, None,
                          ("order", "topological"))
    else:
        want = oracle_structure(G)
    monkeypatch.setattr(games, "pairwise_bounds", _refuse)
    monkeypatch.setattr(games, "_sublattice_gap", _refuse)
    got = []

    def spy(*args, **kwargs):
        got.append(verify_equilibrium_structure(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(reports, "verify_equilibrium_structure", spy)
    solve_lines, solve_ok = reports.solve_report(G)
    zhou_lines, zhou_ok = reports.zhou_report(G)
    assert got == [want, want] and solve_ok and zhou_ok
    assert "SUBLATTICE-GAP none" in solve_lines
    assert "PROPERTY complete-lattice PASS" in solve_lines
    assert "PROPERTY complete-lattice PASS" in zhou_lines


def test_chain_sublattices_and_the_same_less_one_profile(monkeypatch):
    rng = Xoshiro256StarStar(0x5EED_E018)
    routed = Counter()

    def spy(factors, coords):
        result = _chain_sublattice(factors, coords)
        routed[result] += 1
        return result

    monkeypatch.setattr(games, "_chain_sublattice", spy)
    for k, (low, high) in ((3, (2, 4)), (4, (2, 3))) * 20:
        sizes = [rng.randint(low, high) for _ in range(k)]
        chains = [_chain(n) for n in sizes]
        whole = _random_sublattice(rng, sizes)
        less_one = whole - {rng.choice(sorted(whole))}
        for target in (whole, less_one) if less_one else (whole,):
            report = assert_matches_oracle(_game_with_equilibria(chains, target))
            assert report.count == len(target)
    assert routed[False] >= 10 and routed[True] >= 10, routed


def test_diamond_games_never_take_the_projection_test(monkeypatch, star_diamond_game):
    monkeypatch.setattr(games, "_pair_closed", _refuse)
    for G in (plateau_game([diamond(), diamond()]), plateau_game([diamond(), _chain(3)]),
              star_diamond_game):
        assert_matches_oracle(G)


def test_a_projection_failure_the_scan_cannot_confirm_is_loud(monkeypatch):
    monkeypatch.setattr(games, "_pair_closed", lambda rows: False)
    with pytest.raises(TheoremFalsified):
        verify_equilibrium_structure(plateau_game([_chain(8), _chain(8)]))
