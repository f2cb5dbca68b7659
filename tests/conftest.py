"""Shared instances and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: suprema come
from upper-bound scans over the raw relation instead of join folds, argmax
and Nash sets from direct definition loops over raw tables.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import pytest

from latgames import (
    ChainCodomain,
    TransferContinuityReport,
    Verdict,
    Game,
    LatticeFunction,
    check_lattice,
    poset_from_covers,
    product_lattice,
)
from latgames import io
from latgames.errors import LatGamesError, ParseError
from latgames.lattice import FiniteLattice, FinitePoset, first_unbounded, iter_bits, tuple_label
from latgames.generators import (all_lattices, chain_lattice, diamond, diamond_mk,
                                 fraction_chain, random_game)
from latgames.rng import Xoshiro256StarStar

RATIONAL = ChainCodomain.rational()


# ---------------------------------------------------------------- instances

@pytest.fixture(scope="session")
def diamond_lattice():
    return diamond()


@pytest.fixture(scope="session")
def chain01():
    return chain_lattice(2, labels=["0", "1"])


@pytest.fixture(scope="session")
def veinott_domain(diamond_lattice, chain01):
    return product_lattice([diamond_lattice, chain01])


@pytest.fixture(scope="session")
def veinott_function(veinott_domain):
    return LatticeFunction(veinott_domain, RATIONAL, {
        "(0,0)": 2, "(b,1)": 2, "(a,0)": 1, "(b,0)": 1,
        "(1,0)": 0, "(1,1)": 0, "(a,1)": 9, "(0,1)": 10,
    })


@pytest.fixture(scope="session")
def induced_diamond():
    return check_lattice(poset_from_covers(
        ["(1,1)", "(2,3)", "(3,2)", "(4,5)"],
        [("(1,1)", "(2,3)"), ("(1,1)", "(3,2)"),
         ("(2,3)", "(4,5)"), ("(3,2)", "(4,5)")]))


@pytest.fixture(scope="session")
def sum_f(induced_diamond):
    return LatticeFunction(induced_diamond, RATIONAL,
                           {"(1,1)": 1, "(2,3)": 2, "(3,2)": 3, "(4,5)": 4})


@pytest.fixture(scope="session")
def sum_g(induced_diamond):
    return LatticeFunction(induced_diamond, RATIONAL,
                           {"(1,1)": -1, "(2,3)": -3, "(3,2)": -2, "(4,5)": -5})


@pytest.fixture(scope="session")
def star5():
    return diamond_mk(5)


@pytest.fixture(scope="session")
def star_function(star5):
    return LatticeFunction(star5, RATIONAL,
                           {label: (0 if label == "x1" else 1) for label in star5.labels})


def build_star_diamond_game():
    """Two players: punctured star vs a diamond whose top strictly wins."""
    star = diamond_mk(5)
    dia = diamond()
    second = {"0": Fraction(0), "a": Fraction(1), "b": Fraction(1), "1": Fraction(3, 2)}
    pay1, pay2 = {}, {}
    for s1, s2 in itertools.product(star.labels, dia.labels):
        pay1[(s1, s2)] = Fraction(0 if s1 == "x1" else 1)
        pay2[(s1, s2)] = second[s2]
    return Game(["1", "2"], {"1": star, "2": dia},
                {"1": RATIONAL, "2": RATIONAL}, {"1": pay1, "2": pay2})


def build_step_grid6_game():
    """Step payoff vs (s1+1)(s2-s2^2) on the sixth-step grid."""
    grid6 = fraction_chain([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
                            Fraction(2, 3), Fraction(5, 6), 1])

    def step(s1):
        x = Fraction(s1)
        if x <= Fraction(1, 3):
            return Fraction(0)
        if x < Fraction(2, 3):
            return Fraction(1)
        return Fraction(2)

    pay1, pay2 = {}, {}
    for a, b in itertools.product(grid6.labels, grid6.labels):
        x, y = Fraction(a), Fraction(b)
        pay1[(a, b)] = step(a)
        pay2[(a, b)] = (x + 1) * (y - y * y)
    return Game(["1", "2"], {"1": grid6, "2": grid6},
                {"1": RATIONAL, "2": RATIONAL}, {"1": pay1, "2": pay2})


def build_indicator_grid4_game():
    """Indicator of s1 > 0 vs s1 + a + b; second player moves on a square."""
    grid4 = fraction_chain([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
    half = fraction_chain([0, Fraction(1, 2), 1])
    square = product_lattice([half, half])
    pay1, pay2 = {}, {}
    for s1 in grid4.labels:
        for s2_label, s2_coord in zip(square.labels, square.coords):
            a = Fraction(half.labels[s2_coord[0]])
            b = Fraction(half.labels[s2_coord[1]])
            pay1[(s1, s2_label)] = Fraction(1 if Fraction(s1) > 0 else 0)
            pay2[(s1, s2_label)] = Fraction(s1) + a + b
    return Game(["1", "2"], {"1": grid4, "2": square},
                {"1": RATIONAL, "2": RATIONAL}, {"1": pay1, "2": pay2})


@pytest.fixture(scope="session")
def star_diamond_game():
    return build_star_diamond_game()


@pytest.fixture(scope="session")
def step_grid6_game():
    return build_step_grid6_game()


@pytest.fixture(scope="session")
def indicator_grid4_game():
    return build_indicator_grid4_game()


@pytest.fixture(scope="session")
def criterion_06_games():
    """The 500 seeded validated games of acceptance criterion 06."""
    rng = Xoshiro256StarStar(0x5EED_0006)
    return [random_game(rng, max_players=3, max_size=6 if k % 5 == 0 else 4)
            for k in range(500)]


def product_tables(rng, D, L, C):
    """Seeded tables on D = L x C with many ties: uniform noise, separable
    sums (single crossing and increasing differences hold), sums with one
    entry nudged, and sums plus a product of monotone weights (increasing
    differences)."""
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
    w = [bin(L.down[a]).count("1") // 2 for a in range(L.n)]
    yield {label: separable[label] + w[a] * b for label, (a, b) in zip(D.labels, D.coords)}


def small_product_functions(seed):
    """``product_tables`` on L x C for every lattice L of size <= 6 and the
    chains C of 2 and 3 elements: 51 * 2 * 6 functions."""
    rng = Xoshiro256StarStar(seed)
    for L in all_lattices(6):
        for m in (2, 3):
            C = chain_lattice(m)
            D = product_lattice([L, C])
            for table in product_tables(rng, D, L, C):
                yield LatticeFunction(D, RATIONAL, table)


def with_join_entry(L, a: str, b: str, value: str) -> FiniteLattice:
    """``L`` with its join table entry at (a, b) overwritten by ``value``: a
    malformed lattice, which no file can describe."""
    join = [list(row) for row in L.join]
    join[L.index[a]][L.index[b]] = L.index[value]
    return FiniteLattice(L, L.meet, tuple(map(tuple, join)))


# ------------------------------------------------------------------ oracles

def oracle_lub(L, a: str, b: str):
    """Least upper bound from the raw relation only (no join table)."""
    ubs = [u for u in L.labels if L.leq(a, u) and L.leq(b, u)]
    for u in ubs:
        if all(L.leq(u, v) for v in ubs):
            return u
    return None


def oracle_glb(L, a: str, b: str):
    lbs = [u for u in L.labels if L.leq(u, a) and L.leq(u, b)]
    for u in lbs:
        if all(L.leq(v, u) for v in lbs):
            return u
    return None


def oracle_sup_subset(L, labels):
    """Unique minimal element of the upper-bound set, from the relation only."""
    labels = list(labels)
    ubs = [u for u in L.labels if all(L.leq(a, u) for a in labels)]
    least = [u for u in ubs if all(L.leq(u, v) for v in ubs)]
    assert len(least) == 1
    return least[0]


def oracle_inf_subset(L, labels):
    labels = list(labels)
    lbs = [u for u in L.labels if all(L.leq(u, a) for a in labels)]
    greatest = [u for u in lbs if all(L.leq(v, u) for v in lbs)]
    assert len(greatest) == 1
    return greatest[0]


@functools.lru_cache(maxsize=None)
def _oracle_bounds(L):
    """Meet and join of every ordered pair of L, from the raw relation."""
    pairs = list(itertools.product(L.labels, repeat=2))
    return ({p: oracle_glb(L, *p) for p in pairs}, {p: oracle_lub(L, *p) for p in pairs})


def oracle_qsm(L, keys):
    """First ``(x, y, clause)`` over every ordered pair of L in canonical
    order, weak clause first, where ``keys`` (one per element of L) break
    quasisupermodularity; None when they do not."""
    meet, join = _oracle_bounds(L)
    key = dict(zip(L.labels, keys))
    for x, y in itertools.product(L.labels, repeat=2):
        lo, hi = key[meet[x, y]], key[join[x, y]]
        if key[x] >= lo and not hi >= key[y]:
            return x, y, "weak"
        if key[x] > lo and not hi > key[y]:
            return x, y, "strict"
    return None


def oracle_supermodular(f) -> Verdict:
    """Supermodularity from the definition: the first pair x < y of labels,
    in canonical order, with f(x) + f(y) > f(x^y) + f(xvy), the bounds read
    through the labels."""
    L, value = f.domain, f.table()
    for x, y in itertools.combinations(L.labels, 2):
        if value[x] + value[y] > value[L.meet_label(x, y)] + value[L.join_label(x, y)]:
            return Verdict(False, witness=(("x", x), ("y", y)))
    return Verdict(True)


def coord_leq(factors, a, b) -> bool:
    """Componentwise order of two coordinate tuples over ``factors``."""
    return all(f._leq(x, y) for f, x, y in zip(factors, a, b))


def oracle_product_lattice(factors):
    """The product built pair by pair: every coordinate tuple tested against
    every other one factor by factor, both ways for the up- and down-rows,
    and meet and join taken coordinatewise from the factor tables; ``radix``
    is the position of each tuple taken in ``itertools.product`` order.  No
    shared mask builder, no ``check_lattice`` and no transposition."""
    factors = tuple(factors)
    raw = sorted((tuple_label(tuple(f.labels[c] for f, c in zip(factors, coord))), coord)
                 for coord in itertools.product(*(range(f.n) for f in factors)))
    labels = [label for label, _ in raw]
    coords = tuple(coord for _, coord in raw)
    up = [sum(1 << j for j, cj in enumerate(coords) if coord_leq(factors, ci, cj))
          for ci in coords]
    down = [sum(1 << j for j, cj in enumerate(coords) if coord_leq(factors, cj, ci))
            for ci in coords]
    index = {c: i for i, c in enumerate(coords)}

    def table(op):
        return tuple(tuple(index[tuple(getattr(f, op)[a][b] for f, a, b in zip(factors, ci, cj))]
                           for cj in coords) for ci in coords)

    radix = [index[c] for c in itertools.product(*(range(f.n) for f in factors))]
    return FiniteLattice(FinitePoset(labels, up, _down=down), table("meet"), table("join"),
                         factors=factors, coords=coords, radix=radix)


def sc_clause(lo_q, hi_q, lo_q2, hi_q2):
    """The single-crossing clause that (p, p2) x (q, q2) breaks, or None,
    from the keys at (p,q), (p2,q), (p,q2) and (p2,q2)."""
    if lo_q <= hi_q and not lo_q2 <= hi_q2:
        return "weak"
    if lo_q < hi_q and not lo_q2 < hi_q2:
        return "strict"
    return None


def value_order(codomain):
    """Order key of a codomain's values read straight from its definition:
    the rational itself, or the position on the labeled chain."""
    return (lambda v: v) if codomain.is_rational else codomain.labels.index


def payoff_keys(G, player) -> dict:
    """The player's payoffs by profile, as ``value_order`` keys."""
    key = value_order(G.codomains[player])
    return {profile: key(v) for profile, v in G.payoffs[player].items()}


def oracle_validate_game(G) -> Verdict:
    """Sectionwise quasisupermodularity by ``oracle_qsm``, then the exhaustive
    single-crossing scan over opponent profiles, player by player."""
    for i, player in enumerate(G.players):
        factor = G.factors[i]
        others = G.factors[:i] + G.factors[i + 1:]
        keys = payoff_keys(G, player)
        opps = list(G.opp_profiles(i))
        for opp in opps:
            hit = oracle_qsm(factor, [keys[opp[:i] + (s,) + opp[i:]] for s in factor.labels])
            if hit is not None:
                x, y, clause = hit
                return Verdict(False, witness=(
                    ("player", player), ("check", "section-quasisupermodular"),
                    ("opponents", opp), ("x", x), ("y", y), ("clause", clause)))
        coords = [tuple(f.index[x] for f, x in zip(others, q)) for q in opps]
        leq_pairs = [(c, d) for c, d in itertools.product(range(len(opps)), repeat=2)
                     if c != d and coord_leq(others, coords[c], coords[d])]
        for p, p2 in itertools.product(factor.labels, repeat=2):
            if p == p2 or not factor.leq(p, p2):
                continue
            lo = [keys[q[:i] + (p,) + q[i:]] for q in opps]
            hi = [keys[q[:i] + (p2,) + q[i:]] for q in opps]
            for c, d in leq_pairs:
                clause = sc_clause(lo[c], hi[c], lo[d], hi[d])
                if clause is not None:
                    return Verdict(False, witness=(
                        ("player", player), ("check", "single-crossing"), ("p", p),
                        ("p2", p2), ("q", opps[c]), ("q2", opps[d]), ("clause", clause)))
    return Verdict(True)


def plateau_game(factors) -> Game:
    """Constant payoffs, so every profile is an equilibrium and every best
    response is the whole strategy set."""
    players = [f"p{k}" for k in range(1, len(factors) + 1)]
    count = math.prod(f.n for f in factors)
    return Game(players, dict(zip(players, factors)), dict.fromkeys(players, RATIONAL),
                {p: [0] * count for p in players})


def profile_leq(G, a, b) -> bool:
    """Componentwise order of two joint profiles, one factor at a time."""
    return all(f._leq(f.index[x], f.index[y]) for f, x, y in zip(G.factors, a, b))


def brute_nash_set(G):
    """Nash set straight from the definition: no best-response machinery."""
    out = []
    tables = [payoff_keys(G, p) for p in G.players]
    for profile in G.profiles():
        good = True
        for i, keys in enumerate(tables):
            mine = keys[profile]
            for dev in G.factors[i].labels:
                other = profile[:i] + (dev,) + profile[i + 1:]
                if keys[other] > mine:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(profile)
    return out


def oracle_strong_set_order(G, player) -> Verdict:
    """Whether the player's best responses rise in the strong set order,
    from labels alone: opponent profiles s <= s' (s = s' included) in
    canonical label order of their tuple labels, then x in G(s) and x' in
    G(s') in label order, the meet tested before the join."""
    i = G.player_index(player)
    L, others = G.factors[i], G.factors[:i] + G.factors[i + 1:]
    keys = payoff_keys(G, player)

    def best(opp):
        row = [keys[opp[:i] + (x,) + opp[i:]] for x in L.labels]
        return [x for x, k in zip(L.labels, row) if k == max(row)]

    opps = sorted(itertools.product(*(f.labels for f in others)), key=tuple_label)
    for s in opps:
        for s2 in opps:
            if not all(f.leq(a, b) for f, a, b in zip(others, s, s2)):
                continue
            lo, hi = best(s), best(s2)
            for x in lo:
                for x2 in hi:
                    for op, value, into in (("meet", L.meet_label(x, x2), lo),
                                            ("join", L.join_label(x, x2), hi)):
                        if value not in into:
                            return Verdict(False, witness=(
                                ("s", tuple_label(s)), ("s2", tuple_label(s2)), ("x", x),
                                ("x2", x2), ("op", op), ("value", value)))
    return Verdict(True)


def oracle_parse_game(obj, where: str = "game") -> Game:
    """``io.parse_game`` with the payoff rows read the way the parser read
    them before rows were placed by index: one profile-keyed dict per
    player, each row checked in turn (profile object, missing coordinate,
    label strings, unknown players, duplicate, ``value`` field, value), then
    ``Game`` on those dicts.  Raises the same ``ParseError`` texts."""
    players = io._labels(io._expect(obj, "players", None, where), where, "players")
    strategies_obj = io._expect(obj, "strategies", dict, where)
    codomains_obj = io._expect(obj, "codomains", dict, where)
    payoffs_obj = io._expect(obj, "payoffs", dict, where)
    strategies = {p: io.parse_lattice(io._expect(strategies_obj, p, dict, f"{where}.strategies"),
                                      where=f"{where}.strategies[{p}]")
                  for p in players}
    codomains = {p: io.parse_codomain(io._expect(codomains_obj, p, dict, f"{where}.codomains"),
                                      where=f"{where}.codomains[{p}]")
                 for p in players}
    payoffs = {}
    for p in players:
        at = f"{where}.payoffs[{p}]"
        table = payoffs[p] = {}
        for row in io._expect(payoffs_obj, p, list, f"{where}.payoffs"):
            profile_map = io._expect(row, "profile", dict, at)
            try:
                coords = [profile_map[q] for q in players]
            except KeyError as exc:
                raise ParseError(f"{at}: profile missing coordinate {exc}") from None
            profile = tuple(io._labels(coords, at, "profile coordinates"))
            if len(profile_map) != len(players):
                raise ParseError(f"{at}: profile names unknown players")
            if profile in table:
                raise ParseError(f"{at}: duplicate profile {profile}")
            raw = io._expect(row, "value", None, at)
            if codomains[p].is_rational:
                table[profile] = io.parse_value(raw)
            elif isinstance(raw, str):
                table[profile] = raw
            else:
                raise ParseError(f"{at}: labeled values must be strings")
    try:
        return Game(players, strategies, codomains, payoffs)
    except LatGamesError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def brute_is_sublattice(L, labels):
    labels = list(labels)
    members = set(labels)
    for a, b in itertools.combinations(labels, 2):
        if L.meet_label(a, b) not in members or L.join_label(a, b) not in members:
            return False
    return True


def oracle_sublattice_witness(L, mask: int):
    """Witness fields of the first pair of ``mask``'s elements, in
    ``combinations`` order, whose meet (tested first) or join lies outside
    ``mask``, or None: the pair scan that ``lattice.sublattice_witness``
    replaced with the strong-set kernel of ``mask`` below itself."""
    labels = L.labels
    for a, b in itertools.combinations(iter_bits(mask), 2):
        for op, table in (("meet", L.meet), ("join", L.join)):
            value = table[a][b]
            if not mask >> value & 1:
                return ("x", labels[a]), ("y", labels[b]), ("op", op), ("value", labels[value])
    return None


def brute_is_subcomplete(L, labels):
    labels = list(labels)
    members = set(labels)
    for r in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            if oracle_sup_subset(L, combo) not in members:
                return False
            if oracle_inf_subset(L, combo) not in members:
                return False
    return True


def iter_chain_masks(poset: FinitePoset, mask: int):
    """Yield every nonempty chain contained in ``mask``, as bitmasks.

    Deterministic depth-first order; each chain is produced exactly once,
    with members added in canonical index order.
    """
    comp = [poset.up[i] | poset.down[i] for i in range(poset.n)]

    def extend(chain: int, allowed: int):
        yield chain
        rest = allowed
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            higher = ~((1 << (j + 1)) - 1)
            yield from extend(chain | low, allowed & comp[j] & higher)

    bits = mask
    while bits:
        low = bits & -bits
        i = low.bit_length() - 1
        bits ^= low
        higher = ~((1 << (i + 1)) - 1)
        yield from extend(low, mask & comp[i] & higher)


def iter_submasks(mask: int):
    """Nonempty submasks of ``mask`` in increasing numeric order."""
    sub = (-mask) & mask
    while sub:
        yield sub
        sub = (sub - mask) & mask


def oracle_least_unbounded(L, mask: int):
    """Witness fields of the first nonempty submask of ``mask``, in numeric
    order, whose sup (tested first) or inf lies outside it: the exhaustive
    subcompleteness scan over all 2^|mask| submasks.  None when there is none."""
    return first_unbounded(L, mask, iter_submasks(mask))


def oracle_chain_unbounded(L, mask: int):
    """The same over every chain inside ``mask`` (``iter_chain_masks``)."""
    return first_unbounded(L, mask, iter_chain_masks(L, mask))


def oracle_upper_chain_subcomplete(f) -> Verdict:
    """Every chain of every upper level set of ``f``, levels ascending, with
    its sup and inf folded from the tables: the exhaustive scan the table
    check replaced."""
    for a in sorted(set(f.keys)):
        level = sum(1 << i for i, k in enumerate(f.keys) if k >= a)
        hit = oracle_chain_unbounded(f.domain, level)
        if hit is not None:
            (_, chain), bound, value = hit
            return Verdict(False, witness=(("level", f.values[f.keys.index(a)]),
                                           ("chain", chain), bound, value))
    return Verdict(True)


def all_functions(L, values):
    """Every table on L with entries drawn from ``values``."""
    for combo in itertools.product(values, repeat=L.n):
        yield LatticeFunction(L, RATIONAL, dict(zip(L.labels, combo)))


# ------------------------------------------- materialized closed families

def oracle_saturate(n: int, seeds) -> tuple:
    """Least family containing the seeds, the empty set and the carrier of
    ``n`` points, closed under union and intersection, sorted: a topology
    as its full list of closed sets, built by fixpoint iteration."""
    family = set(seeds)
    family.add(0)
    family.add((1 << n) - 1)
    work = sorted(family)
    while work:
        new = []
        items = sorted(family)
        for a in work:
            for b in items:
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        new.append(c)
        work = new
    return tuple(sorted(family))


def oracle_interval_sets(L) -> tuple:
    """The interval topology's closed sets, saturated from every ray."""
    return oracle_saturate(L.n, L.up + L.down)


@functools.lru_cache(maxsize=None)
def all_closed_families(n: int) -> tuple:
    """Every topology on ``n`` points as its sorted closed-set tuple: the
    families reached from {empty set, carrier} by adding one set at a time
    and saturating.  1, 4, 29, 355 of them for n = 1..4."""
    found = {oracle_saturate(n, ())}
    work = list(found)
    while work:
        family = work.pop()
        for mask in range(1 << n):
            bigger = oracle_saturate(n, family + (mask,))
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return tuple(sorted(found))


def oracle_closure(sets, mask: int) -> int:
    """Intersection of the closed sets containing ``mask``."""
    acc = sets[-1]
    for c in sets:
        if c & mask == mask:
            acc &= c
    return acc


def oracle_topologically_usc(f, sets) -> Verdict:
    """Every upper level set, levels ascending, looked up among ``sets``."""
    members = set(sets)
    for a in sorted(set(f.keys)):
        level = sum(1 << i for i, k in enumerate(f.keys) if k >= a)
        if level not in members:
            return Verdict(False, witness=(("level", f.values[f.keys.index(a)]),
                                           ("set", f.domain.labels_of(level))))
    return Verdict(True)


def oracle_transfer(f, sets) -> TransferContinuityReport:
    """Transfer and weak transfer upper continuity over every open set, the
    complements of ``sets``: per y, whether some open U containing y keeps
    sup f below (resp. at most) max f, then the first failing (x, y) in
    canonical order for each."""
    L, keys, n = f.domain, f.keys, f.domain.n
    best_key = max(keys)
    opens = sorted(sets[-1] ^ c for c in sets)
    strict_ok = [False] * n
    weak_ok = [False] * n
    for y in range(n):
        for u in opens:
            if not u >> y & 1:
                continue
            sup_u = max(keys[z] for z in iter_bits(u))
            if sup_u <= best_key:
                weak_ok[y] = True
            if sup_u < best_key:
                strict_ok[y] = True
                break
    verdicts = []
    for ok in (strict_ok, weak_ok):
        fails = [(x, y) for x in range(n) for y in range(n) if keys[y] < keys[x] and not ok[y]]
        verdicts.append(Verdict(True) if not fails else Verdict(
            False, witness=(("x", L.labels[fails[0][0]]), ("y", L.labels[fails[0][1]]))))
    return TransferContinuityReport(*verdicts)


def seeded_functions(L, seed: int, count: int = 6):
    """``count`` seeded rational tables on L with values in {0, 1, 2}, then
    one seeded table into a three-label chain."""
    rng = Xoshiro256StarStar(seed)
    for _ in range(count):
        yield LatticeFunction(L, RATIONAL, {label: rng.below(3) for label in L.labels})
    labels = ("lo", "mid", "hi")
    yield LatticeFunction(L, ChainCodomain.labeled(labels),
                          {label: labels[rng.below(3)] for label in L.labels})
