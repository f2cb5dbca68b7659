"""Deterministic builders and seeded random generators for lattices,
functions, and games.

Everything is driven by the pinned PRNG in ``rng.py``: one GenSpec yields
bit-identical instances on every platform.  Every random payoff is
re-verified against its advertised property before it is returned.
"""
from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, InvariantViolation, NotALattice, RejectionBudgetExhausted
from .functions import ChainCodomain, LatticeFunction
from .games import Game, validate_game
from .lattice import (
    FiniteLattice,
    FinitePoset,
    chain_ranks,
    check_lattice,
    iter_bits,
    lattice_from_covers,
    product_lattice,
)
from .properties import is_quasisupermodular, is_supermodular
from .rng import Xoshiro256StarStar

CHAIN = "chain"
GRID = "grid"
DIAMOND_MK = "diamond_Mk"
MEET_JOIN_CLOSURE = "random_meet_join_closure"
FAMILIES = (CHAIN, GRID, DIAMOND_MK, MEET_JOIN_CLOSURE)

SUPERMODULAR_THEN_TRANSFORM = "supermodular_then_transform"
REJECTION = "rejection"
PAYOFF_STRATEGIES = (SUPERMODULAR_THEN_TRANSFORM, REJECTION)


@dataclass(frozen=True)
class GenSpec:
    """Reproducible recipe for one generated instance."""

    seed: int
    family: str
    size: int | None = None
    k: int | None = None
    dims: tuple | None = None
    payoff: str | None = None
    budget: int = 100_000


GRID_CELL_CAP = 4096
LATTICE_ENUMERATION_CAP = 7


def chain_lattice(n: int, labels=None) -> FiniteLattice:
    if n < 1:
        raise CapExceeded(f"a chain needs at least one element, got {n}")
    if labels is None:
        width = len(str(n - 1))
        labels = [f"c{i:0{width}d}" for i in range(n)]
    labels = list(labels)
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return lattice_from_covers(labels, covers)


def fraction_chain(values) -> FiniteLattice:
    """Chain whose elements are exact rationals, labeled by reduced fractions."""
    fracs = sorted(Fraction(v) for v in values)
    if len(set(fracs)) != len(fracs):
        raise InvariantViolation("chain values must be distinct")
    return chain_lattice(len(fracs), labels=list(map(str, fracs)))


def grid_lattice(dims) -> FiniteLattice:
    """Product of integer chains; the workhorse domain for supermodular tables."""
    dims = tuple(dims)
    if not dims or any(d < 1 for d in dims):
        raise CapExceeded(f"grid dimensions {dims} must be positive")
    cells = 1
    for d in dims:
        cells *= d
    if cells > GRID_CELL_CAP:
        raise CapExceeded(f"grid with {cells} cells exceeds the generator cap of "
                          f"{GRID_CELL_CAP} cells")
    chains = []
    for d in dims:
        width = len(str(d - 1))
        chains.append(chain_lattice(d, labels=[f"{i:0{width}d}" for i in range(d)]))
    return product_lattice(chains)


def diamond_mk(k: int) -> FiniteLattice:
    """Bottom, k pairwise-incomparable midpoints, top."""
    if k < 1 or k > 20:
        raise CapExceeded(f"diamond_Mk supports 1 <= k <= 20, got k = {k}")
    width = len(str(k))
    mids = [f"x{i:0{width}d}" if k > 9 else f"x{i}" for i in range(1, k + 1)]
    elements = ["m", "M"] + mids
    covers = [("m", x) for x in mids] + [(x, "M") for x in mids]
    return lattice_from_covers(elements, covers)


def diamond() -> FiniteLattice:
    return lattice_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


_LATTICES_BY_SIZE: dict = {}


def lattices_of_size(n: int) -> tuple:
    """Every lattice on n elements, one labeled copy per natural labeling.

    Enumerates all strict order relations compatible with the alphabetical
    element order (every finite poset admits such a labeling, so every
    isomorphism class appears), keeps the transitive ones, and filters by
    exhaustive lub/glb search.
    """
    if n in _LATTICES_BY_SIZE:
        return _LATTICES_BY_SIZE[n]
    if n > LATTICE_ENUMERATION_CAP:
        raise CapExceeded(f"exhaustive lattice enumeration of size {n} exceeds the cap of "
                          f"{LATTICE_ENUMERATION_CAP} elements")
    labels = list(string.ascii_lowercase[:n])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for mask in range(1 << len(pairs)):
        strict = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                strict[i] |= 1 << j
        if any(strict[j] & ~strict[i] for i in range(n) for j in iter_bits(strict[i])):
            continue
        up = [strict[i] | (1 << i) for i in range(n)]
        poset = FinitePoset(labels, up)
        try:
            found.append(check_lattice(poset))
        except NotALattice:
            continue
    result = tuple(found)
    _LATTICES_BY_SIZE[n] = result
    return result


def all_lattices(max_size: int) -> tuple:
    out = []
    for n in range(1, max_size + 1):
        out.extend(lattices_of_size(n))
    return tuple(out)


def _random_fraction(rng: Xoshiro256StarStar, lo: int = -6, hi: int = 6, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_strictly_increasing_map(rng: Xoshiro256StarStar, image) -> dict:
    """Random strictly increasing rational map on a finite image: a random
    start, then a random step a/b, b in ``steps``, after each value.  The
    levels are summed as integers over one denominator."""
    steps = (1, 2, 3)
    start = _random_fraction(rng, -8, 8)
    den = math.lcm(start.denominator, *steps)
    level = start.numerator * (den // start.denominator)
    out = {}
    for v in sorted(image):
        out[v] = Fraction(level, den)
        level += rng.randint(1, 5) * (den // rng.choice(steps))
    return out


def random_monotone_supermodular(rng: Xoshiro256StarStar, L: FiniteLattice) -> dict:
    """Nonnegative combination of up-set indicators: monotone and supermodular
    on any finite lattice."""
    table = {label: Fraction(0) for label in L.labels}
    for _ in range(rng.randint(1, max(2, L.n // 2 + 1))):
        p = rng.below(L.n)
        w = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        for j in iter_bits(L.up[p]):
            table[L.labels[j]] += w
    return table


def _grid_supermodular(rng: Xoshiro256StarStar, L: FiniteLattice) -> dict:
    """Random supermodular table on a product of chains: separable terms plus
    pairwise cumulative-sum couplings (increasing differences in every pair)."""
    factors = L.factors
    k = len(factors)
    per_factor = [[_random_fraction(rng) for _ in range(f.n)] for f in factors]
    couplings = {}
    for a in range(k):
        for b in range(a + 1, k):
            delta = [[Fraction(rng.below(4)) for _ in range(factors[b].n)]
                     for _ in range(factors[a].n)]
            cum = [[Fraction(0)] * factors[b].n for _ in range(factors[a].n)]
            for i in range(factors[a].n):
                for j in range(factors[b].n):
                    cum[i][j] = (delta[i][j]
                                 + (cum[i - 1][j] if i else 0)
                                 + (cum[i][j - 1] if j else 0)
                                 - (cum[i - 1][j - 1] if i and j else 0))
            couplings[a, b] = cum
    table = {}
    for label, coord in zip(L.labels, L.coords):
        total = Fraction(0)
        for a in range(k):
            total += per_factor[a][coord[a]]
        for (a, b), cum in couplings.items():
            total += cum[coord[a]][coord[b]]
        table[label] = total
    return table


def _shifted_upsets(rng: Xoshiro256StarStar, L: FiniteLattice) -> dict:
    """The up-set construction plus a random constant shift: supermodular on
    any finite lattice."""
    table = random_monotone_supermodular(rng, L)
    shift = _random_fraction(rng)
    return {k: v + shift for k, v in table.items()}


def random_function(rng: Xoshiro256StarStar, L: FiniteLattice, strategy: str,
                    budget: int = 100_000, values=(0, 1, 2, 3)) -> LatticeFunction:
    """Random quasisupermodular function on L; re-verified before return."""
    codomain = ChainCodomain.rational()
    if strategy == SUPERMODULAR_THEN_TRANSFORM:
        if L.factors is not None and all(chain_ranks(f) is not None for f in L.factors):
            table = _grid_supermodular(rng, L)
        else:
            table = _shifted_upsets(rng, L)
        base = LatticeFunction(L, codomain, table)
        if not is_supermodular(base).holds:
            raise InvariantViolation("generator produced a non-supermodular base table")
        out = base.transform(random_strictly_increasing_map(rng, base.image()))
    elif strategy == REJECTION:
        pool = [Fraction(v) for v in values]
        out = None
        for _ in range(budget):
            table = {label: rng.choice(pool) for label in L.labels}
            candidate = LatticeFunction(L, codomain, table)
            if is_quasisupermodular(candidate).holds:
                out = candidate
                break
        if out is None:
            raise RejectionBudgetExhausted(
                f"no quasisupermodular table found in {budget} draws")
    else:
        raise InvariantViolation(f"unknown payoff strategy {strategy!r}")
    if not is_quasisupermodular(out).holds:
        raise InvariantViolation("generator postcondition failed: table is not quasisupermodular")
    return out


def random_lattice(rng: Xoshiro256StarStar, max_size: int = 8) -> FiniteLattice:
    """Random lattice from the generator families, at most ``max_size`` elements."""
    while True:
        kind = rng.below(4)
        if kind == 0:
            L = chain_lattice(rng.randint(1, max_size))
        elif kind == 1:
            dims = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (2, 2, 2)])
            if math.prod(dims) > max_size:
                continue  # the same draw, without building a grid it would discard
            L = grid_lattice(dims)
        elif kind == 2:
            L = diamond_mk(rng.randint(1, max(1, max_size - 2)))
        else:
            grid, chosen = _meet_join_closure(rng)
            if chosen.bit_count() > max_size:
                continue  # the same draw, without building a lattice it would discard
            L = _induced_lattice(grid, chosen)
        if L.n <= max_size:
            return L


_CLOSURE_GRIDS: dict = {}  # one grid per shape of ``_meet_join_closure``: lattices are immutable


def meet_join_closure_lattice(rng: Xoshiro256StarStar) -> FiniteLattice:
    """Random subset of a random grid, closed under the grid's meet and join
    (``_meet_join_closure``), taken as a standalone lattice with the
    induced order."""
    return _induced_lattice(*_meet_join_closure(rng))


def _meet_join_closure(rng: Xoshiro256StarStar) -> tuple:
    """``(grid, mask)``: a random grid and the closure under its meet and
    join of a random subset that holds its bottom and top.  One scan in
    ascending order pairs each element with itself and every element
    scanned before it, and adds their meet and join; an element added
    below the scan point is scanned next.  So every pair is tested once,
    and the set when no element is left unscanned is the least closed set
    that holds the subset, which is unique."""
    shape = (rng.randint(2, 4), rng.randint(2, 4))
    if shape not in _CLOSURE_GRIDS:
        _CLOSURE_GRIDS[shape] = grid_lattice(shape)
    grid = _CLOSURE_GRIDS[shape]
    chosen = 1 << grid.bottom | 1 << grid.top
    for i in range(grid.n):
        if rng.chance(2, 5):
            chosen |= 1 << i
    scanned = 0
    while unscanned := chosen & ~scanned:
        x = (unscanned & -unscanned).bit_length() - 1
        scanned |= 1 << x
        meet, join = grid.meet[x], grid.join[x]
        for y in iter_bits(scanned):
            chosen |= 1 << meet[y] | 1 << join[y]
    return grid, chosen


def _induced_lattice(grid: FiniteLattice, chosen: int) -> FiniteLattice:
    """The elements of ``grid`` in the mask ``chosen`` as a lattice with the
    order they have in ``grid``."""
    members = list(iter_bits(chosen))
    up = [sum(1 << k for k, j in enumerate(members) if grid.up[i] >> j & 1) for i in members]
    return check_lattice(FinitePoset([grid.labels[i] for i in members], up))


def random_game(rng: Xoshiro256StarStar, max_players: int = 3, max_size: int = 4) -> Game:
    """Random validated game: payoffs are built from supermodular own-strategy
    parts plus monotone complementarity couplings (plus opponent-only noise),
    then, on a fair coin per player, rescaled by a strictly increasing map.
    The construction guarantees validation, which is re-checked before return.
    """
    n_players = rng.randint(2, max_players)
    players = [f"p{i}" for i in range(1, n_players + 1)]
    strategies = {}
    for p in players:
        while True:
            L = random_lattice(rng, max_size=max_size)
            if L.n >= 2 or rng.chance(1, 4):
                break
        strategies[p] = L
    own_part = {}
    coupling_own = {}
    coupling_other = {}
    for p in players:
        L = strategies[p]
        own_part[p] = _random_supermodular_any(rng, L)
        coupling_own[p] = random_monotone_supermodular(rng, L)
        coupling_other[p] = random_monotone_supermodular(rng, L)
    factors = [strategies[p] for p in players]
    payoffs = {}
    for i, p in enumerate(players):
        # Opponent-only noise shifts each section by a constant, so it changes
        # neither the best responses nor any validation verdict.  A section
        # draws its noise when the profile order first meets it and sums its
        # pull (the opponents' couplings) then; its payoffs own + weight *
        # pull + noise are summed as integers over the section's denominator.
        own_n, own_d = _over_lcm(own_part[p])
        weight_n, weight_d = _over_lcm(coupling_own[p])
        others = [coupling_other[q] for j, q in enumerate(players) if j != i]
        sections = {}
        table = []
        for profile in itertools.product(*(f.labels for f in factors)):
            own = profile[i]
            opp = profile[:i] + profile[i + 1:]
            section = sections.get(opp)
            if section is None:
                noise = _random_fraction(rng, -4, 4)
                pull = sum(map(dict.__getitem__, others, opp), Fraction(0))
                pull_d = weight_d * pull.denominator
                den = math.lcm(own_d, pull_d, noise.denominator)
                section = sections[opp] = (den, den // own_d, pull.numerator * (den // pull_d),
                                           noise.numerator * (den // noise.denominator))
            den, own_scale, weight_scale, shift = section
            table.append(Fraction(own_n[own] * own_scale + weight_n[own] * weight_scale + shift,
                                  den))
        payoffs[p] = table
    codomains = {p: ChainCodomain.rational() for p in players}
    game = Game(players, strategies, codomains, payoffs)
    for p in players:
        if rng.chance(1, 2):
            game = game.transformed(p, random_strictly_increasing_map(rng, game.ranked[p].image))
    if not validate_game(game).holds:
        raise InvariantViolation("generator postcondition failed: game did not validate")
    return game


def _over_lcm(table: dict) -> tuple:
    """A table of rationals as ``({key: integer}, d)``, the integers its
    values times d, the least common denominator of the values."""
    d = math.lcm(*(v.denominator for v in table.values()))
    return {key: v.numerator * (d // v.denominator) for key, v in table.items()}, d


def _random_supermodular_any(rng: Xoshiro256StarStar, L: FiniteLattice) -> dict:
    """Random supermodular table on an arbitrary finite lattice: up to 400
    rejection draws at small sizes, with the up-set construction as fallback."""
    codomain = ChainCodomain.rational()
    if L.n <= 6:
        pool = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)]
        for _ in range(400):
            table = {label: rng.choice(pool) for label in L.labels}
            if is_supermodular(LatticeFunction(L, codomain, table)).holds:
                return table
    return _shifted_upsets(rng, L)


def generate(spec: GenSpec):
    """Materialize a GenSpec; returns ``(kind, instance)`` with kind in
    {"lattice", "function"}.  Identical specs yield bit-identical instances."""
    rng = Xoshiro256StarStar(spec.seed)
    if spec.family == CHAIN:
        size = spec.size if spec.size is not None else 4
        if size > 64:
            raise CapExceeded(f"a chain of {size} elements exceeds the cap of 64")
        L = chain_lattice(size)
    elif spec.family == GRID:
        L = grid_lattice(spec.dims if spec.dims is not None else (3, 3))
    elif spec.family == DIAMOND_MK:
        L = diamond_mk(spec.k if spec.k is not None else 3)
    elif spec.family == MEET_JOIN_CLOSURE:
        L = meet_join_closure_lattice(rng)
    else:
        raise InvariantViolation(f"unknown family {spec.family!r}")
    if spec.payoff is None:
        return "lattice", L
    return "function", random_function(rng, L, spec.payoff, budget=spec.budget)
