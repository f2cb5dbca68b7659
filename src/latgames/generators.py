"""Deterministic builders and seeded random generators for lattices,
functions, and games.

Everything is driven by the pinned PRNG in ``rng.py``: one GenSpec yields
bit-identical instances on every platform.  Every random payoff is
re-verified against its advertised property before it is returned.
"""
from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, InvariantViolation, RejectionBudgetExhausted
from .functions import ChainCodomain, LatticeFunction
from .games import Game, validate_game
from .lattice import (
    FiniteLattice,
    FinitePoset,
    check_lattice,
    iter_bits,
    poset_from_covers,
    product_lattice,
)
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


def chain_lattice(n: int, labels=None) -> FiniteLattice:
    if n < 1:
        raise CapExceeded(f"a chain needs at least one element, got {n}")
    if labels is None:
        width = len(str(n - 1))
        labels = [f"c{i:0{width}d}" for i in range(n)]
    labels = list(labels)
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return check_lattice(poset_from_covers(labels, covers))


def fraction_chain(values) -> FiniteLattice:
    """Chain whose elements are exact rationals, labeled by reduced fractions."""
    fracs = sorted(Fraction(v) for v in values)
    if len(set(fracs)) != len(fracs):
        raise InvariantViolation("chain values must be distinct")
    labels = [str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
              for f in fracs]
    return chain_lattice(len(labels), labels=labels)


def grid_lattice(dims) -> FiniteLattice:
    """Product of integer chains; the workhorse domain for supermodular tables."""
    dims = tuple(dims)
    if not dims or any(d < 1 for d in dims):
        raise CapExceeded(f"grid dimensions {dims} must be positive")
    cells = 1
    for d in dims:
        cells *= d
    if cells > 4096:
        raise CapExceeded(f"grid with {cells} cells exceeds the generator cap")
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
    return check_lattice(poset_from_covers(elements, covers))


def diamond() -> FiniteLattice:
    return check_lattice(poset_from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]))


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
    if n > 7:
        raise CapExceeded("exhaustive lattice enumeration is capped at size 7")
    labels = list(string.ascii_lowercase[:n])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    from .errors import NotALattice

    for mask in range(1 << len(pairs)):
        strict = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                strict[i] |= 1 << j
        ok = True
        for i in range(n):
            rest = strict[i]
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                if strict[j] & ~strict[i]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
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
    """Random strictly increasing rational map on a finite image."""
    image = sorted(image)
    out = {}
    level = _random_fraction(rng, -8, 8)
    for v in image:
        out[v] = level
        level = level + Fraction(rng.randint(1, 5), rng.choice((1, 2, 3)))
    return out


def random_monotone_supermodular(rng: Xoshiro256StarStar, L: FiniteLattice,
                                 terms: int | None = None) -> dict:
    """Nonnegative combination of up-set indicators: monotone and supermodular
    on any finite lattice."""
    if terms is None:
        terms = rng.randint(1, max(2, L.n // 2 + 1))
    table = {label: Fraction(0) for label in L.labels}
    for _ in range(terms):
        p = rng.below(L.n)
        w = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        for j in iter_bits(L.poset.up[p]):
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


def _is_chain_product(L: FiniteLattice) -> bool:
    if L.factors is None:
        return False
    return all(_is_total(f) for f in L.factors)


def _is_total(f: FiniteLattice) -> bool:
    return all(f.poset._leq(i, j) or f.poset._leq(j, i)
               for i in range(f.n) for j in range(i + 1, f.n))


def random_function(rng: Xoshiro256StarStar, L: FiniteLattice, strategy: str,
                    budget: int = 100_000, values=(0, 1, 2, 3)) -> LatticeFunction:
    """Random quasisupermodular function on L; re-verified before return."""
    from .properties import is_quasisupermodular, is_supermodular

    codomain = ChainCodomain.rational()
    if strategy == SUPERMODULAR_THEN_TRANSFORM:
        if L.factors is not None and _is_chain_product(L):
            table = _grid_supermodular(rng, L)
        else:
            # On non-grid lattices, fall back to the up-set construction plus
            # a random constant shift; still supermodular everywhere.
            table = random_monotone_supermodular(rng, L)
            shift = _random_fraction(rng)
            table = {k: v + shift for k, v in table.items()}
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
            dims_pool = [(2, 2), (2, 3), (3, 2), (2, 4), (2, 2, 2)]
            L = grid_lattice(rng.choice(dims_pool))
        elif kind == 2:
            L = diamond_mk(rng.randint(1, max(1, max_size - 2)))
        else:
            L = meet_join_closure_lattice(rng)
        if L.n <= max_size:
            return L


def meet_join_closure_lattice(rng: Xoshiro256StarStar) -> FiniteLattice:
    """Random subset of a random grid, closed under the grid's meet and join,
    taken as a standalone lattice with the induced order."""
    grid = grid_lattice((rng.randint(2, 4), rng.randint(2, 4)))
    chosen = {grid.bottom, grid.top}
    for i in range(grid.n):
        if rng.chance(2, 5):
            chosen.add(i)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(chosen), 2):
            for c in (grid.meet[a][b], grid.join[a][b]):
                if c not in chosen:
                    chosen.add(c)
                    changed = True
    members = sorted(chosen)
    labels = [grid.labels[i] for i in members]
    pos = {i: k for k, i in enumerate(members)}
    up = [0] * len(members)
    for i in members:
        for j in iter_bits(grid.poset.up[i]):
            if j in pos:
                up[pos[i]] |= 1 << pos[j]
    return check_lattice(FinitePoset(labels, up))


def random_game(rng: Xoshiro256StarStar, max_players: int = 3, max_size: int = 4,
                transform_chance: bool = True) -> Game:
    """Random validated game: payoffs are built from supermodular own-strategy
    parts plus monotone complementarity couplings (plus opponent-only noise),
    then optionally rescaled by a strictly increasing map per player.  The
    construction guarantees validation, which is re-checked before return.
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
        # neither the best responses nor any validation verdict.
        noise = {}
        table = {}
        for profile in itertools.product(*(f.labels for f in factors)):
            own = profile[i]
            opp = profile[:i] + profile[i + 1:]
            if opp not in noise:
                noise[opp] = _random_fraction(rng, -4, 4)
            pull = sum((coupling_other[q][profile[j]]
                        for j, q in enumerate(players) if j != i), Fraction(0))
            table[profile] = own_part[p][own] + coupling_own[p][own] * pull + noise[opp]
        payoffs[p] = table
    codomains = {p: ChainCodomain.rational() for p in players}
    game = Game(players, strategies, codomains, payoffs)
    if transform_chance:
        for p in players:
            if rng.chance(1, 2):
                image = sorted(set(game.payoffs[p].values()))
                game = game.transformed(p, random_strictly_increasing_map(rng, image))
    if not validate_game(game).holds:
        raise InvariantViolation("generator postcondition failed: game did not validate")
    return game


def _random_supermodular_any(rng: Xoshiro256StarStar, L: FiniteLattice,
                             attempts: int = 400) -> dict:
    """Random supermodular table on an arbitrary finite lattice: rejection
    sampling at small sizes with the up-set construction as fallback."""
    from .properties import is_supermodular

    codomain = ChainCodomain.rational()
    if L.n <= 6:
        pool = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)]
        for _ in range(attempts):
            table = {label: rng.choice(pool) for label in L.labels}
            if is_supermodular(LatticeFunction(L, codomain, table)).holds:
                return table
    table = random_monotone_supermodular(rng, L)
    shift = _random_fraction(rng)
    return {k: v + shift for k, v in table.items()}


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
