"""Finite games with lattice strategy spaces: validation, best responses,
equilibrium enumeration, and extremal equilibria by monotone iteration.

The joint strategy space is never materialized as one big lattice.  A
profile is a tuple of per-player labels in declaration order, and its index
is mixed radix over the label indexes, player 0 most significant; payoffs
are flat lists over that index, and the scans work on indexes and label
indexes, turning them into labels only for reports.  All order structure is
computed componentwise.  Scans run in canonical, deterministic order, so
reports are identical regardless of how work is partitioned.
"""
from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .argmax import Correspondence, is_increasing_strong_set_order
from .errors import (
    InvariantViolation,
    LabeledCodomainUnsupported,
    NotValidated,
    StateSpaceTooLarge,
    StructuralError,
    TheoremFalsified,
)
from .functions import image_map, ranked_image
from .lattice import (FinitePoset, chain_ranks, componentwise_up, cover_pairs, extremal_in,
                      extremes, flat_labels, iter_bits, pairwise_bounds, product_elements,
                      radix_strides, split_columns, strong_set_witness, tuple_label,
                      validate_label)
from .properties import qsm_witness, single_crossing_witness
from .verdict import Verdict

ENUMERATION_CAP = 1_000_000
CORRESPONDENCE_CAP = 4096


class Game:
    """Players, per-player strategy lattices, and payoff tables on profiles.

    ``values[p]`` holds player ``p``'s exact payoffs and ``ranks[p]`` their
    dense ranks (``ChainCodomain.ranks``), both flat lists indexed by the
    profile index, which enumerates profiles in ``profiles()`` order; every
    check compares ranks.  The values of a player ranked by the parser are
    built on first read of ``values``.  ``payoffs[p]``, the same table keyed
    by profile tuples, is built on first use.  Instances are immutable after
    construction (the lists are never written to); caches are fill-once.
    The flat tables are lists rather than tuples because CPython keeps up
    to 2000 freed tuples of each length below 20 for reuse, so tables of
    short games of many sizes would stay resident after their games die.

    A game is order data only: each strategy set carries its interval
    closed sets, on a finite lattice all its subsets
    (``interval_closed_family``), so a game declares none.
    """

    def __init__(self, players, strategies, codomains, payoffs, _images=None):
        """``payoffs[p]`` maps each joint profile to a value in player ``p``'s
        codomain, or lists the values in ``profiles()`` order.  For a player
        of ``_images`` (``io``'s payoff reader) it lists the dense ranks in
        that order instead, and ``_images[p]`` the rational of each rank as
        an integer pair (numerator, denominator)."""
        self.players = tuple(players)
        if not self.players:
            raise StructuralError("a game needs at least one player")
        if len(set(self.players)) != len(self.players):
            raise StructuralError("player ids must be distinct")
        for p in self.players:
            validate_label(p)
        for name, mapping in (("strategies", strategies), ("codomains", codomains),
                              ("payoffs", payoffs)):
            missing = [p for p in self.players if p not in mapping]
            extra = [p for p in mapping if p not in self.players]
            if missing or extra:
                raise StructuralError(f"{name} must be keyed exactly by the players; "
                                      f"missing {missing}, extra {extra}")
        self.strategies = {p: strategies[p] for p in self.players}
        self.codomains = {p: codomains[p] for p in self.players}
        self.factors = tuple(self.strategies[p] for p in self.players)
        self.strides = radix_strides(self.factors)
        self._images = _images or None
        self._values, self.ranks = {}, {}
        for p in self.players:
            if self._images and p in self._images:
                self._values[p], self.ranks[p] = None, payoffs[p]
                continue
            codomain = self.codomains[p]
            values = self._values[p] = list(map(codomain.validate, self._flat(p, payoffs[p])))
            self.ranks[p] = codomain.ranks(values)
        self._empty_caches()

    def _empty_caches(self):
        self._payoffs = None
        self._br_cache = [{} for _ in self.players]
        self._covers = [None] * len(self.players)
        self._validation = None
        self._equilibria = None

    def _flat(self, player, table):
        """The player's table as values in profile-index order."""
        if isinstance(table, (list, tuple)):
            if len(table) != self.profile_count:
                raise InvariantViolation(
                    f"payoff list for player {player!r} has {len(table)} values "
                    f"for {self.profile_count} joint profiles")
            return table
        if len(table) == self.profile_count:
            try:
                return [table[profile] for profile in self.profiles()]
            except KeyError:
                pass
        expected = set(self.profiles())
        got = set(table)
        raise InvariantViolation(
            f"payoff table for player {player!r} must be total over the joint profiles; "
            f"missing e.g. {sorted(expected - got)[:3]}, unknown e.g. {sorted(got - expected)[:3]}")

    @property
    def values(self) -> dict:
        if self._images is not None:
            self._build_values()
            self._images = None
        return self._values

    def _build_values(self):
        """Fill in the values of the ``_images`` players, read off their
        images by rank."""
        for p, pairs in self._images.items():
            image = [Fraction(n, d) for n, d in pairs]
            self._values[p] = list(map(image.__getitem__, self.ranks[p]))

    @property
    def payoffs(self) -> dict:
        if self._payoffs is None:
            profiles = list(self.profiles())
            self._payoffs = {p: dict(zip(profiles, self.values[p])) for p in self.players}
        return self._payoffs

    @property
    def profile_count(self) -> int:
        return math.prod(f.n for f in self.factors)

    def profiles(self):
        """All joint profiles, in canonical (componentwise label) order."""
        return itertools.product(*(f.labels for f in self.factors))

    def player_index(self, player: str) -> int:
        try:
            return self.players.index(player)
        except ValueError:
            raise StructuralError(f"unknown player {player!r}") from None

    def check_profile(self, profile) -> tuple:
        profile = tuple(profile)
        if len(profile) != len(self.players):
            raise StructuralError("profile has the wrong number of coordinates")
        for f, label in zip(self.factors, profile):
            if label not in f.index:
                raise StructuralError(f"label {label!r} is not a strategy of its player")
        return profile

    def profile_index(self, profile) -> int:
        """Index of a checked profile of labels."""
        return sum(f.index[label] * stride
                   for f, label, stride in zip(self.factors, profile, self.strides))

    def coords(self, x: int) -> tuple:
        """Label indexes of the profile at index ``x``."""
        return tuple(x // stride % f.n for f, stride in zip(self.factors, self.strides))

    def labels_at(self, coords) -> tuple:
        return tuple(f.labels[c] for f, c in zip(self.factors, coords))

    def opp_profiles(self, i: int):
        others = [f.labels for j, f in enumerate(self.factors) if j != i]
        return itertools.product(*others)

    def _opponent_covers(self, i: int) -> tuple:
        """``lattice.cover_pairs`` of player i's opponents; cached."""
        if self._covers[i] is None:
            self._covers[i] = cover_pairs(self.factors[:i] + self.factors[i + 1:])
        return self._covers[i]

    def _br(self, i: int, base: int) -> int:
        """Bitmask over S_i of player i's best responses to the opponents at
        ``base``: the top ranks at base + s·stride_i; cached by base."""
        cache = self._br_cache[i]
        mask = cache.get(base)
        if mask is None:
            stride = self.strides[i]
            row = self.ranks[self.players[i]][base:base + self.factors[i].n * stride:stride]
            best = max(row)
            mask = 0
            for s, r in enumerate(row):
                if r == best:
                    mask |= 1 << s
            cache[base] = mask
        return mask

    def transformed(self, player: str, t) -> "Game":
        """Copy of the game with a strictly increasing map applied to one
        payoff.  The map leaves every dense rank as it is, so the copy keeps
        the ranks of every player and the value lists of the others, reads
        the player's new values off its ranks (``image_map``), and neither
        validates nor ranks again; its caches start empty."""
        self.player_index(player)
        if not self.codomains[player].is_rational:
            raise LabeledCodomainUnsupported("transforms are defined for rational payoffs")
        ranks = self.ranks[player]
        by_rank = image_map(ranked_image(self.values[player], ranks), t)
        game = copy.copy(self)
        game._values = dict(self.values)
        game._values[player] = list(map(by_rank.__getitem__, ranks))
        game.ranks = dict(self.ranks)
        game._images = None
        game._empty_caches()
        return game


def validate_game(G: Game) -> Verdict:
    """Sectionwise quasisupermodularity plus single crossing for every player.

    The witness names the player, the clause, and the violating tuple.
    Results are cached on the game.
    """
    if G._validation is not None:
        return G._validation
    verdict = Verdict(True)
    for i, player in enumerate(G.players):
        factor, opponents = G.factors[i], G.factors[:i] + G.factors[i + 1:]
        # columns[s][c]: the rank at own label index s against the c-th opponent profile
        columns = split_columns(G.factors, G.ranks[player], i, G.strides)
        hit = qsm_witness(factor, list(zip(*columns)))
        if hit is not None:
            c, x, y, clause = hit
            verdict = Verdict(False, witness=(
                ("player", player), ("check", "section-quasisupermodular"),
                ("opponents", flat_labels(opponents, c)),
                ("x", factor.labels[x]), ("y", factor.labels[y]), ("clause", clause)))
            break
        hit = single_crossing_witness(factor, opponents, columns, covers=G._opponent_covers(i))
        if hit is not None:
            p, p2, q, q2, clause = hit
            verdict = Verdict(False, witness=(
                ("player", player), ("check", "single-crossing"),
                ("p", factor.labels[p]), ("p2", factor.labels[p2]),
                ("q", flat_labels(opponents, q)), ("q2", flat_labels(opponents, q2)),
                ("clause", clause)))
            break
    G._validation = verdict
    return verdict


def best_response(G: Game, player: str, profile) -> tuple:
    """Maximizers of the player's section at the profile; depends only on the
    opponents' coordinates."""
    i = G.player_index(player)
    x = G.profile_index(G.check_profile(profile))
    return G.factors[i].labels_of(G._br(i, x - G.coords(x)[i] * G.strides[i]))


def is_nash(G: Game, profile) -> bool:
    return _is_equilibrium(G, G.profile_index(G.check_profile(profile)))


def _is_equilibrium(G: Game, x: int) -> bool:
    """Whether every player best-responds at the profile with index ``x``."""
    for i, (f, stride) in enumerate(zip(G.factors, G.strides)):
        s = x // stride % f.n
        if not G._br(i, x - s * stride) >> s & 1:
            return False
    return True


@dataclass(frozen=True)
class NashReport:
    equilibria: tuple
    largest: tuple | None = None
    least: tuple | None = None
    is_complete_lattice: bool | None = None
    sublattice_gap: tuple | None = None
    certifies: tuple = ()

    @property
    def count(self) -> int:
        return len(self.equilibria)


def _equilibrium_order(G: Game, cap: int) -> tuple:
    """The equilibria in canonical profile order, as a poset under the order the
    joint space induces, with their coordinate tuples; cached on the game.
    Both row sets come from ``lattice.componentwise_up``."""
    if G.profile_count > cap:
        raise StateSpaceTooLarge(
            f"{G.profile_count} joint strategies exceed the enumeration cap {cap}")
    if G._equilibria is None:
        coords = [G.coords(x) for x in range(G.profile_count) if _is_equilibrium(G, x)]
        G._equilibria = (FinitePoset(map(G.labels_at, coords), componentwise_up(G.factors, coords),
                                     _down=componentwise_up(G.factors, coords, dual=True)),
                         coords)
    return G._equilibria


def enumerate_nash(G: Game, cap: int = ENUMERATION_CAP) -> NashReport:
    """Exact equilibrium set by brute force over all joint profiles."""
    order = _equilibrium_order(G, cap)[0]
    ext = extremes(order)
    return NashReport(equilibria=order.labels, largest=ext.greatest, least=ext.least)


@dataclass(frozen=True)
class TarskiReport:
    largest: tuple
    least: tuple
    iterations_up: int
    iterations_down: int


def _extremal_br(G: Game, i: int, base: int, want_greatest: bool) -> int:
    """Label index of the greatest (or least) best response of player i to
    the opponents at ``base``.  On a validated game the best responses are
    the argmax of a quasisupermodular section, a nonempty sublattice with
    both extrema, so a missing one raises ``TheoremFalsified``."""
    idx = extremal_in(G.factors[i], G._br(i, base), want_greatest)
    if idx is None:
        profile = G.labels_at(G.coords(base))
        raise TheoremFalsified(f"best response of player {G.players[i]} against "
                               f"{tuple_label(profile[:i] + profile[i + 1:])} has no "
                               f"{'greatest' if want_greatest else 'least'} element")
    return idx


def tarski_extremes(G: Game) -> TarskiReport:
    """Extremal equilibria by iterating the extremal best-response map from the
    top (resp. bottom) of the joint strategy space.

    Refuses to run on games that fail validation: monotonicity of the map is
    only guaranteed for validated games, and iterating anything else could
    cycle.
    """
    if not validate_game(G).holds:
        raise NotValidated("tarski_extremes needs a validated game")
    results = []
    limit = sum(f.n for f in G.factors) + 2
    for want_greatest in (True, False):
        x = [f.top if want_greatest else f.bottom for f in G.factors]
        steps = 0
        while True:
            index = sum(c * stride for c, stride in zip(x, G.strides))
            y = [_extremal_br(G, i, index - c * stride, want_greatest)
                 for i, (c, stride) in enumerate(zip(x, G.strides))]
            steps += 1
            if y == x:
                break
            x = y
            if steps > limit:
                raise TheoremFalsified("extremal best-response iteration failed to converge "
                                       "on a validated game")
        if not _is_equilibrium(G, index):
            raise TheoremFalsified("extremal iteration converged to a non-equilibrium "
                                   "on a validated game")
        results.append((G.labels_at(x), steps))
    (largest, up), (least, down) = results
    return TarskiReport(largest=largest, least=least, iterations_up=up, iterations_down=down)


def _sublattice_gap(G: Game, order: FinitePoset, coords):
    """First pair (a, b) of E's poset ``order``, in ``combinations`` order, whose
    meet (tested first) or join in the joint space is not in E, with that value.
    Comparable pairs are their own meet and join, so they are skipped."""
    members = set(coords)
    for a, ca in enumerate(coords):
        for b in iter_bits((order.full & ~(order.up[a] | order.down[a])) >> a << a):
            for op in ("meet", "join"):
                c = tuple(getattr(f, op)[x][y] for f, x, y in zip(G.factors, ca, coords[b]))
                if c not in members:
                    return (order.labels[a], order.labels[b], op,
                            tuple(f.labels[k] for f, k in zip(G.factors, c)))
    return None


def _pair_closed(rows) -> bool:
    """Whether the pairs {(a, b) : bit b of rows[a]} of a product of two chains,
    in rank coordinates, are closed under join and meet.  Rows a < r with a
    member b above some c in row r join it to (r, b), so, sweeping up, the
    rows below r cut to the columns above row r's least member must lie in
    row r; meets are the dual sweep down.  O(len(rows)) big-int operations."""
    below = above = 0
    for row in rows:
        lo = (row & -row).bit_length()  # one past the least member
        if row and below >> lo << lo & ~row:
            return False
        below |= row
    for row in reversed(rows):
        if row and above & (1 << row.bit_length() - 1) - 1 & ~row:
            return False
        above |= row
    return True


def _chain_sublattice(factors, coords) -> bool | None:
    """Whether the tuples ``coords`` (label indexes) form a sublattice of the
    product of ``factors``; None when some factor is not a chain.

    On a product of chains a set is a sublattice iff (a) its projection on
    each pair of factors i < j is one, and (b) it holds every tuple whose
    pairwise projections all lie in its own (Topkis 1998, §2.2), read on
    ``chain_ranks``, since label order need not be chain order.  (b) counts,
    factor by factor, the tuples that pass the projections so far
    (``_projection_count``); the set satisfies it iff the count is its size.
    """
    ranks = list(map(chain_ranks, factors))
    if None in ranks:
        return None
    points = [tuple(r[c] for r, c in zip(ranks, e)) for e in coords]
    proj = {}
    for i, j in itertools.combinations(range(len(factors)), 2):
        rows = proj[i, j] = [0] * factors[i].n
        for p in points:
            rows[p[i]] |= 1 << p[j]
        if not _pair_closed(rows):
            return False
    first = sum(1 << r for r in {p[0] for p in points})
    return _projection_count(factors, proj, first, ()) == len(points)


def _projection_count(factors, proj, first, prefix) -> int:
    """The rank tuples extending ``prefix`` whose first coordinate is in the
    mask ``first`` and whose pairwise projections all lie in ``proj``,
    counted depth first, with the last factor's by ``bit_count``."""
    d = len(prefix)
    mask = factors[d].full if d else first
    for i, t in enumerate(prefix):
        mask &= proj[i, d][t]
    if d == len(factors) - 1:
        return mask.bit_count()
    return sum(_projection_count(factors, proj, first, prefix + (t,)) for t in iter_bits(mask))


def verify_equilibrium_structure(G: Game, cap: int = ENUMERATION_CAP) -> NashReport:
    """Equilibrium set structure: completeness in the induced order, extremal
    points, and whether the set is also a sublattice of the joint space.

    ``sublattice_gap`` is the first pair, in ``combinations`` order, whose
    meet (tested first) or join in the joint space escapes the set, or None.
    Two theorems spare the O(|E|²) pair scans:

    1. A nonempty sublattice is closed under the joint space's meet and
       join, which are then its bounds in the induced order, and a finite
       lattice is complete; so with no gap ``complete`` holds outright.
       With a gap it is decided by ``pairwise_bounds``.
    2. When every strategy set is a chain, E is a sublattice iff (a) its
       projection on each pair of players is one and (b) it holds every
       profile whose pairwise projections lie in E's (``_chain_sublattice``,
       on chain ranks, with big-int row masks and no pair scan).  When it
       finds E is not a sublattice, ``_sublattice_gap`` scans for the
       witness; a scan that finds none raises ``TheoremFalsified``.  Other
       games keep the scan.
    """
    base = enumerate_nash(G, cap=cap)
    E = base.equilibria
    order, coords = _equilibrium_order(G, cap)
    sublattice = _chain_sublattice(G.factors, coords)
    gap = None if sublattice else _sublattice_gap(G, order, coords)
    if sublattice is False and gap is None:
        raise TheoremFalsified("a projection test found the equilibrium set is not a "
                               "sublattice of a product of chains but the pair scan found no gap")
    complete = bool(E) and (gap is None or all(lub is not None and glb is not None
                                               for _, _, lub, glb in pairwise_bounds(order)))
    certifies = ("order", "topological") if all(
        G.codomains[p].is_rational for p in G.players) else ("order",)
    return NashReport(equilibria=E, largest=base.largest, least=base.least,
                      is_complete_lattice=complete, sublattice_gap=gap, certifies=certifies)


def best_response_correspondence(G: Game, player: str) -> Correspondence:
    """The player's best-response masks over the opponents' joint order
    (materialized, so guarded by ``CORRESPONDENCE_CAP``)."""
    i = G.player_index(player)
    others = G.factors[:i] + G.factors[i + 1:]
    count = math.prod(f.n for f in others)
    if count > CORRESPONDENCE_CAP:
        raise StateSpaceTooLarge(
            f"opponent space of size {count} exceeds the correspondence cap {CORRESPONDENCE_CAP}")
    labels, coords, _ = product_elements(others)
    strides = G.strides[:i] + G.strides[i + 1:]
    return Correspondence(G.factors[i], labels, componentwise_up(others, coords),
                          [G._br(i, sum(c * stride for c, stride in zip(coord, strides)))
                           for coord in coords])


def best_response_strong_set_order(G: Game, player: str) -> Verdict:
    """Whether the player's best responses rise in the strong set order over
    the opponents' joint order, with the verdict and witness of
    ``is_increasing_strong_set_order`` on ``best_response_correspondence``.

    The strong set order is transitive on nonempty sets (Topkis 1998, §2.4)
    and any s <= s' of the opponents' product is joined by a chain of
    ``lattice.cover_pairs``, so only each distinct best-response mask
    against itself (a sublattice) and each distinct pair of masks on a
    cover pair are tested, with no labels and no cap.  A failing check runs
    the correspondence scan, under ``CORRESPONDENCE_CAP``, for the least
    witness; a scan that finds none raises ``TheoremFalsified``.  Two
    opponent profiles can share a label only if an opponent label holds
    ``,``; when two do, the scan runs at once and raises ``DuplicateLabel``.
    """
    i = G.player_index(player)
    own, stride = G.factors[i], G.strides[i]
    others = G.factors[:i] + G.factors[i + 1:]
    masks = [G._br(i, top + r) for top in range(0, G.profile_count, stride * own.n)
             for r in range(stride)]
    if any("," in label for f in others for label in f.labels):
        labels = set(map(tuple_label, itertools.product(*(f.labels for f in others))))
        if len(labels) < len(masks):
            return is_increasing_strong_set_order(best_response_correspondence(G, player))
    lows, highs = G._opponent_covers(i)
    pairs = {(m, m) for m in masks}
    pairs.update(zip(map(masks.__getitem__, lows), map(masks.__getitem__, highs)))
    if not any(strong_set_witness(own, lo, hi) for lo, hi in pairs):
        return Verdict(True)
    verdict = is_increasing_strong_set_order(best_response_correspondence(G, player))
    if verdict.holds:
        raise TheoremFalsified("best responses failed the strong set order on a cover pair "
                               "but the correspondence scan found no witness")
    return verdict
