"""Finite games with lattice strategy spaces: validation, best responses,
equilibrium enumeration, and extremal equilibria by monotone iteration.

The joint strategy space is never materialized as one big lattice; profiles
are tuples of per-player labels in declaration order and all order structure
is computed componentwise.  Scans run in canonical, deterministic order, so
reports are identical regardless of how work is partitioned.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .argmax import Correspondence
from .errors import (
    InvariantViolation,
    LabeledCodomainUnsupported,
    NoGreatestElement,
    NotValidated,
    StateSpaceTooLarge,
    StructuralError,
    TheoremFalsified,
)
from .functions import LatticeFunction, image_map
from .lattice import (FinitePoset, componentwise_up, extremal_in, extremes, iter_bits,
                      pairwise_bounds, product_elements, tuple_label, validate_label)
from .topology import explicit_closed_family
from .verdict import Verdict


@dataclass(frozen=True)
class TopologySpec:
    """Per-player topology declaration: interval, discrete, or explicit sets."""

    kind: str
    closed_sets: tuple | None = None


class Game:
    """Players, per-player strategy lattices, and payoff tables on profiles.

    ``payoffs[p]`` maps each joint profile (a tuple of labels in player
    declaration order) to an exact value in player ``p``'s codomain.
    Instances are immutable after construction; caches are fill-once.
    """

    def __init__(self, players, strategies, codomains, payoffs, topologies=None):
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
        if topologies is not None:
            extra = [p for p in topologies if p not in self.players]
            if extra:
                raise StructuralError(f"topologies declared for unknown players {extra}")
            for p, spec in topologies.items():
                if spec.kind == "explicit":
                    # materializing validates the closed-family axioms against
                    # the player's strategy labels
                    explicit_closed_family(strategies[p].labels, spec.closed_sets)
        self.topologies = dict(topologies) if topologies else {}
        self.factors = tuple(self.strategies[p] for p in self.players)
        expected = None
        self.payoffs = {}
        self.keys = {}
        for p in self.players:
            table = payoffs[p]
            if expected is None:
                expected = set(itertools.product(*(f.labels for f in self.factors)))
            got = set(table)
            if got != expected:
                missing = sorted(expected - got)[:3]
                extra = sorted(got - expected)[:3]
                raise InvariantViolation(
                    f"payoff table for player {p!r} must be total over the joint profiles; "
                    f"missing e.g. {missing}, unknown e.g. {extra}")
            codomain = self.codomains[p]
            values = {profile: codomain.validate(v) for profile, v in table.items()}
            self.payoffs[p] = values
            self.keys[p] = {profile: codomain.key(v) for profile, v in values.items()}
        self._br_cache = {p: {} for p in self.players}
        self._validation = None
        self._equilibria = None

    @property
    def profile_count(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.n
        return n

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

    def opp_profile(self, i: int, profile) -> tuple:
        return profile[:i] + profile[i + 1:]

    def _insert(self, i: int, opp: tuple, label: str) -> tuple:
        return opp[:i] + (label,) + opp[i:]

    def opp_profiles(self, i: int):
        others = [f.labels for j, f in enumerate(self.factors) if j != i]
        return itertools.product(*others)

    def _br(self, i: int, opp: tuple):
        """Best-response labels and bitmask of player i against an opponent profile."""
        cache = self._br_cache[self.players[i]]
        hit = cache.get(opp)
        if hit is not None:
            return hit
        factor = self.factors[i]
        keys = self.keys[self.players[i]]
        best = None
        for label in factor.labels:
            k = keys[self._insert(i, opp, label)]
            if best is None or k > best:
                best = k
        labels = tuple(label for label in factor.labels
                       if keys[self._insert(i, opp, label)] == best)
        mask = factor.subset_mask(labels)
        result = (labels, frozenset(labels), mask)
        cache[opp] = result
        return result

    def section(self, i: int, opp: tuple) -> LatticeFunction:
        """Player i's payoff as a function of their own strategy, opponents fixed."""
        factor = self.factors[i]
        player = self.players[i]
        table = {label: self.payoffs[player][self._insert(i, opp, label)]
                 for label in factor.labels}
        return LatticeFunction(factor, self.codomains[player], table)

    def transformed(self, player: str, t) -> "Game":
        """Copy of the game with a strictly increasing map applied to one payoff."""
        i = self.player_index(player)
        codomain = self.codomains[player]
        if not codomain.is_rational:
            raise LabeledCodomainUnsupported("transforms are defined for rational payoffs")
        mapped = image_map(sorted(set(self.payoffs[player].values())), t)
        payoffs = {p: dict(self.payoffs[p]) for p in self.players}
        payoffs[player] = {profile: mapped[v] for profile, v in self.payoffs[player].items()}
        return Game(self.players, self.strategies, self.codomains, payoffs,
                    topologies=self.topologies or None)


def validate_game(G: Game) -> Verdict:
    """Sectionwise quasisupermodularity plus single crossing for every player.

    The witness names the player, the clause, and the violating tuple.
    Results are cached on the game.
    """
    from .properties import qsm_witness, single_crossing_witness

    if G._validation is not None:
        return G._validation
    verdict = Verdict(True)
    for i, player in enumerate(G.players):
        opps = list(G.opp_profiles(i))
        factor = G.factors[i]
        keys = G.keys[player]
        columns = [[keys[G._insert(i, q, label)] for q in opps] for label in factor.labels]
        hit = qsm_witness(factor, list(zip(*columns)))
        if hit is not None:
            c, x, y, clause = hit
            verdict = Verdict(False, witness=(
                ("player", player), ("check", "section-quasisupermodular"),
                ("opponents", opps[c]), ("x", factor.labels[x]), ("y", factor.labels[y]),
                ("clause", clause)))
            break
        hit = single_crossing_witness([factor], G.factors[:i] + G.factors[i + 1:], columns)
        if hit is not None:
            p, p2, q, q2, clause = hit
            verdict = Verdict(False, witness=(
                ("player", player), ("check", "single-crossing"),
                ("p", factor.labels[p]), ("p2", factor.labels[p2]),
                ("q", opps[q]), ("q2", opps[q2]), ("clause", clause)))
            break
    G._validation = verdict
    return verdict


def best_response(G: Game, player: str, profile) -> tuple:
    """Maximizers of the player's section at the profile; depends only on the
    opponents' coordinates."""
    i = G.player_index(player)
    profile = G.check_profile(profile)
    return G._br(i, G.opp_profile(i, profile))[0]


def is_nash(G: Game, profile) -> bool:
    return _is_equilibrium(G, G.check_profile(profile))


def _is_equilibrium(G: Game, profile: tuple) -> bool:
    for i in range(len(G.players)):
        if profile[i] not in G._br(i, G.opp_profile(i, profile))[1]:
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
    notes: tuple = ()

    @property
    def count(self) -> int:
        return len(self.equilibria)


def _equilibrium_order(G: Game, cap: int) -> tuple:
    """The equilibria in canonical profile order, as a poset under the order the
    joint space induces (``lattice.componentwise_up``), with their coordinate
    tuples; cached on the game."""
    if G.profile_count > cap:
        raise StateSpaceTooLarge(
            f"{G.profile_count} joint strategies exceed the enumeration cap {cap}")
    if G._equilibria is None:
        equilibria = [e for e in G.profiles() if _is_equilibrium(G, e)]
        coords = [tuple(f.index[x] for f, x in zip(G.factors, e)) for e in equilibria]
        G._equilibria = FinitePoset(equilibria, componentwise_up(G.factors, coords)), coords
    return G._equilibria


def enumerate_nash(G: Game, cap: int = 1_000_000) -> NashReport:
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


def _extremal_br(G: Game, i: int, opp: tuple, want_greatest: bool) -> str:
    """Greatest (or least) element of a best-response set, as a set in S_i."""
    factor = G.factors[i]
    idx = extremal_in(factor.poset, G._br(i, opp)[2], want_greatest)
    if idx is None:
        raise NoGreatestElement(f"best response of player {G.players[i]} against {tuple_label(opp)}"
                                f" has no {'greatest' if want_greatest else 'least'} element")
    return factor.labels[idx]


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
        if want_greatest:
            x = tuple(f.labels[f.top] for f in G.factors)
        else:
            x = tuple(f.labels[f.bottom] for f in G.factors)
        steps = 0
        while True:
            y = tuple(_extremal_br(G, i, G.opp_profile(i, x), want_greatest)
                      for i in range(len(G.players)))
            steps += 1
            if y == x:
                break
            x = y
            if steps > limit:
                raise TheoremFalsified("extremal best-response iteration failed to converge "
                                       "on a validated game")
        if not is_nash(G, x):
            raise TheoremFalsified("extremal iteration converged to a non-equilibrium "
                                   "on a validated game")
        results.append((x, steps))
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


def verify_equilibrium_structure(G: Game, cap: int = 1_000_000) -> NashReport:
    """Equilibrium set structure: completeness in the induced order, extremal
    points, and whether the set is also a sublattice of the joint space.

    On a finite nonempty set, pairwise least upper and greatest lower bounds
    within the set characterize being a complete lattice in the induced order.
    ``sublattice_gap`` reports a pair whose meet or join computed in the joint
    space escapes the set, distinguishing the two readings.
    """
    base = enumerate_nash(G, cap=cap)
    E = base.equilibria
    order, coords = _equilibrium_order(G, cap)
    complete = bool(E) and all(lub is not None and glb is not None
                               for _, _, lub, glb in pairwise_bounds(order))
    gap = _sublattice_gap(G, order, coords)
    certifies = ("order", "topological") if all(
        G.codomains[p].is_rational for p in G.players) else ("order",)
    notes = ()
    if certifies == ("order",):
        notes = ("labeled gains: only the order-theoretic route applies",)
    return NashReport(equilibria=E, largest=base.largest, least=base.least,
                      is_complete_lattice=complete, sublattice_gap=gap,
                      certifies=certifies, notes=notes)


def best_response_correspondence(G: Game, player: str, max_index_size: int = 4096) -> Correspondence:
    """The player's best responses as a correspondence over the opponents'
    joint order (materialized, so guarded by a size cap)."""
    i = G.player_index(player)
    others = G.factors[:i] + G.factors[i + 1:]
    count = math.prod(f.n for f in others)
    if count > max_index_size:
        raise StateSpaceTooLarge(
            f"opponent space of size {count} exceeds the correspondence cap {max_index_size}")
    labels, coords = product_elements(others)
    values = {label: G._br(i, tuple(f.labels[c] for f, c in zip(others, coord)))[0]
              for label, coord in zip(labels, coords)}
    return Correspondence(G.strategies[player], values,
                          index_poset=FinitePoset(labels, componentwise_up(others, coords)))
