"""Finite topologies on lattice carriers, stored as their point closures.

Every topology on a finite set is Alexandrov: its closed sets are closed
under arbitrary unions, so each point x has a least closed set cl{x}
containing it, and these n closures determine the topology (Alexandroff
1937, "Diskrete Räume"; Stong 1966, "Finite topological spaces").  A
``ClosedFamily`` keeps cl{x} as a bitmask over the carrier's canonical
element order, for each x:

- the closure of S is the union of cl{x} over x in S, and S is closed iff
  that union is S;
- the least open neighbourhood of y is {z : y in cl{z}}.

So every query is O(n) mask operations, where the closed sets themselves
number 2^n for the interval topology of a finite lattice.  ``sets`` lists
them on demand, for small carriers only.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .lattice import FiniteLattice, iter_bits

INTERVAL = "interval"
DISCRETE = "discrete"
EXPLICIT = "explicit"

KINDS = (INTERVAL, DISCRETE, EXPLICIT)


@dataclass(frozen=True)
class TopologySpec:
    """A topology declaration: interval, discrete, or explicit closed sets."""

    kind: str
    closed_sets: tuple | None = None


class ClosedFamily:
    """A finite topology on a fixed carrier, given by its point closures.

    ``point_closures[x]`` is the mask of cl{x}.  The builders below take
    singletons or derive it from a validated closed-set list, so the
    closures always come from a family closed under union and intersection.
    """

    __slots__ = ("labels", "index", "full", "point_closures")

    def __init__(self, labels, point_closures):
        self.labels = tuple(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.full = (1 << len(self.labels)) - 1
        self.point_closures = tuple(point_closures)

    def subset_mask(self, labels) -> int:
        mask = 0
        for label in labels:
            try:
                mask |= 1 << self.index[label]
            except KeyError:
                raise InvariantViolation(f"label {label!r} is not in the carrier") from None
        return mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[i] for i in iter_bits(mask))

    def closure_mask(self, mask: int) -> int:
        acc = 0
        for i in iter_bits(mask):
            acc |= self.point_closures[i]
        return acc

    def is_closed_mask(self, mask: int) -> bool:
        return self.closure_mask(mask) == mask

    def is_closed(self, labels) -> bool:
        return self.is_closed_mask(self.subset_mask(labels))

    def closure(self, labels) -> tuple:
        """Smallest closed superset."""
        return self.labels_of(self.closure_mask(self.subset_mask(labels)))

    def neighbourhoods(self) -> list:
        """``out[y]``: the least open set containing y, {z : y in cl{z}}."""
        out = [0] * len(self.labels)
        for z, closure in enumerate(self.point_closures):
            for y in iter_bits(closure):
                out[y] |= 1 << z
        return out

    @property
    def sets(self) -> tuple:
        """Every closed set, ascending.  Tests all 2^n masks."""
        return tuple(mask for mask in range(self.full + 1) if self.is_closed_mask(mask))


def interval_closed_family(L: FiniteLattice) -> ClosedFamily:
    """The smallest topology whose up-rays and down-rays are closed.

    cl{x} is the intersection of the rays through x, which holds ↑x ∩ ↓x =
    {x}; so on any finite poset the interval topology is discrete.
    """
    return discrete_closed_family(L.labels)


def discrete_closed_family(labels) -> ClosedFamily:
    labels = tuple(labels)
    return ClosedFamily(labels, (1 << i for i in range(len(labels))))


def explicit_closed_family(labels, closed_sets) -> ClosedFamily:
    """Validate a listed family pairwise, then take cl{x} as the intersection
    of the listed sets containing x.

    The list must contain the empty set and the carrier and be closed under
    pairwise union and intersection, which covers arbitrary ones on a
    finite carrier.  O(|F|²) for |F| listed sets.
    """
    carrier = ClosedFamily(labels, ())  # read for its labels; closures come below
    masks = {carrier.subset_mask(s) for s in closed_sets}
    full = carrier.full
    if 0 not in masks or full not in masks:
        raise InvariantViolation("a closed family must contain the empty set and the carrier")

    def render(mask):
        return "{" + ",".join(carrier.labels_of(mask)) + "}"

    sets = sorted(masks)
    for a in sets:
        for b in sets:
            if a | b not in masks:
                raise InvariantViolation(
                    f"family not closed under union: {render(a)} | {render(b)}")
            if a & b not in masks:
                raise InvariantViolation(
                    f"family not closed under intersection: {render(a)} & {render(b)}")
    closures = [full] * len(carrier.labels)
    for c in sets:
        for x in iter_bits(c):
            closures[x] &= c
    return ClosedFamily(carrier.labels, closures)


def family_for(spec: TopologySpec, L: FiniteLattice) -> ClosedFamily:
    """The closed family that ``spec`` declares on carrier ``L``."""
    if spec.kind == INTERVAL:
        return interval_closed_family(L)
    if spec.kind == DISCRETE:
        return discrete_closed_family(L.labels)
    if spec.kind == EXPLICIT:
        if spec.closed_sets is None:
            raise InvariantViolation("explicit topology requires its closed sets")
        return explicit_closed_family(L.labels, spec.closed_sets)
    raise InvariantViolation(f"unknown topology kind {spec.kind!r}")
