"""Chain codomains and exact-valued functions on finite lattices.

Values are either exact rationals (``fractions.Fraction``) or members of a
labeled chain compared by position.  No floating point anywhere: verdicts
must be exact so that witnesses re-check.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DomainMismatch,
    InvariantViolation,
    LabeledCodomainUnsupported,
    NotStrictlyIncreasing,
)
from .lattice import FiniteLattice

RATIONAL = "rational"
LABELED = "labeled"


class ChainCodomain:
    """A totally ordered value space: exact rationals, or a labeled chain.

    Labeled chains are ordered by list position and never compared
    arithmetically; operations that need the additive structure of the
    values (supermodularity, sums, increasing differences) reject them.
    """

    __slots__ = ("kind", "labels", "_positions")

    def __init__(self, kind, labels=None):
        if kind not in (RATIONAL, LABELED):
            raise InvariantViolation(f"unknown codomain kind {kind!r}")
        self.kind = kind
        if kind == LABELED:
            labels = tuple(labels or ())
            if not labels:
                raise InvariantViolation("a labeled chain needs at least one label")
            if len(set(labels)) != len(labels):
                raise InvariantViolation("labeled chain labels must be distinct")
            self.labels = labels
            self._positions = {label: i for i, label in enumerate(labels)}
        else:
            if labels is not None:
                raise InvariantViolation("a rational codomain carries no labels")
            self.labels = None
            self._positions = None

    @classmethod
    def rational(cls) -> "ChainCodomain":
        return cls(RATIONAL)

    @classmethod
    def labeled(cls, labels) -> "ChainCodomain":
        return cls(LABELED, labels)

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONAL

    def validate(self, value):
        if self.kind == RATIONAL:
            if type(value) is Fraction:
                return value
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise InvariantViolation(f"rational codomain rejects value {value!r}")
            return value if isinstance(value, Fraction) else Fraction(value)
        if value not in self._positions:
            raise InvariantViolation(f"value {value!r} is not on the labeled chain")
        return value

    def ranks(self, values) -> list:
        """Dense ranks 0..k-1 of validated values in chain order: equal values
        share a rank, and a strictly increasing map leaves every rank as it
        is.  Rationals are ranked by ``rational_ranks``, labels by position."""
        if self.kind == RATIONAL:
            return rational_ranks(list(map(Fraction.as_integer_ratio, values)))
        return _dense_ranks(list(map(self._positions.__getitem__, values)))

    def __eq__(self, other):
        if not isinstance(other, ChainCodomain):
            return NotImplemented
        return self.kind == other.kind and self.labels == other.labels

    def __hash__(self):
        return hash((self.kind, self.labels))

    def __repr__(self):
        if self.kind == RATIONAL:
            return "ChainCodomain.rational()"
        return f"ChainCodomain.labeled({list(self.labels)!r})"


def _dense_ranks(keys) -> list:
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return list(map(rank.__getitem__, keys))


def _over_common_denominator(pairs) -> list | None:
    """The rationals n/d of the integer pairs (n, d), d > 0, as integers over
    their least common denominator, in order, or None when it is 2**64 or
    more.  Sums and differences of the integers compare exactly as those of
    the rationals do."""
    common = 1
    for d in {d for _, d in pairs}:
        common = math.lcm(common, d)
        if common >> 64:
            return None
    return [n * (common // d) for n, d in pairs]


def rational_ranks(pairs) -> list:
    """Dense ranks of the rationals n/d of the integer pairs (n, d), d > 0 and
    not necessarily in lowest terms: one sort of their integers over the
    least common denominator when it is below 2**64 (so keys stay
    machine-word sized), else of their ``Fraction``s.  This is the one
    ranking of rationals, for parsed payoffs and for ``ChainCodomain``."""
    keys = _over_common_denominator(pairs)
    return _dense_ranks(keys if keys is not None else [Fraction(n, d) for n, d in pairs])


def integer_values(values) -> list | None:
    """Nonempty rationals ``values`` as integers over their least common
    denominator (``_over_common_denominator``), or None."""
    return _over_common_denominator(list(map(Fraction.as_integer_ratio, values)))


def image_map(image, t) -> dict:
    """``{v: t(v)}`` over an ascending image of rationals, checked to be
    rational-valued and strictly increasing there.  ``t`` is a callable or a
    mapping defined on the image."""
    lookup = t.__getitem__ if hasattr(t, "__getitem__") else t
    mapped = {}
    for v in image:
        out = lookup(v)
        if isinstance(out, bool) or not isinstance(out, (int, Fraction)):
            raise NotStrictlyIncreasing(f"map produced non-rational value {out!r}")
        mapped[v] = Fraction(out)
    for lo, hi in zip(image, image[1:]):
        if not mapped[lo] < mapped[hi]:
            raise NotStrictlyIncreasing(
                f"map is not strictly increasing on the image: "
                f"t({lo}) = {mapped[lo]} !< t({hi}) = {mapped[hi]}")
    return mapped


def ranked_image(values, ranks) -> tuple:
    """Distinct values in ascending chain order: the value of each dense rank."""
    of_rank = dict(zip(ranks, values))
    return tuple(map(of_rank.__getitem__, range(len(of_rank))))


class LatticeFunction:
    """A total, exact-valued table on a finite lattice.

    ``values`` holds the exact values in element order, for the additive
    checks; ``keys`` their dense ranks (``ChainCodomain.ranks``), which
    every ordinal check compares.
    """

    __slots__ = ("domain", "codomain", "values", "keys")

    def __init__(self, domain: FiniteLattice, codomain: ChainCodomain, table, _image=None):
        """``table`` maps each element label to a value of ``codomain``.  For
        ``io``'s table reader (``_image`` given) it lists the dense ranks in
        element order instead, and ``_image`` the rational of each rank as an
        integer pair (numerator, denominator): one ``Fraction`` is made per
        distinct value, with no check and no second ranking."""
        self.domain = domain
        self.codomain = codomain
        if _image is not None:
            image = [Fraction(n, d) for n, d in _image]
            self.values = tuple(map(image.__getitem__, table))
            self.keys = tuple(table)
            return
        missing = [label for label in domain.labels if label not in table]
        extra = [label for label in table if label not in domain.index]
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing entries for {missing}")
            if extra:
                parts.append(f"entries for unknown elements {extra}")
            raise InvariantViolation("function table must be total: " + "; ".join(parts))
        self.values = tuple(codomain.validate(table[label]) for label in domain.labels)
        self.keys = tuple(codomain.ranks(self.values))

    def value(self, label: str):
        return self.values[self.domain._index_of(label)]

    def table(self) -> dict:
        return dict(zip(self.domain.labels, self.values))

    def image(self) -> tuple:
        """Distinct values in ascending chain order."""
        return ranked_image(self.values, self.keys)

    def transform(self, t) -> "LatticeFunction":
        """Apply a strictly increasing rational map pointwise.

        ``t`` is a callable or a mapping defined on the image; strict
        monotonicity is checked on the image, not assumed.
        """
        if not self.codomain.is_rational:
            raise LabeledCodomainUnsupported("transform is defined for rational codomains")
        mapped = image_map(self.image(), t)
        return LatticeFunction(self.domain, self.codomain,
                               {label: mapped[v] for label, v in zip(self.domain.labels, self.values)})

    def __add__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        if not (self.codomain.is_rational and other.codomain.is_rational):
            raise LabeledCodomainUnsupported("sums need the additive structure of rational values")
        if self.domain != other.domain:
            raise DomainMismatch("summands live on different lattices")
        return LatticeFunction(self.domain, self.codomain,
                               {label: a + b
                                for label, a, b in zip(self.domain.labels, self.values, other.values)})

    def __eq__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.values == other.values)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.values))

    def __repr__(self):
        return f"LatticeFunction({self.domain.n} elements, {self.codomain.kind})"
