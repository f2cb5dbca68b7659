"""Chain codomains and exact-valued functions on finite lattices.

Values are either exact rationals (``fractions.Fraction``) or members of a
labeled chain compared by position.  No floating point anywhere: verdicts
must be exact so that witnesses re-check.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import (
    DomainMismatch,
    InvariantViolation,
    LabeledCodomainUnsupported,
    NotStrictlyIncreasing,
)
from .lattice import FiniteLattice, validate_label

RATIONAL = "rational"
LABELED = "labeled"


class ChainCodomain:
    """A totally ordered value space: exact rationals, or a labeled chain.

    Labeled chains are ordered by list position and never compared
    arithmetically.  Their labels follow the rule of element labels
    (``lattice.validate_label``), so a value prints as one report field.
    Operations that need the additive structure of the values
    (supermodularity, sums, increasing differences) reject them.
    """

    __slots__ = ("kind", "labels", "_positions")

    def __init__(self, kind, labels=None):
        if kind not in (RATIONAL, LABELED):
            raise InvariantViolation(f"unknown codomain kind {kind!r}")
        self.kind = kind
        if kind == LABELED:
            labels = tuple(map(validate_label, labels or ()))
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


def image_map(image, t) -> list:
    """``[t(v) for v in image]`` as ``Fraction``s over an ascending image of
    rationals, checked to be rational-valued and then strictly increasing
    (``out[k] < out[k+1]``).  ``t`` is a callable or a mapping defined on the
    image.  The list is the mapped value of each dense rank of the image, so
    a caller keeps its ranks and reads the new values off them."""
    lookup = t.__getitem__ if hasattr(t, "__getitem__") else t
    out = []
    for v in image:
        value = lookup(v)
        if type(value) is not Fraction:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise NotStrictlyIncreasing(f"map produced non-rational value {value!r}")
            value = Fraction(value)
        out.append(value)
    for k in range(len(out) - 1):
        if not out[k] < out[k + 1]:
            raise NotStrictlyIncreasing(
                f"map is not strictly increasing on the image: "
                f"t({image[k]}) = {out[k]} !< t({image[k + 1]}) = {out[k + 1]}")
    return out


def ranked_image(values, ranks) -> tuple:
    """Distinct values in ascending chain order: the value of each dense rank."""
    of_rank = dict(zip(ranks, values))
    return tuple(map(of_rank.__getitem__, range(len(of_rank))))


class LatticeFunction:
    """A total, exact-valued table on a finite lattice.

    ``keys`` holds the dense ranks of the values in element order
    (``ChainCodomain.ranks``), which every ordinal check compares.
    ``values``, the exact values in element order, are built on first read
    when the function came from ``io``'s table reader or from ``transform``,
    which hand over the ranks and the rational of each rank as an integer
    pair; ``integer_values`` reads the additive checks' integers straight
    off those pairs.  Both are cached, and a table built twice is equal.
    """

    __slots__ = ("domain", "codomain", "keys", "_image", "_values", "_integers")

    def __init__(self, domain: FiniteLattice, codomain: ChainCodomain, table, _image=None):
        """``table`` maps each element label to a value of ``codomain``.  For
        ``io``'s table reader and ``transform`` (``_image`` given) it lists
        the dense ranks in element order instead, and ``_image`` the
        rational of each rank as an integer pair (numerator, denominator >
        0), not necessarily in lowest terms: no check, no second ranking,
        and no ``Fraction`` until ``values`` is read."""
        self.domain = domain
        self.codomain = codomain
        self._image, self._integers = _image, _UNREAD
        if _image is not None:
            self.keys, self._values = tuple(table), None
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
        self._values = tuple(codomain.validate(table[label]) for label in domain.labels)
        self.keys = tuple(codomain.ranks(self._values))

    @property
    def values(self) -> tuple:
        """The exact values in element order: one ``Fraction`` per rank,
        made on first read when the function holds integer pairs."""
        if self._values is None:
            image = [Fraction(n, d) for n, d in self._image]
            self._values = tuple(map(image.__getitem__, self.keys))
        return self._values

    def value(self, label: str):
        return self.values[self.domain._index_of(label)]

    def table(self) -> dict:
        return dict(zip(self.domain.labels, self.values))

    def image(self) -> tuple:
        """Distinct values in ascending chain order."""
        return ranked_image(self.values, self.keys)

    def upper_levels(self) -> list:
        """The upper level sets as masks, ``levels[r]`` = {x : rank of f(x)
        >= r} for each rank r ascending, from the whole domain to the
        argmax: one mask per rank, OR'd from the top rank down."""
        exact = [0] * (max(self.keys) + 1)
        for x, k in enumerate(self.keys):
            exact[k] |= 1 << x
        return list(itertools.accumulate(reversed(exact), operator.or_))[::-1]

    def transform(self, t) -> "LatticeFunction":
        """Apply a strictly increasing rational map pointwise.

        ``t`` is a callable or a mapping defined on the image; strict
        monotonicity is checked on the image, not assumed.  The map leaves
        every dense rank as it is, so the result keeps ``keys`` and takes
        the mapped value of each rank, with no second check or ranking.
        """
        if not self.codomain.is_rational:
            raise LabeledCodomainUnsupported("transform is defined for rational codomains")
        by_rank = image_map(self.image(), t)
        return LatticeFunction(self.domain, self.codomain, self.keys,
                               _image=list(map(Fraction.as_integer_ratio, by_rank)))

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


_UNREAD = object()  # ``LatticeFunction._integers`` before ``integer_values`` reads it


def integer_values(f: LatticeFunction) -> list | None:
    """A rational-valued ``f``'s values in element order as integers over
    the least common denominator of its image (``_over_common_denominator``),
    or None when that is 2**64 or more.  Read off the integer pair of each
    rank when ``f`` holds them, with no ``Fraction`` made, and computed once
    per function."""
    if f._integers is _UNREAD:
        pairs = f._image or list(map(Fraction.as_integer_ratio, f.image()))
        image = _over_common_denominator(pairs)
        f._integers = None if image is None else list(map(image.__getitem__, f.keys))
    return f._integers
