"""Finite posets and lattices, their bounds and subset classification.

Elements are kept in lexicographic label order and that order is canonical
for every subset-valued result in the package.  Subsets are bitmasks over
the canonical order and the full relation is stored per element.  Every
predicate is decided in polynomial time; the exponential chain and submask
scans remain for the commands that test the equivalences used.  All types
are immutable after construction, so they are safe to use concurrently.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadLabel,
    CycleDetected,
    DuplicateLabel,
    EmptyCarrier,
    EmptyFactorList,
    EmptySubset,
    InvariantViolation,
    NotALattice,
    UnknownLabel,
)
from .verdict import Verdict


def validate_label(label) -> str:
    if not isinstance(label, str) or not label or any(c.isspace() for c in label):
        raise BadLabel(f"labels must be nonempty whitespace-free strings, got {label!r}")
    return label


def tuple_label(labels) -> str:
    """Canonical textual encoding of a tuple of labels."""
    return "(" + ",".join(labels) + ")"


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """A finite partially ordered set over string labels.

    ``up[i]`` is the bitmask of elements above or equal to element ``i`` in
    canonical (lexicographic label) order; ``down[i]`` is the dual.
    """

    __slots__ = ("labels", "index", "up", "down", "full", "_covers")

    def __init__(self, labels, up):
        self.labels = tuple(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.up = tuple(up)
        n = len(self.labels)
        self.full = (1 << n) - 1
        down = [0] * n
        for i in range(n):
            for j in iter_bits(self.up[i]):
                down[j] |= 1 << i
        self.down = tuple(down)
        self._covers = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def _leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def leq(self, a: str, b: str) -> bool:
        return self._leq(self._index_of(a), self._index_of(b))

    def comparable(self, a: str, b: str) -> bool:
        i, j = self._index_of(a), self._index_of(b)
        return self._leq(i, j) or self._leq(j, i)

    def _index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} is not an element") from None

    def subset_mask(self, labels) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self._index_of(label)
        return mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[i] for i in iter_bits(mask))

    @property
    def covers(self) -> tuple:
        """Hasse pairs (transitive reduction), sorted by (lower, upper)."""
        if self._covers is None:
            pairs = []
            for i in range(self.n):
                strict_up = self.up[i] & ~(1 << i)
                for j in iter_bits(strict_up):
                    between = strict_up & self.down[j] & ~(1 << j)
                    if between == 0:
                        pairs.append((self.labels[i], self.labels[j]))
            self._covers = tuple(sorted(pairs))
        return self._covers

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"FinitePoset({len(self.labels)} elements)"


def poset_from_covers(elements, covers) -> FinitePoset:
    """Build a poset as the reflexive-transitive closure of a cover relation.

    Fails with ``CycleDetected`` when the closure violates antisymmetry.
    """
    labels = [validate_label(e) for e in elements]
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"label {label!r} declared twice")
        seen.add(label)
    labels = sorted(labels)
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for pair in covers:
        lo, hi = pair
        for label in (lo, hi):
            if label not in index:
                raise UnknownLabel(f"cover references undeclared label {label!r}")
        up[index[lo]] |= 1 << index[hi]
    # Warshall closure over the boolean reachability matrix.
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(n):
        for j in iter_bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise CycleDetected((labels[min(i, j)], labels[max(i, j)]))
    return FinitePoset(labels, up)


class FiniteLattice:
    """A finite lattice: a poset plus total meet and join tables.

    ``factors``/``coords`` are set on lattices built by ``product_lattice``
    and give each element its per-factor coordinates.
    """

    __slots__ = ("poset", "meet", "join", "factors", "coords", "coord_index", "bottom", "top",
                 "_tables_checked")

    def __init__(self, poset, meet, join, factors=None, coords=None):
        self.poset = poset
        self.meet = meet
        self.join = join
        self.factors = factors
        self.coords = coords
        self.coord_index = None if coords is None else {c: i for i, c in enumerate(coords)}
        bottom, top = extremal_in(poset, poset.full, False), extremal_in(poset, poset.full)
        if bottom is None or top is None:
            raise NotALattice((), "glb" if bottom is None else "lub")
        self.bottom = bottom
        self.top = top
        self._tables_checked = False

    @property
    def labels(self):
        return self.poset.labels

    @property
    def index(self):
        return self.poset.index

    @property
    def n(self) -> int:
        return self.poset.n

    def leq(self, a: str, b: str) -> bool:
        return self.poset.leq(a, b)

    def subset_mask(self, labels) -> int:
        return self.poset.subset_mask(labels)

    def labels_of(self, mask: int) -> tuple:
        return self.poset.labels_of(mask)

    def meet_label(self, a: str, b: str) -> str:
        return self.labels[self.meet[self.poset._index_of(a)][self.poset._index_of(b)]]

    def join_label(self, a: str, b: str) -> str:
        return self.labels[self.join[self.poset._index_of(a)][self.poset._index_of(b)]]

    def check_tables(self) -> None:
        """Raise ``InvariantViolation`` at the first entry, in ``pairwise_bounds``
        order, where the join or meet table is not the order's bound: the
        lattice is malformed.  O(n²) big-int operations, once per lattice."""
        if self._tables_checked:
            return
        labels, join, meet = self.labels, self.join, self.meet
        for i, j, lub, glb in pairwise_bounds(self.poset):
            if join[i][j] == join[j][i] == lub and meet[i][j] == meet[j][i] == glb:
                continue
            for op, table, bound in (("join", join, lub), ("meet", meet, glb)):
                for a, b in ((i, j), (j, i)):
                    if table[a][b] != bound:
                        raise InvariantViolation(
                            f"{op} table entry ({labels[a]}, {labels[b]}) is "
                            f"{labels[table[a][b]]}, but the order's {op} is "
                            f"{'missing' if bound is None else labels[bound]}")
        self._tables_checked = True

    def _sup_mask(self, mask: int) -> int:
        """Join of a nonempty mask, folded in canonical order."""
        bits = iter_bits(mask)
        acc = next(bits)
        for i in bits:
            acc = self.join[acc][i]
        return acc

    def _inf_mask(self, mask: int) -> int:
        bits = iter_bits(mask)
        acc = next(bits)
        for i in bits:
            acc = self.meet[acc][i]
        return acc

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.poset == other.poset

    def __hash__(self):
        return hash(self.poset)

    def __repr__(self):
        return f"FiniteLattice({self.n} elements)"


def pairwise_bounds(poset: FinitePoset):
    """Yield ``(i, j, lub, glb)`` for every pair i <= j in canonical order,
    with ``None`` for a bound that does not exist.

    Ranking elements by the size of their down-set is a linear extension
    (a < b makes ``down[a]`` a proper subset of ``down[b]``), so a lub is the
    first upper bound in the ranking and a glb the last lower bound: each
    pair tests one candidate per bound, O(1) big-int operations.
    """
    n = poset.n
    order = sorted(range(n), key=[row.bit_count() for row in poset.down].__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    up, down = [0] * n, [0] * n  # the rows, with bits renumbered by rank
    for i, row in enumerate(poset.up):
        for j in iter_bits(row):
            up[i] |= 1 << rank[j]
            down[j] |= 1 << rank[i]
    up_at, down_at = [up[i] for i in order], [down[i] for i in order]
    for i in range(n):
        for j in range(i, n):
            ub, lb = up[i] & up[j], down[i] & down[j]
            r, s = (ub & -ub).bit_length() - 1, lb.bit_length() - 1
            yield (i, j, order[r] if ub and ub & up_at[r] == ub else None,
                   order[s] if lb and lb & down_at[s] == lb else None)


def check_lattice(poset: FinitePoset) -> FiniteLattice:
    """Fill meet/join tables from ``pairwise_bounds``.

    Raises ``NotALattice`` with the first pair, in canonical order, that has
    no least upper bound (checked first) or no greatest lower bound.
    """
    n = poset.n
    if n == 0:
        raise EmptyCarrier("the empty poset is not a lattice")
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i, j, lub, glb in pairwise_bounds(poset):
        if lub is None or glb is None:
            raise NotALattice((poset.labels[i], poset.labels[j]), "lub" if lub is None else "glb")
        join[i][j] = join[j][i] = lub
        meet[i][j] = meet[j][i] = glb
    return FiniteLattice(poset, tuple(map(tuple, meet)), tuple(map(tuple, join)))


def sup_subset(L: FiniteLattice, labels) -> str:
    """Least upper bound of a nonempty subset, computed by folding join."""
    mask = L.subset_mask(labels)
    if mask == 0:
        raise EmptySubset("sup of the empty subset")
    return L.labels[L._sup_mask(mask)]


def inf_subset(L: FiniteLattice, labels) -> str:
    mask = L.subset_mask(labels)
    if mask == 0:
        raise EmptySubset("inf of the empty subset")
    return L.labels[L._inf_mask(mask)]


def componentwise_up(factors, coords) -> list:
    """``up[i]``, the bitmask of the tuples in ``coords`` at or above
    ``coords[i]`` in the componentwise order of ``factors``.

    Per factor, one mask holds the tuples whose coordinate there is at or
    above a given element, and ``up[i]`` is the AND of those masks over
    ``coords[i]``: O(len(coords) · Σ|factor|) big-int operations.  This is
    the one place the product order is computed.
    """
    up = [(1 << len(coords)) - 1] * len(coords)
    for k, f in enumerate(factors):
        at = [0] * f.n
        for bit, c in enumerate(coords):
            at[c[k]] |= 1 << bit
        above = [sum(at[x] for x in iter_bits(f.poset.up[c])) for c in range(f.n)]
        for bit, c in enumerate(coords):
            up[bit] &= above[c[k]]
    return up


def product_elements(factors):
    """Labels and coordinate tuples of the product of ``factors``, both in
    canonical label order.  Raises ``DuplicateLabel`` when two tuples encode
    to the same label (factor labels holding ``,`` or parentheses)."""
    raw = sorted((tuple_label(tuple(f.labels[c] for f, c in zip(factors, coord))), coord)
                 for coord in itertools.product(*(range(f.n) for f in factors)))
    for (a, _), (b, _) in zip(raw, raw[1:]):
        if a == b:
            raise DuplicateLabel(f"product label {a!r} names two elements")
    return tuple(label for label, _ in raw), tuple(coord for _, coord in raw)


def product_lattice(factors) -> FiniteLattice:
    """Componentwise product; element labels are tuple encodings in factor order."""
    factors = tuple(factors)
    if not factors:
        raise EmptyFactorList("a product needs at least one factor")
    labels, coords = product_elements(factors)
    L = check_lattice(FinitePoset(labels, componentwise_up(factors, coords)))
    return FiniteLattice(L.poset, L.meet, L.join, factors=factors, coords=coords)


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


def first_unbounded(L: FiniteLattice, mask: int, submasks):
    """Witness fields for the first of ``submasks`` whose sup (tested first)
    or inf lies outside ``mask``, or None.  Over ``iter_submasks`` or
    ``iter_chain_masks`` this is the exhaustive (exponential) subcompleteness
    or chain-subcompleteness scan, kept for the theorem commands and tests."""
    for sub in submasks:
        for bound, value in (("sup", L._sup_mask(sub)), ("inf", L._inf_mask(sub))):
            if not mask >> value & 1:
                return ("subset", L.labels_of(sub)), ("bound", bound), ("value", L.labels[value])
    return None


def _least_unbounded(L: FiniteLattice, bits: list, mask: int) -> tuple:
    """``first_unbounded(L, mask, iter_submasks(mask))`` in O(m²) table reads,
    for a ``mask`` with elements ``bits`` (ascending) that is not a sublattice.

    A set's join closure {sup T : T ⊆ P nonempty} leaves ``mask`` iff some
    submask of P has its sup outside, and dually for meets.  Submasks topped
    by bits[k] follow all submasks of bits[:k], so the least failing one is
    topped by the end of the shortest prefix whose closure leaves ``mask``.
    Lower bits are fixed from the top down: bits[j] is left out iff the set F
    chosen so far, with some R ⊆ bits[:j], still fails, that is iff sup F or
    sup F ∨ c, c in the join closure of bits[:j], is outside (or dually).
    """
    def escapes(x: int, closure, table) -> bool:
        return not mask >> x & 1 or any(not mask >> table[x][c] & 1 for c in closure)

    closures = [((), ())]  # closures[k]: the join and meet closures of bits[:k]
    for k, b in enumerate(bits):
        J, M = closures[k]
        J, M = {b, *J, *(L.join[b][c] for c in J)}, {b, *M, *(L.meet[b][c] for c in M)}
        if any(not mask >> c & 1 for c in J | M):
            break
        closures.append((J, M))
    s = i = b
    chosen = 1 << b
    for j in range(k - 1, -1, -1):
        if not (escapes(s, closures[j][0], L.join) or escapes(i, closures[j][1], L.meet)):
            s, i = L.join[s][bits[j]], L.meet[i][bits[j]]
            chosen |= 1 << bits[j]
    return first_unbounded(L, mask, (chosen,))


@dataclass(frozen=True)
class SubsetFlags:
    """Per-flag verdicts for one subset of a lattice."""

    is_chain: Verdict
    is_antichain: Verdict
    is_sublattice: Verdict
    is_subcomplete: Verdict
    is_chain_subcomplete: Verdict

    def items(self):
        return (
            ("chain", self.is_chain),
            ("antichain", self.is_antichain),
            ("sublattice", self.is_sublattice),
            ("subcomplete", self.is_subcomplete),
            ("chain-subcomplete", self.is_chain_subcomplete),
        )


def sublattice_witness(L: FiniteLattice, mask: int):
    """Witness fields for the first pair of ``mask``'s elements, in
    ``combinations`` order, whose meet (tested first) or join lies outside
    ``mask``, or None when ``mask`` is a sublattice."""
    labels = L.labels
    for a, b in itertools.combinations(iter_bits(mask), 2):
        m = L.meet[a][b]
        if not mask >> m & 1:
            return ("x", labels[a]), ("y", labels[b]), ("op", "meet"), ("value", labels[m])
        v = L.join[a][b]
        if not mask >> v & 1:
            return ("x", labels[a]), ("y", labels[b]), ("op", "join"), ("value", labels[v])
    return None


def classify_subset(L: FiniteLattice, subset) -> SubsetFlags:
    """Decide chain / antichain / sublattice / subcomplete / chain-subcomplete.

    Chain, antichain and sublattice are pair scans.  Once ``L.check_tables``
    passes, a finite chain's sup and inf are its own endpoints, so every
    subset is chain-subcomplete, and a subset is subcomplete iff it is a
    sublattice; a failing subcompleteness verdict carries the least failing
    submask (``_least_unbounded``), the exhaustive scan's witness.

    The empty subset satisfies every flag by convention.
    """
    mask = L.subset_mask(subset)
    if mask == 0:
        empty = Verdict(True, note="empty subset: holds by convention")
        return SubsetFlags(empty, empty, empty, empty, empty)
    L.check_tables()
    bits = list(iter_bits(mask))
    labels = L.labels
    poset = L.poset

    chain = Verdict(True)
    antichain = Verdict(True)
    for a, b in itertools.combinations(bits, 2):
        cmp = poset._leq(a, b) or poset._leq(b, a)
        if cmp and antichain.holds:
            antichain = Verdict(False, witness=(("x", labels[a]), ("y", labels[b])))
        if not cmp and chain.holds:
            chain = Verdict(False, witness=(("x", labels[a]), ("y", labels[b])))
        if not chain.holds and not antichain.holds:
            break

    gap = sublattice_witness(L, mask)
    if gap is None:
        return SubsetFlags(chain, antichain, Verdict(True), Verdict(True), Verdict(True))
    subcomplete = Verdict(False, witness=_least_unbounded(L, bits, mask))
    return SubsetFlags(chain, antichain, Verdict(False, witness=gap), subcomplete, Verdict(True))


def extremal_in(poset: FinitePoset, mask: int, greatest: bool = True) -> int | None:
    """Index of the greatest (or least) element of the subset ``mask``, or
    None when it has none."""
    bounds = poset.down if greatest else poset.up
    for i in iter_bits(mask):
        if mask & ~bounds[i] == 0:
            return i
    return None


@dataclass(frozen=True)
class Extremes:
    minimal: tuple
    maximal: tuple
    least: str | None
    greatest: str | None


def extremes(P: FinitePoset) -> Extremes:
    """Minimal/maximal elements by scan; least/greatest when they exist."""
    minimal = tuple(P.labels[i] for i in range(P.n) if P.down[i] == 1 << i)
    maximal = tuple(P.labels[i] for i in range(P.n) if P.up[i] == 1 << i)
    # In a finite poset an element is least iff it is the only minimal one.
    return Extremes(minimal, maximal, minimal[0] if len(minimal) == 1 else None,
                    maximal[0] if len(maximal) == 1 else None)
