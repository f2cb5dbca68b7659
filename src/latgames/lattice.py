"""Finite posets and lattices: bounds, subsets and the strong set order.

Elements are kept in lexicographic label order and that order is canonical
for every subset-valued result in the package.  Subsets are bitmasks over
the canonical order and the full relation is stored per element.  Every
predicate is decided in polynomial time.  ``lattice_from_covers`` builds a
chain from its path and any other order by a closure and a bound search.
``product_lattice`` builds only the labels, coordinates and radix table of
a product: its order rows are built on first read, and its table rows,
and their parts, on first use.  All types are immutable once built, so
they are safe to use concurrently: what is built on first read is then
cached, and a row built twice is equal.
"""
from __future__ import annotations

import itertools
import math
import operator
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
    """``label``, once it is a nonempty string with no whitespace: one
    C-level test, since ``str.split`` splits at exactly the characters for
    which ``str.isspace`` holds."""
    if not (isinstance(label, str) and label.split() == [label]):
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
    canonical (lexicographic label) order; ``down[i]`` is the dual, the
    transpose of ``up``.  ``_down`` is internal: a builder that already
    holds the down-rows (``product_lattice``) passes them instead.
    """

    __slots__ = ("labels", "index", "up", "down", "full", "_covers")

    def __init__(self, labels, up, *, _down=None):
        self.labels = tuple(labels)
        self.index = dict(zip(self.labels, range(len(self.labels))))
        self.up = tuple(up)
        n = len(self.labels)
        self.full = (1 << n) - 1
        if _down is None:
            _down = [0] * n
            for i in range(n):
                for j in iter_bits(self.up[i]):
                    _down[j] |= 1 << i
        self.down = tuple(_down)
        self._covers = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def _leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def leq(self, a: str, b: str) -> bool:
        return self._leq(self._index_of(a), self._index_of(b))

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
        """Hasse pairs (transitive reduction) as labels, sorted by (lower, upper)."""
        labels = self.labels
        return tuple(sorted((labels[i], labels[j]) for i, j in self.cover_indexes))

    @property
    def cover_indexes(self) -> tuple:
        """Hasse pairs (i, j), i covered by j, as element indexes, the lower
        elements in order of down-set size, a linear extension: read
        backwards, every cover out of j comes before every cover into j, and
        read forwards, every cover into i before every cover out of i.
        Computed once."""
        if self._covers is None:
            order = sorted(range(self.n), key=[row.bit_count() for row in self.down].__getitem__)
            pairs = []
            for i in order:
                strict_up = self.up[i] & ~(1 << i)
                for j in iter_bits(strict_up):
                    if strict_up & self.down[j] & ~(1 << j) == 0:
                        pairs.append((i, j))
            self._covers = tuple(pairs)
        return self._covers

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and self.up == other.up

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return f"{type(self).__name__}({self.n} elements)"


def _declared(elements) -> list:
    """``elements`` sorted, once each is a valid label declared once."""
    labels = [validate_label(e) for e in elements]
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"label {label!r} declared twice")
        seen.add(label)
    return sorted(labels)


def poset_from_covers(elements, covers) -> FinitePoset:
    """Build a poset as the reflexive-transitive closure of a cover relation.

    Fails with ``CycleDetected`` when the closure violates antisymmetry.
    """
    labels = _declared(elements)
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


class FiniteLattice(FinitePoset):
    """A finite lattice: a poset with total meet and join tables.

    The lattice is its own order: it takes the poset's rows by reference,
    and equality and hashing are the poset's (labels and up-rows), so a
    lattice equals a ``FinitePoset`` with the same order.
    ``factors``/``coords``/``radix`` are set on lattices built by
    ``product_lattice``: ``coords`` gives each element its per-factor
    coordinates, and ``radix[r]`` is the canonical position of the element
    with ``radix_strides`` index r.  A product (``_ProductLattice``) builds
    its ``up`` and ``down`` rows on first read and its tables row by row
    (``_LazyRows``); any other lattice holds its rows from the start.
    """

    __slots__ = ("meet", "join", "factors", "coords", "radix", "bottom", "top", "_tables_checked")

    def __init__(self, poset, meet, join, factors=None, coords=None, radix=None):
        self.labels, self.index, self.up = poset.labels, poset.index, poset.up
        self.down, self.full, self._covers = poset.down, poset.full, poset._covers
        self.meet = meet
        self.join = join
        self.factors = factors
        self.coords = coords
        self.radix = radix
        try:  # the element whose up-set (down-set) is everything
            self.bottom = self.up.index(self.full)
            self.top = self.down.index(self.full)
        except ValueError:
            raise NotALattice((), "lub" if self.full in self.up else "glb") from None
        self._tables_checked = False

    def meet_label(self, a: str, b: str) -> str:
        return self.labels[self.meet[self._index_of(a)][self._index_of(b)]]

    def join_label(self, a: str, b: str) -> str:
        return self.labels[self.join[self._index_of(a)][self._index_of(b)]]

    def check_tables(self) -> None:
        """Raise ``InvariantViolation`` at the first entry, in ``pairwise_bounds``
        order, where the join or meet table is not the order's bound: the
        lattice is malformed.  O(n²) big-int operations, once per lattice."""
        if self._tables_checked:
            return
        labels, join, meet = self.labels, self.join, self.meet
        for i, j, lub, glb in pairwise_bounds(self):
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

    def _fold(self, mask: int, table) -> int:
        """``table`` (``join`` or ``meet``) folded over a nonempty mask in
        canonical order: the mask's sup or inf."""
        bits = iter_bits(mask)
        acc = next(bits)
        for i in bits:
            acc = table[acc][i]
        return acc


class _ProductLattice(FiniteLattice):
    """A lattice built by ``product_lattice``, whose ``up`` and ``down`` rows
    are built by ``componentwise_up`` on their first read.  Only products
    read their rows through a property: every other lattice keeps plain
    slot reads, which the interpreter specializes."""

    __slots__ = ("_up", "_down")

    @property
    def up(self) -> tuple:
        if self._up is None:
            self._up = tuple(componentwise_up(self.factors, self.coords))
        return self._up

    @property
    def down(self) -> tuple:
        if self._down is None:
            self._down = tuple(componentwise_up(self.factors, self.coords, dual=True))
        return self._down

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
    """Fill meet/join tables from ``pairwise_bounds``; the lattice starts out
    with ``check_tables`` done, since its tables are that search's bounds.

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
    L = FiniteLattice(poset, tuple(map(tuple, meet)), tuple(map(tuple, join)))
    L._tables_checked = True
    return L


def _chain_path(labels, covers) -> list | None:
    """``labels`` from bottom to top when ``covers`` are the n - 1 links of
    one path through them all, else None.  With at most one upper and one
    lower cover per element, the walk up from the one element that has no
    lower cover never revisits an element."""
    try:
        above = dict(covers)
        below = dict(zip(above.values(), above))
    except (TypeError, ValueError):  # not pairs of hashable labels
        return None
    n, known = len(labels), set(labels)
    if not (len(covers) == len(above) == len(below) == n - 1
            and known >= above.keys() | below.keys()):
        return None
    path = list(known - below.keys())
    while len(path) < n and path[-1] in above:
        path.append(above[path[-1]])
    return path if len(path) == n else None


def lattice_from_covers(elements, covers) -> FiniteLattice:
    """``check_lattice(poset_from_covers(elements, covers))``, the one covers
    constructor.  A chain (``_chain_path``) skips the closure and the bound
    search: with ``pos[r]`` the canonical position of rank r, its down-rows
    (up-rows) are prefix (suffix) masks in rank order, and row r of the meet
    (join) maps each element's rank through ``pos[:r] + [pos[r]] * (n - r)``
    (its dual), one C-level ``map`` per row.  Any other input takes the
    general route and raises its errors as before."""
    labels, covers = _declared(elements), list(covers)
    path = _chain_path(labels, covers)
    if path is None:
        return check_lattice(poset_from_covers(elements, covers))
    n, index = len(labels), {label: i for i, label in enumerate(labels)}
    pos = [index[label] for label in path]
    rank = sorted(range(n), key=pos.__getitem__)
    up, down, meet, join = [0] * n, [0] * n, [()] * n, [()] * n
    acc = 0
    for r, i in enumerate(pos):
        acc |= 1 << i
        down[i], up[i] = acc, (1 << n) - 1 ^ acc | 1 << i
        meet[i] = tuple(map((pos[:r] + [i] * (n - r)).__getitem__, rank))
        join[i] = tuple(map(([i] * r + pos[r:]).__getitem__, rank))
    poset = FinitePoset(labels, up, _down=down)
    poset._covers = tuple(zip(pos, pos[1:]))
    L = FiniteLattice(poset, tuple(meet), tuple(join))
    L._tables_checked = True
    return L


def sup_subset(L: FiniteLattice, labels) -> str:
    """Least upper bound of a nonempty subset, computed by folding join."""
    mask = L.subset_mask(labels)
    if mask == 0:
        raise EmptySubset("sup of the empty subset")
    return L.labels[L._fold(mask, L.join)]


def inf_subset(L: FiniteLattice, labels) -> str:
    mask = L.subset_mask(labels)
    if mask == 0:
        raise EmptySubset("inf of the empty subset")
    return L.labels[L._fold(mask, L.meet)]


def chain_ranks(P: FinitePoset) -> list | None:
    """Each element's rank, the number of elements below it, when ``P`` is a
    chain; else None.  The rank is n - |up-set|, and the ranks are distinct
    iff P is a chain: from the top down, the element with k elements
    above it lies below all k of them, which are the k highest ranks."""
    ranks = [P.n - row.bit_count() for row in P.up]
    return ranks if len(set(ranks)) == P.n else None


def componentwise_up(factors, coords, dual=False) -> list:
    """``up[i]``, the bitmask of the tuples in ``coords`` at or above
    ``coords[i]`` in the componentwise order of ``factors``; with ``dual``,
    at or below (the down-rows).

    Per factor, ``above[c]`` first holds the tuples whose coordinate there
    is c, one pass over that coordinate's column; OR'ing in ``above`` of
    c's upper covers (lower covers with ``dual``) makes it the tuples whose
    coordinate is at or above (below) c.  The covers are read in the order
    of ``cover_indexes`` (forwards with ``dual``, else backwards), so each
    cover's mask is complete when it is read.  ``up[i]`` is the AND of
    ``above`` over ``coords[i]``: O(len(coords) · k + Σ#covers) big-int
    operations for k factors.  This is the one place the product order is
    computed.
    """
    weights = [1 << bit for bit in range(len(coords))]
    up = [(1 << len(coords)) - 1] * len(coords)
    for f, column in zip(factors, zip(*coords)):
        above = [0] * f.n
        for c, weight in zip(column, weights):
            above[c] |= weight
        if dual:
            for lo, hi in f.cover_indexes:
                above[hi] |= above[lo]
        else:
            for lo, hi in reversed(f.cover_indexes):
                above[lo] |= above[hi]
        up = list(map(operator.and_, up, map(above.__getitem__, column)))
    return up


def radix_strides(factors) -> tuple:
    """Place values of the mixed-radix index of coordinate tuples in nested
    (``itertools.product``) order, factor 0 the most significant.  This is
    the one layout of flat tables over a product: a game's payoffs, and a
    function's table once ``properties`` reorders it."""
    strides, stride = [], 1
    for f in reversed(factors):
        strides.append(stride)
        stride *= f.n
    return tuple(reversed(strides))


def flat_labels(factors, c: int) -> tuple:
    """The labels, one per factor, of the tuple of ``factors`` at flat index
    ``c`` in ``radix_strides`` order."""
    return tuple(f.labels[c // s % f.n] for f, s in zip(factors, radix_strides(factors)))


def cover_pairs(factors) -> tuple:
    """The cover pairs of the product of ``factors`` as two parallel lists
    of flat indexes in ``radix_strides`` order: ``lows[k]`` is covered by
    ``highs[k]``.  Each pair moves one factor up one cover and fixes the
    others; every pair s <= s' of the product is joined by a chain of them."""
    count = math.prod(f.n for f in factors)
    lows, highs = [], []
    for f, stride in zip(factors, radix_strides(factors)):
        block = stride * f.n
        for lo, hi in f.cover_indexes:
            lo, hi = lo * stride, hi * stride
            for top in range(0, count, block):
                lows.extend(range(top + lo, top + lo + stride))
                highs.extend(range(top + hi, top + hi + stride))
    return lows, highs


def split_columns(factors, table, i, strides) -> list:
    """``columns[p][q]``, the entry of ``table``, flat in ``radix_strides``
    order over ``factors``, at element p of factor ``i`` and the tuple q of
    the other factors, flat-indexed in nested order.  The factors after
    ``i`` form a contiguous run of the layout, so each column is read as
    one slice of that run per tuple of the factors before ``i``: a single
    slice, or a strided slice when the run is one long.  ``strides`` are
    the factors' ``radix_strides``."""
    run = strides[i]
    block = run * factors[i].n
    if block == len(table):
        return [table[o:o + run] for o in range(0, block, run)]
    if run == 1:
        return [table[o::block] for o in range(block)]
    heads = range(0, len(table), block)
    return [[v for h in heads for v in table[o + h:o + h + run]] for o in range(0, block, run)]


def product_elements(factors):
    """Labels and coordinate tuples of the product of ``factors``, both in
    canonical label order, and ``radix``, the canonical position of each
    tuple in nested (``radix_strides``) order.  The tuples are labeled in
    nested order; one C-level sort of their indexes by label is the
    canonical order, and one of that order by index its inverse, ``radix``.
    Raises ``DuplicateLabel`` when two tuples encode to the same label
    (factor labels holding ``,`` or parentheses)."""
    nested = list(map(tuple_label, itertools.product(*(f.labels for f in factors))))
    order = sorted(range(len(nested)), key=nested.__getitem__)
    labels = tuple(map(nested.__getitem__, order))
    if len(set(labels)) < len(labels):
        twice = next(a for a, b in zip(labels, labels[1:]) if a == b)
        raise DuplicateLabel(f"product label {twice!r} names two elements")
    coords = tuple(map(list(itertools.product(*(range(f.n) for f in factors))).__getitem__, order))
    return labels, coords, sorted(range(len(order)), key=order.__getitem__)


class _LazyRows:
    """A product's meet or join table, as a sequence whose row x is built on
    first read.  Per factor k and element a, a part holds stride_k ·
    tables[k][a][y_k] over the canonical y, read through ``cols[k]``, the
    coordinates y_k; row x is the sum of the parts at x's coordinates,
    mapped through ``pos`` (radix index -> canonical position).  Each part
    is built on its first use, so a row costs O(k·N) list operations.  Rows
    are tuples, and the table supports ``len``, iteration and ``==`` against
    a sequence of rows."""

    __slots__ = ("_tables", "_strides", "_cols", "_pos", "_parts", "_rows")

    def __init__(self, tables, strides, cols, pos):
        self._tables, self._strides, self._cols, self._pos = tables, strides, cols, pos
        self._parts = [[None] * len(table) for table in tables]
        self._rows = [None] * len(pos)

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, x):
        row = self._rows[x]
        if row is None:
            row = self._rows[x] = self._build_row(x)
        return row

    def __iter__(self):
        return map(self.__getitem__, range(len(self._rows)))

    def __eq__(self, other):
        if not isinstance(other, (tuple, list, _LazyRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _build_row(self, x):
        acc = None
        for parts, col, table, stride in zip(self._parts, self._cols, self._tables, self._strides):
            a = col[x]
            if parts[a] is None:
                parts[a] = list(map([stride * v for v in table[a]].__getitem__, col))
            acc = parts[a] if acc is None else map(operator.add, acc, parts[a])
        return tuple(map(self._pos.__getitem__, acc))


def product_lattice(factors) -> FiniteLattice:
    """Componentwise product; element labels are tuple encodings in factor order.

    A product's bounds are its factors' bounds coordinatewise (Topkis 1998,
    §2.2), so once the factors pass ``check_tables`` the product's tables
    are read off theirs and it starts out checked, and its bottom and top
    are the tuples of the factors' bottoms and tops.  Entry (x, y) is the
    ``radix_strides`` index of the tuple of factor entries, mapped to its
    canonical position by ``radix``.  The tables are ``_LazyRows``: a row
    costs O(N·k) list operations for N elements and k factors, paid on its
    first read, and builds only the k parts at its coordinates.  The order
    rows are built on their first read (``_ProductLattice``), so a check
    that reads only the factors, ``radix`` and the tables never builds
    them."""
    factors = tuple(factors)
    if not factors:
        raise EmptyFactorList("a product needs at least one factor")
    for f in factors:
        f.check_tables()
    labels, coords, radix = product_elements(factors)
    strides = radix_strides(factors)
    cols = tuple(zip(*coords))
    L = _ProductLattice.__new__(_ProductLattice)
    L.labels, L.index = labels, dict(zip(labels, range(len(labels))))
    L.full, L._covers, L._tables_checked = (1 << len(labels)) - 1, None, True
    L._up = L._down = None
    L.meet = _LazyRows([f.meet for f in factors], strides, cols, radix)
    L.join = _LazyRows([f.join for f in factors], strides, cols, radix)
    L.factors, L.coords, L.radix = factors, coords, radix
    L.bottom = radix[sum(f.bottom * stride for f, stride in zip(factors, strides))]
    L.top = radix[sum(f.top * stride for f, stride in zip(factors, strides))]
    return L


def first_unbounded(L: FiniteLattice, mask: int, submasks):
    """Witness fields for the first of ``submasks`` whose sup (tested first)
    or inf lies outside ``mask``, or None."""
    for sub in submasks:
        for bound, value in (("sup", L._fold(sub, L.join)), ("inf", L._fold(sub, L.meet))):
            if not mask >> value & 1:
                return ("subset", L.labels_of(sub)), ("bound", bound), ("value", L.labels[value])
    return None


def _least_unbounded(L: FiniteLattice, bits: list, mask: int) -> tuple:
    """``first_unbounded`` over the nonempty submasks of ``mask`` in numeric
    order, in O(m²) table reads, for a ``mask`` with elements ``bits``
    (ascending) that is not a sublattice.

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


def strong_set_witness(L: FiniteLattice, lo: int, hi: int):
    """Least violation ``(x, x2, op, value)`` of ``lo`` below ``hi`` in the
    strong set order, or None: x in lo, x2 in hi, both ascending, with the
    meet x ^ x2 outside lo (tested first) or the join x v x2 outside hi."""
    for x in iter_bits(lo):
        meet, join = L.meet[x], L.join[x]
        for x2 in iter_bits(hi):
            m = meet[x2]
            if not lo >> m & 1:
                return x, x2, "meet", m
            v = join[x2]
            if not hi >> v & 1:
                return x, x2, "join", v
    return None


def sublattice_witness(L: FiniteLattice, mask: int):
    """Witness fields for the first pair of ``mask``'s elements, in
    ``combinations`` order, whose meet (tested first) or join lies outside
    ``mask``, or None when ``mask`` is a sublattice: ``strong_set_witness``
    of ``mask`` below itself.  On checked tables (symmetric, idempotent) a
    pair (x, x2) with index x2 <= x fails only if (x2, x), scanned first, did."""
    hit = strong_set_witness(L, mask, mask)
    if hit is None:
        return None
    x, y, op, value = hit
    return ("x", L.labels[x]), ("y", L.labels[y]), ("op", op), ("value", L.labels[value])


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
        empty = Verdict(True)
        return SubsetFlags(empty, empty, empty, empty, empty)
    L.check_tables()
    bits = list(iter_bits(mask))
    labels = L.labels

    chain = Verdict(True)
    antichain = Verdict(True)
    for a, b in itertools.combinations(bits, 2):
        cmp = L._leq(a, b) or L._leq(b, a)
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
