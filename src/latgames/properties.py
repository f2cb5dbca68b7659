"""Executable checkers for function-level order properties.

Every checker reports the first violation of an exhaustive scan in canonical
element order (single crossing and increasing differences rescan only after
a cover-pair test fails, supermodularity on a product only after Topkis'
conditions fail, quasisupermodularity on a product of two chains only at
the least x that an O(n^3) kernel finds in a failing pair), so the witness
is always the lexicographically least one.
Weak and strict clauses are checked separately and the witness says which
one failed.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import (CapExceeded, CarrierMismatch, LabeledCodomainUnsupported,
                     NotAProductDomain, TheoremFalsified)
from .functions import LatticeFunction, integer_values
from .lattice import (FiniteLattice, chain_ranks, componentwise_up, cover_pairs, flat_labels,
                      iter_bits, radix_strides, split_columns, tuple_label)
from .topology import ClosedFamily
from .verdict import Verdict

PAIR_SCAN_CAP = 1 << 12  # elements of a lattice whose pairs a scan may visit


def _check_pair_scan(L: FiniteLattice):
    """Refuse a scan of every pair of L's elements past ``PAIR_SCAN_CAP``
    elements, before it reads a row: the scan holds every meet and join row
    it reads, N² entries in all."""
    if L.n > PAIR_SCAN_CAP:
        raise CapExceeded(f"a scan of the pairs of {L.n} elements exceeds the cap of "
                          f"{PAIR_SCAN_CAP}")


def qsm_witness(L: FiniteLattice, columns, xs=None):
    """Least quasisupermodularity violation ``(column, x, y, clause)`` or None.

    Each column is a sequence of keys over L's elements.  f(x) >= f(x^y) must
    force f(xvy) >= f(y) (the weak clause, tested first), and strictly so for
    strict.  Columns are scanned in order, and the pairs (x, y) of each in
    canonical order; ``xs``, when given, are the only x scanned, so only
    their meet and join rows are read, and otherwise every pair is
    (``_check_pair_scan``).  A comparable pair has {x^y, xvy} = {x, y} and
    cannot fail either clause, so only incomparable pairs are tested.
    """
    if xs is None:
        _check_pair_scan(L)
    rows = [(x, L.meet[x], L.join[x], L.full & ~(L.up[x] | L.down[x]))
            for x in (range(L.n) if xs is None else xs)]
    rows = [row for row in rows if row[3]]
    for c, keys in enumerate(columns):
        for x, meet, join, others in rows:
            k = keys[x]
            for y in iter_bits(others):
                m, v = meet[y], join[y]
                if k >= keys[m] and not keys[v] >= keys[y]:
                    return c, x, y, "weak"
                if k > keys[m] and not keys[v] > keys[y]:
                    return c, x, y, "strict"
    return None


def _qsm_fields(L: FiniteLattice, x: int, y: int, clause: str) -> tuple:
    return ("x", L.labels[x]), ("y", L.labels[y]), ("clause", clause)


def _failing_below(columns) -> list:
    """``fails[d]``, the mask of the a for which x = (a, d) fails a QSM
    clause with some y = (c, b), c > a and b < d, on two chains in ranks;
    ``columns[d][a]`` is the key at (a, d).  There x^y = (a, b) and
    xvy = (c, d).  For a b < d, let M be the mask of the c with
    f(c, d) < f(c, b): the weak clause fails at (a, d) with this b iff a is
    not in M and M has a bit above a, so at the zeros of M below its top.
    The strict clause is the same with <= for <."""
    weights = [1 << a for a in range(len(columns[0]))]
    fails = []
    for d, column in enumerate(columns):
        acc = 0
        for low in columns[:d]:
            for op in (operator.lt, operator.le):
                m = sum(itertools.compress(weights, map(op, column, low)))
                acc |= m ^ ((1 << m.bit_length()) - 1)
        fails.append(acc)
    return fails


def two_chain_failing_x(L: FiniteLattice, ranks, keys):
    """The least x, in canonical order, at which some pair (x, y) fails a
    QSM clause, on a product L of two chains whose elements have the chain
    ranks ``ranks``; None when ``keys`` are quasisupermodular.  The y that
    rank above x in factor 0 come from ``_failing_below`` on the columns of
    the table in ranks, and those that rank above x in factor 1 from the
    same on its rows, which are all the incomparable y on two chains:
    O(n^3) comparisons in all, and no meet or join row is read."""
    order = [sorted(range(len(r)), key=r.__getitem__) for r in ranks]
    n1 = len(order[1])
    pos = [[L.radix[i * n1 + j] for j in order[1]] for i in order[0]]
    rows = [list(map(keys.__getitem__, row)) for row in pos]
    by_d, by_a = _failing_below(list(zip(*rows))), _failing_below(rows)
    return min(itertools.chain((pos[a][d] for d, m in enumerate(by_d) for a in iter_bits(m)),
                               (pos[a][d] for a, m in enumerate(by_a) for d in iter_bits(m))),
               default=None)


def is_quasisupermodular(f: LatticeFunction) -> Verdict:
    """f(x) >= f(x^y) must force f(xvy) >= f(y), and strictly so for strict.

    On a product of two chains (``lattice.chain_ranks``),
    ``two_chain_failing_x`` decides QSM in O(n^3) and names the least x of
    a failing pair; ``qsm_witness`` then scans that x alone, so the witness
    is the least pair.  On any other domain, three chains included,
    ``qsm_witness`` scans every pair.
    """
    L = f.domain
    ranks = [chain_ranks(c) for c in L.factors or ()]
    xs = None
    if len(ranks) == 2 and None not in ranks:
        x = two_chain_failing_x(L, ranks, f.keys)
        if x is None:
            return Verdict(True)
        xs = [x]
    hit = qsm_witness(L, [f.keys], xs)
    if hit is not None:
        return Verdict(False, witness=_qsm_fields(L, *hit[1:]))
    if xs is not None:
        raise TheoremFalsified(f"the two-chain kernel named x = {L.labels[xs[0]]!r} "
                               "but the pairwise scan found no witness")
    return Verdict(True)


def is_supermodular(f: LatticeFunction) -> Verdict:
    """f(x)+f(y) <= f(x^y)+f(xvy), checked with exact rational arithmetic.

    A product of two or more factors is decided by Topkis' characterization
    (``_topkis_supermodular``).  When that fails, and on any other domain,
    the pairwise scan runs (``_check_pair_scan``), so the witness is the
    least (x, y).
    """
    if not f.codomain.is_rational:
        raise LabeledCodomainUnsupported(
            "supermodularity needs the additive structure of rational values")
    L = f.domain
    vals = integer_values(f) or f.values
    product = L.factors is not None and len(L.factors) > 1
    if product and _topkis_supermodular(f, vals):
        return Verdict(True)
    _check_pair_scan(L)
    for i in range(L.n):
        meet, join, v = L.meet[i], L.join[i], vals[i]
        for j in range(i + 1, L.n):
            if v + vals[j] > vals[meet[j]] + vals[join[j]]:
                return Verdict(False, witness=(("x", L.labels[i]), ("y", L.labels[j])))
    if product:
        raise TheoremFalsified("Topkis' conditions failed on a product "
                               "but the pairwise scan found no witness")
    return Verdict(True)


def _topkis_supermodular(f: LatticeFunction, vals) -> bool:
    """Whether f, with values ``vals``, is supermodular on a product of
    lattices, by Topkis' characterization (Topkis 1978, Oper. Res. 26;
    Topkis 1998, §2.6): every section over one factor is supermodular, and f
    has increasing differences between each factor and the rest.  The splits
    i < k-1 cover every pair of factors.  A section can fail only on an
    incomparable pair of its factor (``_check_pair_scan``), so a chain
    factor has nothing to scan; increasing differences are decided on the
    cover pairs of both sides (``increasing_differences_witness``).
    """
    factors = f.domain.factors
    last = len(factors) - 1
    for i, factor in enumerate(factors):
        _check_pair_scan(factor)
        pairs = [(x, y, factor.meet[x][y], factor.join[x][y]) for x in range(factor.n)
                 for y in iter_bits(factor.full & ~(factor.up[x] | factor.down[x])) if y > x]
        if i == last and not pairs:
            break
        _, rest, columns = _split_columns(f, i, vals)
        for x, y, m, v in pairs:
            if any(map(operator.gt, map(operator.add, columns[x], columns[y]),
                       map(operator.add, columns[m], columns[v]))):
                return False
        if i < last and increasing_differences_witness(factor, rest, columns):
            return False
    return True


def _split_columns(f: LatticeFunction, split, table):
    """``(P, Q, columns)``: factor ``split`` of f's product domain, the other
    factors in order, and ``columns[p][q]``, the entry of ``table`` (per
    element of the domain) at p and the tuple q of Q, flat-indexed in
    nested order.  The table is read in layout order through ``radix``."""
    L = f.domain
    if L.radix is None:
        raise NotAProductDomain("this check needs a domain built by product_lattice")
    k = len(L.factors)
    if not isinstance(split, int) or not 0 <= split < k:
        raise NotAProductDomain(f"split {split!r} does not name distinct factors of a {k}-factor product")
    if k == 1:
        raise NotAProductDomain("the split must leave factors on both sides")
    flat = list(map(table.__getitem__, L.radix))
    return (L.factors[split], L.factors[:split] + L.factors[split + 1:],
            split_columns(L.factors, flat, split, radix_strides(L.factors)))


def _q_label(Q, c: int) -> str:
    """The label of the tuple of Q with nested flat index ``c``."""
    labels = flat_labels(Q, c)
    return labels[0] if len(labels) == 1 else tuple_label(labels)


def _pq_fields(P, Q, a, b, c, d) -> tuple:
    return (("p", P.labels[a]), ("p2", P.labels[b]),
            ("q", _q_label(Q, c)), ("q2", _q_label(Q, d)))


def _signs(hi, lo) -> list:
    return [(h > l) - (h < l) for h, l in zip(hi, lo)]


def _differences(hi, lo) -> list:
    return list(map(operator.sub, hi, lo))


def single_crossing_witness(P, q_factors, columns, step=_signs, covers=None):
    """Least violation ``(p, p2, q, q2, clause)`` of a rising step, or None.

    P is one factor, Q's tuples are flat-indexed in canonical nested order
    and ``columns[p][q]`` is the entry at (p, q).  For p <= p2,
    s = step(columns[p2], columns[p]) compares the two columns entry by
    entry and must not drop as q rises.
    With the sign step on keys that is single crossing (both clauses); with
    the difference step on values it is increasing differences.  Every
    q <= q2 is joined by a chain of covers, so it is decided on the cover
    pairs of Q, read off each factor's covers at its mixed-radix stride.
    The first failing pair alone is rescanned over all q <= q2 in canonical
    order; every earlier pair is clean, so that witness is the least one.
    ``covers`` are Q's ``cover_pairs``, when the caller holds them.
    ``clause`` is "weak" when s[q2] < 0 and "strict" otherwise, the
    single-crossing clause that fails.  Both walks read strict up-sets,
    P's own and Q's from ``componentwise_up``, a ascending and then b
    ascending.
    """
    lows, highs = covers or cover_pairs(q_factors)
    for a, row in enumerate(P.up):
        for b in iter_bits(row & ~(1 << a)):
            s = step(columns[b], columns[a])
            if all(map(operator.le, map(s.__getitem__, lows), map(s.__getitem__, highs))):
                continue
            qs = list(itertools.product(*(range(f.n) for f in q_factors)))
            for c, up in enumerate(componentwise_up(q_factors, qs)):
                for d in iter_bits(up & ~(1 << c)):
                    if s[c] > s[d]:
                        return a, b, c, d, "weak" if s[d] < 0 else "strict"
            raise TheoremFalsified("a step dropped on a cover pair "
                                   "but the exhaustive rescan found no witness")
    return None


def increasing_differences_witness(P, q_factors, columns):
    """``single_crossing_witness`` with the difference step, decided on P's
    cover pairs: for p <= p2, f(p2,.) - f(p,.) is the sum of its steps along
    a chain of P's covers, and a sum of functions that do not drop on Q's
    cover pairs does not drop either.  A pass builds one difference column
    per cover pair of P, O(#covers(P) · (|Q| + #covers(Q))); a difference
    that drops is at a comparable pair, so the rescan over every p <= p2
    finds the least witness."""
    covers = cover_pairs(q_factors)
    lows, highs = covers
    for lo, hi in P.cover_indexes:
        s = _differences(columns[hi], columns[lo])
        if not all(map(operator.le, map(s.__getitem__, lows), map(s.__getitem__, highs))):
            return single_crossing_witness(P, q_factors, columns, step=_differences,
                                           covers=covers)
    return None


def is_single_crossing(f: LatticeFunction, split=0) -> Verdict:
    """Single crossing relative to the (P, Q) split of a product domain:
    P is factor ``split``, Q the other factors.

    For p <= p' and q <= q': f(p,q) <= f(p',q) must give f(p,q') <= f(p',q'),
    with the strict version checked as its own clause.
    """
    P, Q, columns = _split_columns(f, split, f.keys)
    hit = single_crossing_witness(P, Q, columns)
    if hit is None:
        return Verdict(True)
    return Verdict(False, witness=_pq_fields(P, Q, *hit[:4]) + (("clause", hit[4]),))


def has_increasing_differences(f: LatticeFunction, split=0) -> Verdict:
    """f(p',q') - f(p,q') >= f(p',q) - f(p,q) for all p <= p', q <= q'.

    Decided on the cover pairs of P and of Q
    (``increasing_differences_witness``); a failing check rescans every
    p <= p', so the witness is the least one.
    """
    if not f.codomain.is_rational:
        raise LabeledCodomainUnsupported(
            "increasing differences need the additive structure of rational values")
    P, Q, columns = _split_columns(f, split, integer_values(f) or f.values)
    hit = increasing_differences_witness(P, Q, columns)
    if hit is None:
        return Verdict(True)
    return Verdict(False, witness=_pq_fields(P, Q, *hit[:4]))


def sections_quasisupermodular(f: LatticeFunction, split=0) -> Verdict:
    """Every section f(., q) over factor ``split`` is quasisupermodular."""
    P, Q, columns = _split_columns(f, split, f.keys)
    hit = qsm_witness(P, list(zip(*columns)))
    if hit is None:
        return Verdict(True)
    c, x, y, clause = hit
    return Verdict(False, witness=(("at", _q_label(Q, c)),) + _qsm_fields(P, x, y, clause))


def is_upper_chain_subcomplete(f: LatticeFunction) -> Verdict:
    """Each upper level set contains the sup and inf of each of its chains.

    On a finite lattice a chain's sup and inf are its own endpoints, so this
    holds once ``FiniteLattice.check_tables`` finds the tables to be the
    order's bounds; a wrong entry raises ``InvariantViolation`` (a malformed
    lattice, not a failing function).
    """
    f.domain.check_tables()
    return Verdict(True)


def is_order_upper_semicontinuous(f: LatticeFunction) -> Verdict:
    """On finite domains this coincides with upper chain subcompleteness."""
    return is_upper_chain_subcomplete(f)


def is_topologically_usc(f: LatticeFunction, family: ClosedFamily) -> Verdict:
    """Every upper level set (``LatticeFunction.upper_levels``), levels
    ascending, is closed in the given family."""
    _check_carrier(f, family)
    for value, level in zip(f.image(), f.upper_levels()):
        if not family.is_closed_mask(level):
            return Verdict(False, witness=(("level", value), ("set", f.domain.labels_of(level))))
    return Verdict(True)


@dataclass(frozen=True)
class TransferContinuityReport:
    transfer_upper: Verdict
    transfer_weak_upper: Verdict


def _check_carrier(f: LatticeFunction, family: ClosedFamily):
    if family.labels != f.domain.labels:
        raise CarrierMismatch("the family's carrier differs from the function's domain")


def transfer_continuity(f: LatticeFunction, family: ClosedFamily) -> TransferContinuityReport:
    """Transfer (and weak transfer) upper continuity in a finite topology.

    For each pair with f(y) < f(x) there must be some x' and an open U
    containing y with f(z) < f(x') (resp. <=) for every z in U.  The best x'
    is a global maximizer and the best U is y's least open neighbourhood,
    so transfer upper continuity fails exactly at the y whose neighbourhood
    meets the top upper level set, the argmax; the witness is the least x,
    then the least such y, with f(y) < f(x).  O(n²).  Weak transfer always
    holds on a finite carrier: take x' to be a global maximizer and U the
    whole carrier.  Labeled chains are compared by position, an extension
    of the real-valued definition.
    """
    _check_carrier(f, family)
    L = f.domain
    keys = f.keys
    top = f.upper_levels()[-1]
    stuck = [y for y, u in enumerate(family.neighbourhoods()) if u & top]
    upper = Verdict(True)
    for x in range(L.n):
        y = next((y for y in stuck if keys[y] < keys[x]), None)
        if y is not None:
            upper = Verdict(False, witness=(("x", L.labels[x]), ("y", L.labels[y])))
            break
    return TransferContinuityReport(upper, Verdict(True))
