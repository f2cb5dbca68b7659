"""Executable checkers for function-level order properties.

Every checker reports the first violation of an exhaustive scan in canonical
element order (single crossing and increasing differences rescan only after
a cover-pair test fails), so the witness is always the lexicographically
least one.  Weak and strict clauses are checked separately and the witness
says which one failed.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace

from .errors import (CarrierMismatch, LabeledCodomainUnsupported, NotAProductDomain,
                     TheoremFalsified)
from .functions import LatticeFunction
from .lattice import FiniteLattice, componentwise_up, iter_bits, tuple_label
from .topology import ClosedFamily
from .verdict import Verdict


def qsm_witness(L: FiniteLattice, columns):
    """Least quasisupermodularity violation ``(column, x, y, clause)`` or None.

    Each column is a sequence of keys over L's elements.  f(x) >= f(x^y) must
    force f(xvy) >= f(y) (the weak clause, tested first), and strictly so for
    strict.  Columns are scanned in order, and the pairs (x, y) of each in
    canonical order.  A comparable pair has {x^y, xvy} = {x, y} and cannot
    fail either clause, so only incomparable pairs are tested.
    """
    P = L.poset
    rows = [(x, L.meet[x], L.join[x], P.full & ~(P.up[x] | P.down[x])) for x in range(L.n)]
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


def is_quasisupermodular(f: LatticeFunction) -> Verdict:
    """f(x) >= f(x^y) must force f(xvy) >= f(y), and strictly so for strict."""
    hit = qsm_witness(f.domain, [f.keys])
    if hit is None:
        return Verdict(True)
    return Verdict(False, witness=_qsm_fields(f.domain, *hit[1:]))


def is_supermodular(f: LatticeFunction) -> Verdict:
    """f(x)+f(y) <= f(x^y)+f(xvy), checked with exact rational arithmetic."""
    if not f.codomain.is_rational:
        raise LabeledCodomainUnsupported(
            "supermodularity needs the additive structure of rational values")
    L = f.domain
    vals = f.values
    for i in range(L.n):
        for j in range(i + 1, L.n):
            if vals[i] + vals[j] > vals[L.meet[i][j]] + vals[L.join[i][j]]:
                return Verdict(False, witness=(("x", L.labels[i]), ("y", L.labels[j])))
    return Verdict(True)


def _split_parts(f: LatticeFunction, split):
    """Resolve a factor split into (p_indices, q_indices) over the product."""
    L = f.domain
    if L.factors is None:
        raise NotAProductDomain("this check needs a domain built by product_lattice")
    k = len(L.factors)
    if isinstance(split, int):
        p_part = (split,)
    else:
        p_part = tuple(split)
    if any(i < 0 or i >= k for i in p_part) or len(set(p_part)) != len(p_part):
        raise NotAProductDomain(f"split {split!r} does not name distinct factors of a {k}-factor product")
    q_part = tuple(i for i in range(k) if i not in p_part)
    if not p_part or not q_part:
        raise NotAProductDomain("the split must leave factors on both sides")
    return p_part, q_part


def _block_elements(block):
    """All coordinate tuples of a factor block, in canonical nested order."""
    return list(itertools.product(*(range(f.n) for f in block)))


def _split_columns(f: LatticeFunction, split, table):
    """The factor blocks (P, Q) of the split, their coordinate tuples, and
    ``columns[p][q]``, the entry of ``table`` (per element of f's domain) at
    (p, q), with both blocks flat-indexed in canonical nested order."""
    p_part, q_part = _split_parts(f, split)
    factors = f.domain.factors
    P, Q = [factors[i] for i in p_part], [factors[i] for i in q_part]
    ps, qs = _block_elements(P), _block_elements(Q)
    where = [(p_part + q_part).index(i) for i in range(len(factors))]
    index = f.domain.coord_index
    columns = [[table[index[tuple((p + q)[k] for k in where)]] for q in qs] for p in ps]
    return P, Q, ps, qs, columns


def _block_label(block, coord) -> str:
    labels = tuple(f.labels[c] for f, c in zip(block, coord))
    return labels[0] if len(labels) == 1 else tuple_label(labels)


def _pq_fields(P, Q, ps, qs, a, b, c, d) -> tuple:
    return (("p", _block_label(P, ps[a])), ("p2", _block_label(P, ps[b])),
            ("q", _block_label(Q, qs[c])), ("q2", _block_label(Q, qs[d])))


def _signs(hi, lo) -> list:
    return [(h > l) - (h < l) for h, l in zip(hi, lo)]


def _differences(hi, lo) -> list:
    return list(map(operator.sub, hi, lo))


def single_crossing_witness(p_factors, q_factors, columns, step=_signs):
    """Least violation ``(p, p2, q, q2, clause)`` of a rising step, or None.

    Blocks are flat-indexed in canonical nested order and ``columns[p][q]``
    is the entry at (p, q).  For p <= p2, s = step(columns[p2], columns[p])
    compares the two columns entry by entry and must not drop as q rises.
    With the sign step on keys that is single crossing (both clauses); with
    the difference step on values it is increasing differences.  Every
    q <= q2 is joined by a chain of covers, so it is decided on the cover
    pairs of Q.  The first failing pair alone is rescanned over all q <= q2
    in canonical order; every earlier pair is clean, so that witness is the
    least one.  ``clause`` is "weak" when s[q2] < 0 and "strict" otherwise,
    the single-crossing clause that fails.  Both walks read the strict
    up-sets of ``componentwise_up``, a ascending and then b ascending.
    """
    ps = _block_elements(p_factors)
    qs = _block_elements(q_factors)
    flat = {q: c for c, q in enumerate(qs)}
    covers = [(c, flat[q[:k] + (f.index[hi],) + q[k + 1:]])
              for c, q in enumerate(qs) for k, f in enumerate(q_factors)
              for lo, hi in f.poset.covers if f.index[lo] == q[k]]
    q_above = [row & ~(1 << c) for c, row in enumerate(componentwise_up(q_factors, qs))]
    for a, row in enumerate(componentwise_up(p_factors, ps)):
        for b in iter_bits(row & ~(1 << a)):
            s = step(columns[b], columns[a])
            if all(s[lo] <= s[hi] for lo, hi in covers):
                continue
            for c, above in enumerate(q_above):
                for d in iter_bits(above):
                    if s[c] > s[d]:
                        return a, b, c, d, "weak" if s[d] < 0 else "strict"
            raise TheoremFalsified("a step dropped on a cover pair "
                                   "but the exhaustive rescan found no witness")
    return None


def is_single_crossing(f: LatticeFunction, split=0) -> Verdict:
    """Single crossing relative to the (P, Q) split of a product domain.

    For p <= p' and q <= q': f(p,q) <= f(p',q) must give f(p,q') <= f(p',q'),
    with the strict version checked as its own clause.
    """
    P, Q, ps, qs, columns = _split_columns(f, split, f.keys)
    hit = single_crossing_witness(P, Q, columns)
    if hit is None:
        return Verdict(True)
    return Verdict(False, witness=_pq_fields(P, Q, ps, qs, *hit[:4]) + (("clause", hit[4]),))


def has_increasing_differences(f: LatticeFunction, split=0) -> Verdict:
    """f(p',q') - f(p,q') >= f(p',q) - f(p,q) for all p <= p', q <= q'."""
    if not f.codomain.is_rational:
        raise LabeledCodomainUnsupported(
            "increasing differences need the additive structure of rational values")
    P, Q, ps, qs, columns = _split_columns(f, split, f.values)
    hit = single_crossing_witness(P, Q, columns, step=_differences)
    if hit is None:
        return Verdict(True)
    return Verdict(False, witness=_pq_fields(P, Q, ps, qs, *hit[:4]))


def sections_quasisupermodular(f: LatticeFunction, split=0) -> Verdict:
    """Every section f(., q) over the P block is quasisupermodular."""
    P, Q, _, qs, columns = _split_columns(f, split, f.keys)
    if len(P) != 1:
        raise NotAProductDomain("sections are taken over a single factor")
    hit = qsm_witness(P[0], list(zip(*columns)))
    if hit is None:
        return Verdict(True)
    c, x, y, clause = hit
    return Verdict(False, witness=(("at", _block_label(Q, qs[c])),)
                   + _qsm_fields(P[0], x, y, clause))


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
    return replace(is_upper_chain_subcomplete(f),
                   note="finite domain: decided via the upper-chain-subcomplete equivalence")


def is_topologically_usc(f: LatticeFunction, family: ClosedFamily) -> Verdict:
    """Every upper level set is closed in the given family."""
    _check_carrier(f, family)
    L = f.domain
    keys = f.keys
    for a in sorted(set(keys)):
        level = 0
        value = None
        for i, k in enumerate(keys):
            if k >= a:
                level |= 1 << i
                if k == a:
                    value = f.values[i]
        if not family.is_closed_mask(level):
            return Verdict(False, witness=(
                ("level", value), ("set", L.labels_of(level))))
    return Verdict(True)


@dataclass(frozen=True)
class TransferContinuityReport:
    transfer_upper: Verdict
    transfer_weak_upper: Verdict


def _check_carrier(f: LatticeFunction, family: ClosedFamily):
    if family.labels != f.domain.labels:
        raise CarrierMismatch("the family's carrier differs from the function's domain")


def transfer_continuity(f: LatticeFunction, family: ClosedFamily) -> TransferContinuityReport:
    """Transfer (and weak transfer) upper continuity against a closed family.

    For each pair with f(y) < f(x) there must be some x' and an open U
    containing y with f(z) < f(x') (resp. <=) for every z in U.  Opens are
    complements of family members.  Labeled chains are compared by position,
    an extension of the real-valued definition, and flagged as such.
    """
    _check_carrier(f, family)
    L = f.domain
    keys = f.keys
    n = L.n
    best_key = max(keys)
    opens = family.open_masks()
    # The best possible x' is a global maximizer, so precompute, per y, the
    # smallest achievable sup of f over an open neighborhood of y.
    strict_ok = [False] * n
    weak_ok = [False] * n
    for y in range(n):
        for u in opens:
            if not u >> y & 1:
                continue
            sup_u = max(keys[z] for z in iter_bits(u))
            if sup_u <= best_key:
                weak_ok[y] = True
            if sup_u < best_key:
                strict_ok[y] = True
                break
    note = None
    if not f.codomain.is_rational:
        note = "labeled chain compared by position (extension of the real-valued definition)"
    upper = Verdict(True, note=note)
    weak = Verdict(True, note=note)
    for x in range(n):
        for y in range(n):
            if keys[y] >= keys[x]:
                continue
            if not strict_ok[y] and upper.holds:
                upper = Verdict(False, witness=(
                    ("x", L.labels[x]), ("y", L.labels[y])), note=note)
            if not weak_ok[y] and weak.holds:
                weak = Verdict(False, witness=(
                    ("x", L.labels[x]), ("y", L.labels[y])), note=note)
            if not upper.holds and not weak.holds:
                return TransferContinuityReport(upper, weak)
        if not upper.holds and not weak.holds:
            break
    return TransferContinuityReport(upper, weak)
