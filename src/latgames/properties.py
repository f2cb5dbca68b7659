"""Executable checkers for function-level order properties.

Every checker reports the first violation of an exhaustive scan in canonical
element order (single crossing rescans only after a cover-pair test fails),
so the witness is always the lexicographically least one.  Weak and strict
clauses are checked separately and the witness says which one failed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (CarrierMismatch, LabeledCodomainUnsupported, NotAProductDomain,
                     TheoremFalsified)
from .functions import LatticeFunction
from .lattice import iter_bits, iter_chain_masks, tuple_label
from .topology import ClosedFamily
from .verdict import Verdict


def is_quasisupermodular(f: LatticeFunction) -> Verdict:
    """f(x) >= f(x^y) must force f(xvy) >= f(y), and strictly so for strict."""
    L = f.domain
    keys = f.keys
    for i in range(L.n):
        for j in range(L.n):
            m = L.meet[i][j]
            v = L.join[i][j]
            if keys[i] >= keys[m] and not keys[v] >= keys[j]:
                return Verdict(False, witness=(
                    ("x", L.labels[i]), ("y", L.labels[j]), ("clause", "weak")))
            if keys[i] > keys[m] and not keys[v] > keys[j]:
                return Verdict(False, witness=(
                    ("x", L.labels[i]), ("y", L.labels[j]), ("clause", "strict")))
    return Verdict(True)


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


def _block_elements(factors, part):
    """All coordinate tuples of a factor block, in canonical nested order."""
    return list(itertools.product(*(range(factors[i].n) for i in part)))


def _coord_leq(factors, a, b) -> bool:
    return all(f.poset._leq(x, y) for f, x, y in zip(factors, a, b))


def _block_label(factors, part, coord) -> str:
    labels = tuple(factors[i].labels[c] for i, c in zip(part, coord))
    return labels[0] if len(labels) == 1 else tuple_label(labels)


def _index_for(f, p_part, q_part, p, q):
    coord = [0] * len(f.domain.factors)
    for i, c in zip(p_part, p):
        coord[i] = c
    for i, c in zip(q_part, q):
        coord[i] = c
    return f.domain.coord_index[tuple(coord)]


def single_crossing_witness(p_factors, q_factors, columns):
    """Least single-crossing violation ``(p, p2, q, q2, clause)`` or None.

    Blocks are flat-indexed in canonical nested order and ``columns[p][q]``
    is the key at (p, q).  For p <= p2 the clauses hold iff the sign of
    f(p2,q) - f(p,q) rises with q, which is decided on the cover pairs of Q.
    The first failing pair alone is rescanned over all q <= q2 in canonical
    order; every earlier pair is clean, so that witness is the least one.
    """
    ps = list(itertools.product(*(range(f.n) for f in p_factors)))
    qs = list(itertools.product(*(range(f.n) for f in q_factors)))
    flat = {q: c for c, q in enumerate(qs)}
    covers = [(c, flat[q[:k] + (f.index[hi],) + q[k + 1:]])
              for c, q in enumerate(qs) for k, f in enumerate(q_factors)
              for lo, hi in f.poset.covers if f.index[lo] == q[k]]
    for a, b in itertools.product(range(len(ps)), repeat=2):
        if a == b or not _coord_leq(p_factors, ps[a], ps[b]):
            continue
        s = [(hi > lo) - (hi < lo) for lo, hi in zip(columns[a], columns[b])]
        if all(s[lo] <= s[hi] for lo, hi in covers):
            continue
        for c, d in itertools.product(range(len(qs)), repeat=2):
            if s[c] > s[d] and c != d and _coord_leq(q_factors, qs[c], qs[d]):
                return a, b, c, d, "weak" if s[d] < 0 else "strict"
        raise TheoremFalsified("single crossing failed on a cover pair "
                               "but the exhaustive rescan found no witness")
    return None


def is_single_crossing(f: LatticeFunction, split=0) -> Verdict:
    """Single crossing relative to the (P, Q) split of a product domain.

    For p <= p' and q <= q': f(p,q) <= f(p',q) must give f(p,q') <= f(p',q'),
    with the strict version checked as its own clause.
    """
    p_part, q_part = _split_parts(f, split)
    factors = f.domain.factors
    ps = _block_elements(factors, p_part)
    qs = _block_elements(factors, q_part)
    columns = [[f.keys[_index_for(f, p_part, q_part, p, q)] for q in qs] for p in ps]
    hit = single_crossing_witness([factors[i] for i in p_part], [factors[i] for i in q_part],
                                  columns)
    if hit is None:
        return Verdict(True)
    a, b, c, d, clause = hit
    return Verdict(False, witness=(
        ("p", _block_label(factors, p_part, ps[a])),
        ("p2", _block_label(factors, p_part, ps[b])),
        ("q", _block_label(factors, q_part, qs[c])),
        ("q2", _block_label(factors, q_part, qs[d])),
        ("clause", clause)))


def has_increasing_differences(f: LatticeFunction, split=0) -> Verdict:
    """f(p',q') - f(p,q') >= f(p',q) - f(p,q) for all p <= p', q <= q'."""
    if not f.codomain.is_rational:
        raise LabeledCodomainUnsupported(
            "increasing differences need the additive structure of rational values")
    p_part, q_part = _split_parts(f, split)
    factors = f.domain.factors
    vals = f.values
    p_factors, q_factors = [factors[i] for i in p_part], [factors[i] for i in q_part]
    ps = _block_elements(factors, p_part)
    qs = _block_elements(factors, q_part)
    for p, p2 in itertools.product(ps, repeat=2):
        if p == p2 or not _coord_leq(p_factors, p, p2):
            continue
        for q, q2 in itertools.product(qs, repeat=2):
            if q == q2 or not _coord_leq(q_factors, q, q2):
                continue
            lhs = (vals[_index_for(f, p_part, q_part, p2, q2)]
                   - vals[_index_for(f, p_part, q_part, p, q2)])
            rhs = (vals[_index_for(f, p_part, q_part, p2, q)]
                   - vals[_index_for(f, p_part, q_part, p, q)])
            if lhs < rhs:
                return Verdict(False, witness=(
                    ("p", _block_label(factors, p_part, p)),
                    ("p2", _block_label(factors, p_part, p2)),
                    ("q", _block_label(factors, q_part, q)),
                    ("q2", _block_label(factors, q_part, q2))))
    return Verdict(True)


def sections_quasisupermodular(f: LatticeFunction, split=0) -> Verdict:
    """Every section f(., q) over the P block is quasisupermodular."""
    p_part, q_part = _split_parts(f, split)
    factors = f.domain.factors
    if len(p_part) != 1:
        raise NotAProductDomain("sections are taken over a single factor")
    section_domain = factors[p_part[0]]
    qs = _block_elements(factors, q_part)
    for q in qs:
        table = {section_domain.labels[c]: f.values[_index_for(f, p_part, q_part, (c,), q)]
                 for c in range(section_domain.n)}
        section = LatticeFunction(section_domain, f.codomain, table)
        verdict = is_quasisupermodular(section)
        if not verdict.holds:
            return Verdict(False, witness=(
                ("at", _block_label(factors, q_part, q)),) + verdict.witness)
    return Verdict(True)


def is_upper_chain_subcomplete(f: LatticeFunction) -> Verdict:
    """Each upper level set contains the sup and inf of each of its chains.

    Automatic on finite domains (a finite chain attains its bounds at its own
    endpoints); the scan is kept exhaustive so the claim stays falsifiable.
    """
    L = f.domain
    keys = f.keys
    value_at = {k: v for k, v in zip(keys, f.values)}
    for a in sorted(set(keys)):
        level = 0
        for i, k in enumerate(keys):
            if k >= a:
                level |= 1 << i
        for cmask in iter_chain_masks(L.poset, level):
            s = L._sup_mask(cmask)
            if not level >> s & 1:
                return Verdict(False, witness=(
                    ("level", value_at[a]), ("chain", L.labels_of(cmask)),
                    ("bound", "sup"), ("value", L.labels[s])))
            m = L._inf_mask(cmask)
            if not level >> m & 1:
                return Verdict(False, witness=(
                    ("level", value_at[a]), ("chain", L.labels_of(cmask)),
                    ("bound", "inf"), ("value", L.labels[m])))
    return Verdict(True)


def is_order_upper_semicontinuous(f: LatticeFunction) -> Verdict:
    """On finite domains this coincides with upper chain subcompleteness."""
    inner = is_upper_chain_subcomplete(f)
    note = "finite domain: decided via the upper-chain-subcomplete equivalence"
    return Verdict(inner.holds, witness=inner.witness, note=note)


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
