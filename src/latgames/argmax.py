"""Argmax sets, level correspondences, and monotone-correspondence checkers."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyValue, NoGreatestElement, TheoremFalsified
from .functions import LatticeFunction
from .lattice import FiniteLattice, SubsetFlags, classify_subset, extremal_in, iter_bits
from .verdict import Verdict, format_atom


class Correspondence:
    """A map from a chain or poset index into subsets of a lattice carrier."""

    __slots__ = ("carrier", "index_kind", "index_keys", "index_poset", "values", "_masks")

    def __init__(self, carrier: FiniteLattice, values, index_keys=None, index_poset=None):
        self.carrier = carrier
        if (index_keys is None) == (index_poset is None):
            raise ValueError("give exactly one of index_keys (chain) or index_poset")
        if index_poset is not None:
            self.index_kind = "poset"
            self.index_poset = index_poset
            self.index_keys = index_poset.labels
        else:
            self.index_kind = "chain"
            self.index_poset = None
            self.index_keys = tuple(index_keys)
        if set(values) != set(self.index_keys):
            raise ValueError("values must be keyed exactly by the index elements")
        self.values = {k: tuple(values[k]) for k in self.index_keys}
        self._masks = {k: carrier.subset_mask(v) for k, v in self.values.items()}

    def mask(self, key) -> int:
        return self._masks[key]

    def format_key(self, key) -> str:
        return format_atom(key)

    def index_pairs(self, include_equal: bool):
        """Comparable index pairs (s, s') with s <= s', in canonical order."""
        keys = self.index_keys
        if self.index_kind == "chain":
            for i, a in enumerate(keys):
                start = i if include_equal else i + 1
                for b in keys[start:]:
                    yield a, b
        else:
            P = self.index_poset
            for i in range(P.n):
                for j in iter_bits(P.up[i]):
                    if include_equal or j != i:
                        yield keys[i], keys[j]


def argmax_set(f: LatticeFunction) -> tuple:
    """Maximizer set, in canonical label order; nonempty on a finite domain."""
    best = max(f.keys)
    return tuple(label for label, k in zip(f.domain.labels, f.keys) if k == best)


def level_correspondence(f: LatticeFunction) -> Correspondence:
    """Upper level sets indexed by the function's image chain (ascending)."""
    image = f.image()
    values = {}
    for v in image:
        cut = f.codomain.key(v)
        values[v] = tuple(label for label, k in zip(f.domain.labels, f.keys) if k >= cut)
    return Correspondence(f.domain, values, index_keys=image)


def _require_nonempty(F: Correspondence):
    for key in F.index_keys:
        if F.mask(key) == 0:
            raise EmptyValue(f"value at index {F.format_key(key)} is empty")


def is_increasing_weak_veinott(F: Correspondence) -> Verdict:
    """Level-set monotonicity: for c < c', x in F(c), x' in F(c') with
    x ^ x' outside F(c), the join x v x' must land in F(c')."""
    if F.index_kind != "chain":
        raise ValueError("the weak Veinott check needs a chain index")
    _require_nonempty(F)
    L = F.carrier
    for c, c2 in F.index_pairs(include_equal=False):
        lo, hi = F.mask(c), F.mask(c2)
        for x in iter_bits(lo):
            for x2 in iter_bits(hi):
                if lo >> L.meet[x][x2] & 1:
                    continue
                if not hi >> L.join[x][x2] & 1:
                    return Verdict(False, witness=(
                        ("c", c), ("c2", c2),
                        ("x", L.labels[x]), ("x2", L.labels[x2])))
    return Verdict(True)


def is_increasing_strong_set_order(G: Correspondence) -> Verdict:
    """Topkis-style monotonicity: for s <= s' (including s = s'), meets fall
    into G(s) and joins into G(s'); the reflexive pairs make every value a
    sublattice."""
    _require_nonempty(G)
    L = G.carrier
    for s, s2 in G.index_pairs(include_equal=True):
        lo, hi = G.mask(s), G.mask(s2)
        for x in iter_bits(lo):
            for x2 in iter_bits(hi):
                m = L.meet[x][x2]
                if not lo >> m & 1:
                    return Verdict(False, witness=(
                        ("s", s), ("s2", s2), ("x", L.labels[x]), ("x2", L.labels[x2]),
                        ("op", "meet"), ("value", L.labels[m])))
                v = L.join[x][x2]
                if not hi >> v & 1:
                    return Verdict(False, witness=(
                        ("s", s), ("s2", s2), ("x", L.labels[x]), ("x2", L.labels[x2]),
                        ("op", "join"), ("value", L.labels[v])))
    return Verdict(True)


def max_selection(G: Correspondence) -> dict:
    """Greatest element of each value set; monotone whenever the strong set
    order verdict holds and the greatest elements exist."""
    L = G.carrier
    out = {}
    for key in G.index_keys:
        mask = G.mask(key)
        if mask == 0:
            raise EmptyValue(f"value at index {G.format_key(key)} is empty")
        greatest = extremal_in(L.poset, mask)
        if greatest is None:
            raise NoGreatestElement(G.format_key(key))
        out[key] = L.labels[greatest]
    return out


@dataclass(frozen=True)
class ArgmaxReport:
    """Premises, argmax, and structure conclusions for one function."""

    quasisupermodular: Verdict
    upper_chain_subcomplete: Verdict
    argmax: tuple
    nonempty: bool
    flags: SubsetFlags

    @property
    def premises_hold(self) -> bool:
        return self.quasisupermodular.holds and self.upper_chain_subcomplete.holds

    @property
    def conclusion_holds(self) -> bool:
        return self.nonempty and self.flags.is_sublattice.holds and self.flags.is_subcomplete.holds


def verify_kuku(f: LatticeFunction) -> ArgmaxReport:
    """Check that the maximizer set of a quasisupermodular, upper-chain-
    subcomplete function is a nonempty subcomplete sublattice.

    The conclusion is evaluated and reported even when the premises fail
    (the hypotheses are sufficient, not necessary).  If the premises hold
    and the conclusion does not, the run fails loudly: that would falsify
    a structural guarantee this package is built on.
    """
    from .properties import is_quasisupermodular, is_upper_chain_subcomplete

    arg = argmax_set(f)
    report = ArgmaxReport(quasisupermodular=is_quasisupermodular(f),
                          upper_chain_subcomplete=is_upper_chain_subcomplete(f), argmax=arg,
                          nonempty=bool(arg), flags=classify_subset(f.domain, arg))
    if report.premises_hold and not report.conclusion_holds:
        raise TheoremFalsified(
            f"quasisupermodular + upper chain subcomplete, yet argmax {arg} "
            f"is not a nonempty subcomplete sublattice")
    return report
