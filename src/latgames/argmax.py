"""Argmax sets, level correspondences, and monotone-correspondence checkers."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyValue, NoGreatestElement, TheoremFalsified
from .functions import LatticeFunction
from .lattice import (FiniteLattice, SubsetFlags, classify_subset, extremal_in, iter_bits,
                      strong_set_witness)
from .properties import is_quasisupermodular, is_upper_chain_subcomplete
from .verdict import Verdict, format_atom


class Correspondence:
    """A map from a finite poset index into subsets of a lattice carrier.

    ``keys`` are the index elements in canonical order, ``up[k]`` is the
    mask of the index positions at or above position k, and ``masks[k]`` is
    the value at ``keys[k]`` as a mask over the carrier.
    """

    __slots__ = ("carrier", "keys", "up", "masks")

    def __init__(self, carrier: FiniteLattice, keys, up, masks):
        self.carrier = carrier
        self.keys = tuple(keys)
        self.up = tuple(up)
        self.masks = tuple(masks)
        if not len(self.keys) == len(self.up) == len(self.masks):
            raise ValueError("keys, up-rows and value masks must have one entry per index element")


def argmax_set(f: LatticeFunction) -> tuple:
    """Maximizer set, in canonical label order; nonempty on a finite domain."""
    best = max(f.keys)
    return tuple(label for label, k in zip(f.domain.labels, f.keys) if k == best)


def level_correspondence(f: LatticeFunction) -> Correspondence:
    """Upper level sets (``LatticeFunction.upper_levels``) indexed by the
    function's image chain (ascending); the r-th value of the image is the
    one of rank r."""
    image = f.image()
    full = (1 << len(image)) - 1
    return Correspondence(f.domain, image, [full >> r << r for r in range(len(image))],
                          f.upper_levels())


def _require_nonempty(F: Correspondence):
    for key, mask in zip(F.keys, F.masks):
        if mask == 0:
            raise EmptyValue(f"value at index {format_atom(key)} is empty")


def is_increasing_weak_veinott(F: Correspondence) -> Verdict:
    """Level-set monotonicity: for c < c', x in F(c), x' in F(c') with
    x ^ x' outside F(c), the join x v x' must land in F(c')."""
    full = (1 << len(F.keys)) - 1
    if any(row != full >> k << k for k, row in enumerate(F.up)):
        raise ValueError("the weak Veinott check needs a chain index")
    _require_nonempty(F)
    L = F.carrier
    for k, lo in enumerate(F.masks):
        for k2 in iter_bits(F.up[k] & ~(1 << k)):
            hi = F.masks[k2]
            for x in iter_bits(lo):
                meet, join = L.meet[x], L.join[x]
                for x2 in iter_bits(hi):
                    if lo >> meet[x2] & 1:
                        continue
                    if not hi >> join[x2] & 1:
                        return Verdict(False, witness=(
                            ("c", F.keys[k]), ("c2", F.keys[k2]),
                            ("x", L.labels[x]), ("x2", L.labels[x2])))
    return Verdict(True)


def is_increasing_strong_set_order(G: Correspondence) -> Verdict:
    """Topkis-style monotonicity: for s <= s' (including s = s'), meets fall
    into G(s) and joins into G(s'); the reflexive pairs make every value a
    sublattice.  A pair of values already found clean is not tested again."""
    _require_nonempty(G)
    L = G.carrier
    clean = set()
    for k, lo in enumerate(G.masks):
        for k2 in iter_bits(G.up[k]):
            hi = G.masks[k2]
            if (lo, hi) in clean:
                continue
            hit = strong_set_witness(L, lo, hi)
            if hit is not None:
                x, x2, op, value = hit
                return Verdict(False, witness=(
                    ("s", G.keys[k]), ("s2", G.keys[k2]), ("x", L.labels[x]),
                    ("x2", L.labels[x2]), ("op", op), ("value", L.labels[value])))
            clean.add((lo, hi))
    return Verdict(True)


def max_selection(G: Correspondence) -> dict:
    """Greatest element of each value set; monotone whenever the strong set
    order verdict holds and the greatest elements exist."""
    L = G.carrier
    out = {}
    for key, mask in zip(G.keys, G.masks):
        if mask == 0:
            raise EmptyValue(f"value at index {format_atom(key)} is empty")
        greatest = extremal_in(L, mask)
        if greatest is None:
            raise NoGreatestElement(format_atom(key))
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
    arg = argmax_set(f)
    report = ArgmaxReport(quasisupermodular=is_quasisupermodular(f),
                          upper_chain_subcomplete=is_upper_chain_subcomplete(f), argmax=arg,
                          nonempty=bool(arg), flags=classify_subset(f.domain, arg))
    if report.premises_hold and not report.conclusion_holds:
        raise TheoremFalsified(
            f"quasisupermodular + upper chain subcomplete, yet argmax {arg} "
            f"is not a nonempty subcomplete sublattice")
    return report
