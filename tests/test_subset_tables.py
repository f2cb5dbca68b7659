"""``verify --theorem veinott|chaincls`` read per-subset tables
(``lattice.subset_bound_masks``, ``chain_bound_masks`` and
``pair_bound_masks``); here they are compared, mask by mask and line by
line, with the exhaustive scans: ``first_unbounded`` over every submask and
every chain of each subset, ascending, and ``sublattice_witness``."""
from __future__ import annotations

import itertools

import pytest

from latgames import reports
from latgames.generators import all_lattices, chain_lattice, grid_lattice, random_lattice
from latgames.lattice import (FiniteLattice, chain_bound_masks, first_unbounded, iter_bits,
                              pair_bound_masks, sublattice_witness, subset_bound_masks)
from latgames.rng import Xoshiro256StarStar
from latgames.topology import INTERVAL, TopologySpec, family_for

from conftest import iter_chain_masks, iter_submasks


def scan_veinott(L):
    """The report as the exhaustive scans give it."""
    for mask in range(1 << L.n):
        subcomplete = first_unbounded(L, mask, iter_submasks(mask)) is None
        if subcomplete != (sublattice_witness(L, mask) is None):
            return [f"PROPERTY subcomplete-iff-sublattice FAIL "
                    f"subset={','.join(L.labels_of(mask))}"], False
        if first_unbounded(L, mask, iter_chain_masks(L.poset, mask)) is not None:
            return [f"PROPERTY chain-subcomplete FAIL subset={','.join(L.labels_of(mask))}"], False
    return ["PROPERTY subcomplete-iff-sublattice PASS", "PROPERTY chain-subcomplete PASS"], True


def scan_chaincls(L):
    for mask in family_for(TopologySpec(INTERVAL), L).sets:
        if first_unbounded(L, mask, iter_chain_masks(L.poset, mask)) is not None:
            return ["PROPERTY interval-closed-chain-subcomplete FAIL "
                    f"set={','.join(L.labels_of(mask))}"], False
    return ["PROPERTY interval-closed-chain-subcomplete PASS"], True


def corrupted(rng, L):
    """``L`` with one join or meet entry changed, built directly so that
    ``check_tables`` never runs."""
    tables = {"join": [list(row) for row in L.join], "meet": [list(row) for row in L.meet]}
    table = tables[rng.choice(["join", "meet"])]
    a, b = rng.below(L.n), rng.below(L.n)
    table[a][b] = rng.choice([v for v in range(L.n) if v != table[a][b]])
    return FiniteLattice(L.poset, tuple(map(tuple, tables["meet"])),
                         tuple(map(tuple, tables["join"])))


def corrupted_sample(count=600, seed=0x5B5E7):
    rng = Xoshiro256StarStar(seed)
    out = []
    while len(out) < count:
        L = random_lattice(rng, max_size=7)
        if L.n > 1:
            out.append(corrupted(rng, L))
    return out


WELL_FORMED = all_lattices(6) + (grid_lattice((3, 3)), grid_lattice((2, 2, 2)))


@pytest.mark.parametrize("L", WELL_FORMED, ids=repr)
def test_tables_match_the_scans_on_every_mask(L):
    every, chains = subset_bound_masks(L)
    pairs = pair_bound_masks(L)
    assert len(every) == len(chains) == len(pairs) == 1 << L.n
    assert chain_bound_masks(L) == chains
    for mask in range(1 << L.n):
        assert (every[mask] & ~mask == 0) == (first_unbounded(L, mask, iter_submasks(mask)) is None)
        assert (chains[mask] & ~mask == 0) == (
            first_unbounded(L, mask, iter_chain_masks(L.poset, mask)) is None)
        assert (pairs[mask] & ~mask == 0) == (sublattice_witness(L, mask) is None)


@pytest.mark.parametrize("L", WELL_FORMED, ids=repr)
def test_reports_match_the_scans_on_well_formed_lattices(L):
    assert reports.veinott_report(L) == scan_veinott(L)
    assert reports.chaincls_report(L) == scan_chaincls(L)


def test_tables_past_sixteen_elements():
    # Masks of 17 bits need wider entries.  Every subset of a chain is a
    # chain holding its own sup and inf.
    L = chain_lattice(17)
    every, chains = subset_bound_masks(L)
    pairs = pair_bound_masks(L)
    assert every == chains == chain_bound_masks(L)
    assert all(every[mask] & ~mask == 0 == pairs[mask] & ~mask for mask in range(1 << L.n))
    assert every[1 << 16 | 1] == 1 << 16 | 1


def test_tables_are_the_folds_on_corrupted_lattices():
    # Mask by mask on the first 100 of the sample: the OR over submasks and
    # chains holds exactly the folded bounds, wrong entries included.
    for L in corrupted_sample(count=100):
        every, chains = subset_bound_masks(L)
        pairs = pair_bound_masks(L)
        assert chain_bound_masks(L) == chains
        for mask in range(1, 1 << L.n):
            assert every[mask] == _bits(L, iter_submasks(mask))
            assert chains[mask] == _bits(L, iter_chain_masks(L.poset, mask))
            assert pairs[mask] == _pair_bits(L, mask)


def _pair_bits(L, mask) -> int:
    out = 0
    for a, b in itertools.combinations(iter_bits(mask), 2):
        out |= 1 << L.meet[a][b] | 1 << L.join[a][b]
    return out


def _bits(L, submasks) -> int:
    out = 0
    for sub in submasks:
        out |= 1 << L._sup_mask(sub) | 1 << L._inf_mask(sub)
    return out


def test_reports_match_the_scans_on_corrupted_lattices():
    fails = set()
    for L in corrupted_sample():
        for report, scan in ((reports.veinott_report, scan_veinott),
                             (reports.chaincls_report, scan_chaincls)):
            lines, ok = report(L)
            assert (lines, ok) == scan(L)
            if not ok:
                fails.add(lines[0].split()[1])
    # Every FAIL branch is reached, each with the least failing mask.
    assert fails == {"subcomplete-iff-sublattice", "chain-subcomplete",
                     "interval-closed-chain-subcomplete"}
