"""``verify --theorem veinott|chaincls`` are decided by
``FiniteLattice.check_tables``; here their reports are compared, line by
line, with the exhaustive scans: ``first_unbounded`` over every submask and
every chain of each subset, ascending, and the pair scan
``oracle_sublattice_witness``.  Mask by mask, the verdicts and witnesses
that the checked tables give (``classify_subset``, ``sublattice_witness``)
are the scans'.  On a lattice with one wrong join or meet entry both
reports raise the ``InvariantViolation`` that ``check_tables`` raises, and
the folds that the scans read are the folds of the wrong tables."""
from __future__ import annotations

import functools

import pytest

from latgames import reports
from latgames.errors import InvariantViolation
from latgames.generators import all_lattices, chain_lattice, diamond_mk, grid_lattice, random_lattice
from latgames.lattice import (FiniteLattice, classify_subset, first_unbounded, iter_bits,
                              sublattice_witness)
from latgames.rng import Xoshiro256StarStar
from latgames.topology import INTERVAL, TopologySpec, family_for

from conftest import iter_chain_masks, iter_submasks, oracle_sublattice_witness


def scan_veinott(L):
    """The report as the exhaustive scans give it."""
    for mask in range(1 << L.n):
        subcomplete = first_unbounded(L, mask, iter_submasks(mask)) is None
        if subcomplete != (oracle_sublattice_witness(L, mask) is None):
            return [f"PROPERTY subcomplete-iff-sublattice FAIL "
                    f"subset={','.join(L.labels_of(mask))}"], False
        if first_unbounded(L, mask, iter_chain_masks(L, mask)) is not None:
            return [f"PROPERTY chain-subcomplete FAIL subset={','.join(L.labels_of(mask))}"], False
    return ["PROPERTY subcomplete-iff-sublattice PASS", "PROPERTY chain-subcomplete PASS"], True


def scan_chaincls(L):
    for mask in family_for(TopologySpec(INTERVAL), L).sets:
        if first_unbounded(L, mask, iter_chain_masks(L, mask)) is not None:
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
    return FiniteLattice(L, tuple(map(tuple, tables["meet"])),
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


@pytest.mark.parametrize("L", [diamond_mk(3), grid_lattice((2, 3))], ids=repr)
def test_hand_built_tables_that_are_the_bounds_pass(L):
    hand = FiniteLattice(L, L.meet, L.join)
    assert not hand._tables_checked
    hand.check_tables()
    assert hand._tables_checked


@pytest.mark.parametrize("L", WELL_FORMED, ids=repr)
def test_tables_match_the_scans_on_every_mask(L):
    # Veinott's equivalences subset by subset, once the tables are checked:
    # subcomplete iff sublattice, with the scan's least failing submask as
    # the witness, and every subset chain-subcomplete.
    L.check_tables()
    for mask in range(1, 1 << L.n):
        flags = classify_subset(L, L.labels_of(mask))
        gap = oracle_sublattice_witness(L, mask)
        assert sublattice_witness(L, mask) == flags.is_sublattice.witness == gap
        unbounded = first_unbounded(L, mask, iter_submasks(mask))
        assert flags.is_sublattice.holds == (gap is None) == (unbounded is None)
        assert flags.is_subcomplete.holds == (unbounded is None)
        if unbounded is not None:
            assert flags.is_subcomplete.witness == unbounded
        assert first_unbounded(L, mask, iter_chain_masks(L, mask)) is None
        assert flags.is_chain_subcomplete.holds


@pytest.mark.parametrize("L", [grid_lattice((4, 4)), diamond_mk(5)], ids=repr)
def test_sublattice_witness_is_the_pair_scan_on_every_mask(L):
    # The strong-set kernel of a mask below itself, on lazy product rows too.
    L.check_tables()
    for mask in range(1, 1 << L.n):
        assert sublattice_witness(L, mask) == oracle_sublattice_witness(L, mask)


def test_tables_past_sixteen_elements():
    # Masks of 17 and more bits: every subset of a chain is a chain holding
    # its own sup and inf, and two midpoints of diamond_Mk with k = 16 (18
    # elements) have their join and meet outside the pair.
    L = chain_lattice(17)
    assert reports.veinott_report(L) == (
        ["PROPERTY subcomplete-iff-sublattice PASS", "PROPERTY chain-subcomplete PASS"], True)
    assert reports.chaincls_report(L) == (["PROPERTY interval-closed-chain-subcomplete PASS"], True)
    mask = 1 << 16 | 1
    assert classify_subset(L, L.labels_of(mask)).is_subcomplete.holds
    assert first_unbounded(L, mask, iter_submasks(mask)) is None
    M = diamond_mk(16)
    assert M.n == 18
    mask = 1 << 17 | 1 << 16
    flags = classify_subset(M, M.labels_of(mask))
    assert not flags.is_sublattice.holds
    assert flags.is_subcomplete.witness == first_unbounded(M, mask, iter_submasks(mask))
    assert flags.is_subcomplete.witness == (("subset", M.labels_of(mask)), ("bound", "sup"),
                                            ("value", "M"))


def test_tables_are_the_folds_on_corrupted_lattices():
    # Mask by mask on the first 100 of the sample: the sups and infs that
    # the scans read are left folds of the stored tables, wrong entries
    # included, and the table check rejects every one of these lattices.
    for L in corrupted_sample(count=100):
        for mask in range(1, 1 << L.n):
            bits = list(iter_bits(mask))
            assert L._fold(mask, L.join) == functools.reduce(lambda a, b: L.join[a][b], bits)
            assert L._fold(mask, L.meet) == functools.reduce(lambda a, b: L.meet[a][b], bits)
        with pytest.raises(InvariantViolation):
            L.check_tables()


@pytest.mark.parametrize("L", WELL_FORMED, ids=repr)
def test_reports_match_the_scans_on_well_formed_lattices(L):
    assert reports.veinott_report(L) == scan_veinott(L)
    assert reports.chaincls_report(L) == scan_chaincls(L)


def test_reports_reject_corrupted_lattices():
    # The exhaustive scans pass many of these (a wrong entry off every fold
    # they read); the table check rejects each one, naming its first wrong
    # entry.
    for L in corrupted_sample():
        with pytest.raises(InvariantViolation) as want:
            L.check_tables()
        for report in (reports.veinott_report, reports.chaincls_report):
            with pytest.raises(InvariantViolation) as got:
                report(L)
            assert str(got.value) == str(want.value)
