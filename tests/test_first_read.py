"""What a parsed function and a product lattice build only on first read.

A product lattice holds its labels, coordinates, radix table and bounds;
its ``up`` and ``down`` rows are built by ``componentwise_up`` on their
first read.  A parsed function or payoff table holds the dense ranks of its
values and the integer pair of each rank (``functions.RankedValues``); its
``Fraction`` values are built on the first read of ``values``, and the
additive checks read integers over the common denominator straight off the
pairs (``functions.integer_values``).  The rows and values built late are
checked against orders built from covers and tables built eagerly from
their values, and the grid checks are counted to build neither.
"""
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latgames import cli, lattice, properties
from latgames.functions import LatticeFunction, integer_values
from latgames.games import Game
from latgames.generators import all_lattices, chain_lattice, diamond, grid_lattice
from latgames.io import parse, parse_value, save_path
from latgames.lattice import (FiniteLattice, cover_pairs, poset_from_covers, product_lattice,
                              radix_strides)
from latgames.properties import has_increasing_differences, is_supermodular

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from conftest import RATIONAL  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "src" / "latgames" / "corpus" / "data"
GRID_CHECKS = ("qsm", "supermodular", "single-crossing", "incr-diff", "sections-qsm")


def _products():
    small = all_lattices(4)
    yield from ([A, B] for A, B in itertools.product(small, repeat=2))
    yield from ([A, B, C] for A, B, C in itertools.product(all_lattices(3), repeat=3))
    yield [diamond(), chain_lattice(3, labels=["a", "a+", "a++"]), chain_lattice(2)]


def _covers(factors, L):
    """The product's covers as labels: one factor moves up one cover and
    the others stay, placed by radix."""
    lows, highs = cover_pairs(factors)
    return [(L.labels[L.radix[lo]], L.labels[L.radix[hi]]) for lo, hi in zip(lows, highs)]


def test_product_rows_equal_the_order_of_its_covers():
    for factors in _products():
        L = product_lattice(factors)
        strides = radix_strides(factors)
        # the bounds, read first, are the factors' bounds coordinatewise
        assert L.coords[L.bottom] == tuple(f.bottom for f in factors)
        assert L.coords[L.top] == tuple(f.top for f in factors)
        assert L.radix[sum(f.bottom * s for f, s in zip(factors, strides))] == L.bottom
        want = poset_from_covers(L.labels, _covers(factors, L))
        assert L.down == want.down and L.up == want.up  # either row read first
        assert L.cover_indexes == want.cover_indexes
        assert (L.bottom, L.top) == (want.up.index(want.full), want.down.index(want.full))
        again = product_lattice(factors)
        assert again.up == L.up and again == L and hash(again) == hash(L)


def test_a_product_holds_no_rows_until_read():
    L = grid_lattice((3, 4))
    assert L._up is None and L._down is None
    rows = L.up
    assert L._up is rows is L.up and L._down is None  # each row set on its own read
    assert L.down is L._down is not None
    assert repr(L) == "FiniteLattice(12 elements)"
    # any other lattice holds its rows in plain slots from the start
    assert type(chain_lattice(3)) is FiniteLattice and chain_lattice(3).up == (7, 6, 4)


def _grid_document(tmp_path, name, value):
    D = grid_lattice((16, 16))
    f = LatticeFunction(D, RATIONAL,
                        {label: value(a, b) for label, (a, b) in zip(D.labels, D.coords)})
    path = tmp_path / name
    save_path(path, f)
    return str(path)


def test_a_passing_grid_check_builds_no_rows_and_no_fraction(tmp_path, monkeypatch, capsys):
    passing = _grid_document(tmp_path, "pass.json",
                             lambda a, b: Fraction(a * b, 3) + Fraction(a, 2) + b)
    # two steep rows on top of a + b: QSM fails at x = (15,00), y = (14,01)
    failing = _grid_document(tmp_path, "fail.json",
                             lambda a, b: a + b if a < 14 else 40 + (3 if a == 14 else 1) * b)
    rows, fractions = [], []
    up, new = lattice.componentwise_up, Fraction.__new__
    counted = lambda *args, **kwargs: rows.append(1) or up(*args, **kwargs)  # noqa: E731
    monkeypatch.setattr(lattice, "componentwise_up", counted)
    monkeypatch.setattr(properties, "componentwise_up", counted)
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs: (
        fractions.append(1) or new(cls, *args, **kwargs)))
    argv = [a for check in GRID_CHECKS for a in ("--property", check)]
    assert cli.main(["check-function", passing] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.endswith(" PASS") for line in lines), lines
    assert rows == [] and fractions == []
    # the counters do see what a failing check reads
    assert cli.main(["check-function", failing, "--property", "qsm"]) == 1
    assert capsys.readouterr().out == (
        "PROPERTY quasisupermodular FAIL x=(15,00) y=(14,01) clause=weak\n")
    assert len(rows) == 2 and fractions == []  # the witness x's up and down rows
    assert cli.main(["check-function", failing, "--property", "topo-usc"]) == 0
    assert fractions  # the level values of the report


def _documents(tmp_path, names=("order-checks",)):
    """``(path, document)`` of every document of the named workloads, then
    of the corpus."""
    paths = []
    for name in names:
        (tmp_path / name).mkdir()
        workloads.build(name, 0x5EED0006, str(tmp_path / name))
        paths += sorted((tmp_path / name).glob("*.json"))
    paths += sorted(CORPUS.glob("*.json"))
    return [(p, json.loads(p.read_text(encoding="utf-8"))) for p in paths]


def _function_documents(tmp_path):
    return [(p, doc) for p, doc in _documents(tmp_path) if "table" in doc]


def _eager(f, doc):
    """``f``'s table built again by the checking constructor, from the
    document's rows."""
    read = parse_value if f.codomain.is_rational else str
    return LatticeFunction(f.domain, f.codomain,
                           {row["element"]: read(row["value"]) for row in doc["table"]})


def _eager_game(G, doc):
    """``G`` built again from the document's payoff rows, keyed by profile,
    by the validating constructor."""
    payoffs = {}
    for p in G.players:
        read = parse_value if G.codomains[p].is_rational else str
        payoffs[p] = {tuple(row["profile"][q] for q in G.players): read(row["value"])
                      for row in doc["payoffs"][p]}
    return Game(G.players, G.strategies, G.codomains, payoffs)


def _tables(obj) -> list:
    """``(codomain, RankedValues)`` of each table of a function or game."""
    if isinstance(obj, LatticeFunction):
        return [(obj.codomain, obj.ranked)]
    return [(obj.codomains[p], obj.ranked[p]) for p in obj.players]


def test_parsed_tables_equal_tables_built_from_their_values(tmp_path):
    """A table read by ``io`` and one built from the same values agree in
    ranks, image, values and, for rationals, ``integers``, on every
    workload and corpus document."""
    docs = [(p, doc) for p, doc in _documents(tmp_path, workloads.BUILDERS)
            if "table" in doc or "payoffs" in doc]
    assert sum("table" in d for _, d in docs) >= 24 and len(docs) >= 538
    assert any(d["codomain"]["kind"] == "labeled" for _, d in docs if "table" in d)
    for path, doc in docs:
        text = path.read_text(encoding="utf-8")
        obj = parse(text)[1]
        want = _eager(obj, doc) if "table" in doc else _eager_game(obj, doc)
        for (codomain, got), (_, built) in zip(_tables(obj), _tables(want), strict=True):
            assert got.ranks == built.ranks and type(got.ranks) is type(built.ranks), path
            assert got.image == built.image, path
            assert got.values == built.values and type(got.values) is type(built.values), path
            if codomain.is_rational:
                assert got.integers == built.integers, path
        if "table" in doc:
            assert obj.table() == want.table(), path
            # equality and hashing read the values on a function that has not
            assert parse(text)[1] == want and want == parse(text)[1], path
            assert hash(parse(text)[1]) == hash(want), path


def _unreduced(doc, scale):
    """``doc`` with every rational written over ``scale`` times its
    denominator."""
    out = json.loads(json.dumps(doc))
    for row in out["table"]:
        n, d = parse_value(row["value"]).as_integer_ratio()
        row["value"] = f"{n * scale}/{d * scale}"
    return out


def test_the_additive_verdicts_read_off_the_pairs_equal_the_fraction_path(tmp_path, monkeypatch):
    docs = [doc for _, doc in _function_documents(tmp_path)
            if doc["codomain"]["kind"] == "rational" and "product" in doc["domain"]]
    assert len(docs) >= 9
    # Every value over 2**64 times its denominator: the parsed pairs have a
    # common denominator past 2**64 and no integer form, the eager values do.
    wide = [_unreduced(doc, 1 << 64) for doc in docs]
    functions = [parse(json.dumps(doc))[1] for doc in docs + wide]
    assert all(integer_values(f) is not None for f in functions[:len(docs)])
    assert all(integer_values(f) is None for f in functions[len(docs):])
    eager = [_eager(f, doc) for f, doc in zip(functions[len(docs):], wide)]
    assert all(integer_values(f) is not None for f in eager)

    def verdicts(fs):
        out = []
        for f in fs:
            out.append(is_supermodular(f))
            out += [has_increasing_differences(f, split=s) for s in range(len(f.domain.factors))]
        return out

    got = verdicts(functions)
    assert not all(v.holds for v in got) and any(v.holds for v in got)
    assert got[:len(got) // 2] == got[len(got) // 2:] == verdicts(eager)
    fresh = [parse(json.dumps(doc))[1] for doc in docs]
    monkeypatch.setattr(properties, "integer_values", lambda f: None)
    assert verdicts(fresh) == got[:len(got) // 2]
