"""The table reader of ``io.parse`` for function documents against
``oracle_parse_function``, the row-by-row reader it replaced: on the corpus
functions, on seeded mutations of their rows, on labeled tables and on
hand-made value spellings, both give the same ``ParseError`` text or equal
functions (``==``, ``hash``, exact ``values`` and ``keys``).  A valid
document is read by the column pass alone."""
from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

from conftest import oracle_parse_function
from latgames import io
from latgames.corpus import DATA
from latgames.errors import ParseError
from latgames.generators import (SUPERMODULAR_THEN_TRANSFORM, all_lattices, grid_lattice,
                                 random_function)
from latgames.io import detect_kind, parse, serialize
from latgames.rng import Xoshiro256StarStar

FUNCTIONS = {}
for path in sorted(DATA.glob("*.json")):
    doc = json.loads(path.read_text())
    if detect_kind(doc) == "function":
        FUNCTIONS[path.stem] = doc

BAD_VALUES = (None, 1.5, True, "1/0", [1], "x")
BAD_ELEMENTS = ("z", 0, None, ["a"])
FAULTS = ("duplicate table entry", "must be total", "missing field", "wrong type",
          "as an exact rational", "floating-point", "boolean", "labeled values must be strings",
          "is not on the labeled chain")


def outcome(read, text):
    """The error text, or the function with its hash, values, value types
    and keys."""
    try:
        f = read(text)
    except ParseError as exc:
        return str(exc)
    return f, hash(f), f.values, list(map(type, f.values)), f.keys


def assert_same_reading(text):
    got = outcome(lambda t: parse(t)[1], text)
    assert got == outcome(lambda t: oracle_parse_function(json.loads(t)), text)
    return got


@pytest.fixture
def no_row_loop(monkeypatch):
    """Make the row-by-row fault finder raise: the document must be read by
    the column pass alone."""
    def refuse(*args):
        raise AssertionError("a valid document entered the row loop")

    monkeypatch.setattr(io, "_table_rows", refuse)


def chain_function(values) -> dict:
    """A function on a chain with one element per value."""
    labels = [f"s{k}" for k in range(len(values))]
    return {"domain": {"elements": labels, "covers": [list(c) for c in zip(labels, labels[1:])]},
            "codomain": {"kind": "rational"},
            "table": [{"element": s, "value": v} for s, v in zip(labels, values)]}


def _labeled(doc) -> dict:
    """The document with its rational values renamed to a labeled chain of
    them, in order."""
    doc = copy.deepcopy(doc)
    values = sorted({row["value"] for row in doc["table"]}, key=Fraction)
    doc["codomain"] = {"kind": "labeled", "labels": [f"v{k}" for k in range(len(values))]}
    for row in doc["table"]:
        row["value"] = f"v{values.index(row['value'])}"
    return doc


def mutations(doc, rng):
    """Seeded faulty copies of ``doc``: each row dropped or duplicated (the
    twin's value kept or made bad), an unknown or non-string element, a
    bad value, a row that is not an object, and a missing field."""
    rows = doc["table"]
    for action in ("drop", "duplicate", "element", "value", "not-object", "no-field"):
        faulty = copy.deepcopy(doc)
        table = faulty["table"]
        k = rng.below(len(rows))
        if action == "drop":
            del table[k]
        elif action == "duplicate":
            twin = copy.deepcopy(table[k])
            if rng.chance(1, 2):
                twin["value"] = rng.choice(BAD_VALUES)
            table.insert(rng.below(len(table) + 1), twin)
        elif action == "element":
            table[k]["element"] = rng.choice(BAD_ELEMENTS)
        elif action == "value":
            table[k]["value"] = rng.choice(BAD_VALUES)
        elif action == "not-object":
            table[k] = rng.choice((5, None, [], "row"))
        else:
            del table[k][rng.choice(("element", "value"))]
        yield faulty


def test_corpus_functions_are_read_by_columns(no_row_loop):
    assert len(FUNCTIONS) == 12
    for doc in FUNCTIONS.values():
        f = assert_same_reading(json.dumps(doc))[0]
        assert serialize(f) == serialize(oracle_parse_function(doc))


@pytest.mark.parametrize("labeled", [False, True], ids=["rational", "labeled"])
def test_seeded_mutations_read_as_the_oracle_reads_them(labeled):
    rng = Xoshiro256StarStar(0xF0_0027)
    texts = set()
    for doc in FUNCTIONS.values():
        doc = _labeled(doc) if labeled and doc["codomain"]["kind"] == "rational" else doc
        for _ in range(8):
            for faulty in mutations(doc, rng):
                got = assert_same_reading(json.dumps(faulty))
                if isinstance(got, str):
                    texts.add(got)
    seen = {fault for fault in FAULTS if any(fault in text for text in texts)}
    assert len(seen) >= 6, seen


def test_every_bad_value_and_element_reads_as_the_oracle_reads_it():
    doc = FUNCTIONS["veinott_single_crossing"]
    for k in (0, len(doc["table"]) - 1):
        for field, bad in [("value", v) for v in BAD_VALUES] + [("element", e) for e in BAD_ELEMENTS]:
            faulty = copy.deepcopy(doc)
            faulty["table"][k][field] = bad
            assert isinstance(assert_same_reading(json.dumps(faulty)), str), (field, bad)


def test_labeled_values_off_the_chain_read_as_the_oracle_reads_them(no_row_loop):
    doc = FUNCTIONS["labeled_gains"]
    for row in range(len(doc["table"])):
        faulty = copy.deepcopy(doc)
        faulty["table"][row]["value"] = "top"
        assert "'top' is not on the labeled chain" in assert_same_reading(json.dumps(faulty))
    labeled = _labeled(FUNCTIONS["single_crossing_not_increasing_differences"])
    labeled["table"].reverse()
    assert not isinstance(assert_same_reading(json.dumps(labeled)), str)


def test_spellings_of_one_value_share_a_rank(no_row_loop):
    text = json.dumps(chain_function(["1/2", "2/4", "0.5", " 1/2 ", 1, "1", "-3/6", "5e-1"]))
    f, _, values, types, keys = assert_same_reading(text)
    assert keys == (1, 1, 1, 1, 2, 2, 0, 1)
    assert values == (Fraction(1, 2),) * 4 + (1, 1, Fraction(-1, 2), Fraction(1, 2))
    assert set(types) == {Fraction}


def test_denominators_past_two_to_the_64_rank_exactly(no_row_loop):
    # lcm(2**40, 3**30) is about 2**87.5; 3/3**31 and 1/3**30 are one value
    values = ["1/1099511627776", "1/205891132094649", "3/617673396283947", "-1/3",
              "2/2", "0", "1/205891132094650", "2/2199023255552"]
    _, _, got, _, keys = assert_same_reading(json.dumps(chain_function(values)))
    distinct = sorted(set(map(Fraction, values)))
    assert keys == tuple(distinct.index(Fraction(v)) for v in values)
    assert got == tuple(map(Fraction, values))


def test_generated_functions_are_read_by_columns_in_any_row_order(no_row_loop):
    rng = Xoshiro256StarStar(0xF0_0028)
    domains = list(all_lattices(5)) + [grid_lattice((4, 5)), grid_lattice((2, 3, 2))]
    for L in domains:
        f = random_function(rng, L, SUPERMODULAR_THEN_TRANSFORM)
        doc = json.loads(serialize(f))
        assert assert_same_reading(json.dumps(doc))[0] == f
        rng.shuffle(doc["table"])
        assert assert_same_reading(json.dumps(doc))[0] == f


def test_values_that_hash_like_an_earlier_int_are_still_faults():
    # True == 1 and 1.0 == 1, so one memo of distinct values would read
    # them as the int before them.
    for bad in (True, 1.0, False, 0.0):
        text = json.dumps(chain_function([0, 1, bad]))
        assert isinstance(assert_same_reading(text), str), bad
