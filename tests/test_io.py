"""parsing, validation errors, canonical round-trips."""
import copy
import json
from fractions import Fraction

import pytest

from latgames.cli import main
from latgames.corpus import DATA
from latgames.errors import InvariantViolation, NotALattice, ParseError
from latgames.io import (
    canonical_dumps,
    lattice_obj,
    parse,
    parse_value,
    serialize,
)

DIAMOND_DOC = {
    "elements": ["0", "1", "a", "b"],
    "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
}

FUNCTION_DOC = {
    "domain": DIAMOND_DOC,
    "codomain": {"kind": "rational"},
    "table": [
        {"element": "0", "value": "1/2"},
        {"element": "1", "value": 2},
        {"element": "a", "value": "3"},
        {"element": "b", "value": "-1/3"},
    ],
}

GAME_DOC = {
    "players": ["left", "right"],
    "strategies": {
        "left": {"elements": ["d", "u"], "covers": [["d", "u"]]},
        "right": {"elements": ["d", "u"], "covers": [["d", "u"]]},
    },
    "codomains": {"left": {"kind": "rational"}, "right": {"kind": "rational"}},
    "payoffs": {
        "left": [
            {"profile": {"left": "d", "right": "d"}, "value": 0},
            {"profile": {"left": "d", "right": "u"}, "value": 0},
            {"profile": {"left": "u", "right": "d"}, "value": 1},
            {"profile": {"left": "u", "right": "u"}, "value": 2},
        ],
        "right": [
            {"profile": {"left": "d", "right": "d"}, "value": 0},
            {"profile": {"left": "d", "right": "u"}, "value": 1},
            {"profile": {"left": "u", "right": "d"}, "value": 0},
            {"profile": {"left": "u", "right": "u"}, "value": 3},
        ],
    },
}


class TestValues:
    def test_parse_forms(self):
        assert parse_value(3) == Fraction(3)
        assert parse_value("3") == Fraction(3)
        assert parse_value("-2/6") == Fraction(-1, 3)

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            parse_value(0.5)
        with pytest.raises(ParseError):
            parse_value(True)
        with pytest.raises(ParseError):
            parse_value("1/0")

    def test_rational_codomain_keeps_fractions(self):
        from latgames import ChainCodomain

        rational = ChainCodomain.rational()
        value = Fraction(1, 3)
        assert rational.validate(value) is value
        assert type(rational.validate(2)) is Fraction and rational.validate(2) == 2
        with pytest.raises(InvariantViolation):
            rational.validate(True)

    def test_format(self):
        doc = copy.deepcopy(FUNCTION_DOC)
        doc["table"][1]["value"] = "4/2"
        doc["table"][3]["value"] = "-2/6"
        rows = json.loads(serialize(parse(json.dumps(doc))[1]))["table"]
        assert [r["value"] for r in rows] == ["1/2", "2", "3", "-1/3"]
        doc = copy.deepcopy(GAME_DOC)
        doc["payoffs"]["left"][3]["value"] = "4/2"
        doc["payoffs"]["right"][3]["value"] = "-2/6"
        payoffs = json.loads(serialize(parse(json.dumps(doc))[1]))["payoffs"]
        assert [r["value"] for r in payoffs["left"]] == ["0", "0", "1", "2"]
        assert [r["value"] for r in payoffs["right"]] == ["0", "1", "0", "-1/3"]


class TestLatticeDocs:
    def test_parse_diamond(self):
        kind, L = parse(json.dumps(DIAMOND_DOC))
        assert kind == "lattice"
        assert L.meet_label("a", "b") == "0"

    def test_empty_elements(self):
        with pytest.raises(ParseError):
            parse(json.dumps({"elements": [], "covers": []}))

    def test_not_a_lattice_keeps_witness(self):
        doc = {"elements": ["x", "y"], "covers": []}
        with pytest.raises(NotALattice) as err:
            parse(json.dumps(doc))
        assert err.value.pair == ("x", "y")

    def test_product_form_preserves_factors(self, veinott_domain):
        text = serialize(veinott_domain)
        kind, back = parse(text)
        assert kind == "lattice"
        assert back == veinott_domain
        assert back.factors is not None and len(back.factors) == 2
        assert serialize(back) == text

    def test_duplicate_label(self):
        with pytest.raises(ParseError):
            parse(json.dumps({"elements": ["x", "x"], "covers": []}))


class TestFunctionDocs:
    def test_round_trip(self):
        kind, f = parse(json.dumps(FUNCTION_DOC))
        assert kind == "function"
        assert f.value("0") == Fraction(1, 2)
        text = serialize(f)
        kind2, back = parse(text)
        assert back == f
        assert serialize(back) == text

    def test_missing_entry(self):
        doc = dict(FUNCTION_DOC, table=FUNCTION_DOC["table"][:-1])
        with pytest.raises(ParseError):
            parse(json.dumps(doc))

    def test_duplicate_entry(self):
        doc = dict(FUNCTION_DOC, table=FUNCTION_DOC["table"] + [FUNCTION_DOC["table"][0]])
        with pytest.raises(ParseError):
            parse(json.dumps(doc))

    def test_labeled_codomain_round_trip(self):
        doc = {
            "domain": {"elements": ["p", "q"], "covers": [["p", "q"]]},
            "codomain": {"kind": "labeled", "labels": ["low", "high"]},
            "table": [{"element": "p", "value": "low"}, {"element": "q", "value": "high"}],
        }
        kind, f = parse(json.dumps(doc))
        assert f.codomain.labels == ("low", "high")
        assert parse(serialize(f))[1] == f

    def test_value_off_the_chain(self):
        doc = {
            "domain": {"elements": ["p"], "covers": []},
            "codomain": {"kind": "labeled", "labels": ["low"]},
            "table": [{"element": "p", "value": "huge"}],
        }
        with pytest.raises(ParseError):
            parse(json.dumps(doc))


class TestGameDocs:
    def test_round_trip(self):
        kind, G = parse(json.dumps(GAME_DOC))
        assert kind == "game"
        assert G.players == ("left", "right")
        text = serialize(G)
        kind2, back = parse(text)
        assert back.players == G.players
        assert back.payoffs == G.payoffs
        assert serialize(back) == text

    def test_missing_profile(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["payoffs"]["left"] = doc["payoffs"]["left"][:-1]
        with pytest.raises(ParseError):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("path", sorted(DATA.glob("game_*.json")), ids=lambda p: p.stem)
    def test_topologies_key_is_ignored(self, path, tmp_path, capsys):
        # a game declares no topologies: a valid or a malformed key changes
        # neither the reports nor the exit codes, and is not written back
        doc = json.loads(path.read_text())
        _, G = parse(path.read_text())
        valid = {p: {"kind": "explicit", "closed_sets": [[], list(G.strategies[p].labels)]}
                 for p in G.players}
        no_empty_set = {p: {"kind": "explicit", "closed_sets": [list(G.strategies[p].labels)]}
                        for p in G.players}
        commands = (("solve", "--method", "both"), ("verify", "--theorem", "zhou"))

        def outputs(file):
            return [(main([command, str(file), *rest]), capsys.readouterr().out)
                    for command, *rest in commands]

        expected = outputs(path)
        for topologies in (valid, no_empty_set):
            edited = tmp_path / path.name
            edited.write_text(json.dumps(dict(doc, topologies=topologies)))
            assert outputs(edited) == expected
            assert "topologies" not in json.loads(serialize(parse(edited.read_text())[1]))

    def test_player_order_is_semantic(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["players"] = ["right", "left"]
        kind, G = parse(json.dumps(doc))
        assert G.players == ("right", "left")
        # serialization preserves declaration order bit-exactly
        assert json.loads(serialize(G))["players"] == ["right", "left"]


def _game_doc(edit, player="left", labeled=False):
    doc = copy.deepcopy(GAME_DOC)
    if labeled:
        doc["codomains"][player] = {"kind": "labeled", "labels": ["lo", "hi"]}
        for row in doc["payoffs"][player]:
            row["value"] = "lo"
    edit(doc["payoffs"][player])
    return doc


def _function_doc(edit):
    doc = copy.deepcopy(FUNCTION_DOC)
    edit(doc["table"])
    return doc


def _payoffs_doc(edit):
    doc = copy.deepcopy(GAME_DOC)
    edit(doc["payoffs"])
    return doc


def _and_rows(doc, edit, player="right"):
    """``doc`` with ``edit`` applied to another player's rows as well."""
    edit(doc["payoffs"][player])
    return doc


def _set(k, row):
    return lambda rows: rows.__setitem__(k, row)


def _set_value(k, value):
    return lambda rows: rows[k].__setitem__("value", value)


DD = {"left": "d", "right": "d"}
ZD = {"left": "z", "right": "d"}
G = "ERROR ParseError: game.payoffs[left]: "
TOTAL = "ERROR ParseError: game: payoff table for player 'left' must be total over the joint profiles; "

# (case, command, document, the exact output line); every case exits 2.
MALFORMED_TABLES = [
    ("row-not-object", "check-game", _game_doc(_set(0, 5)), G + "missing field 'profile'"),
    ("row-without-profile", "check-game", _game_doc(_set(0, {"value": 0})),
     G + "missing field 'profile'"),
    ("row-without-value", "check-game", _game_doc(_set(0, {"profile": DD})),
     G + "missing field 'value'"),
    ("profile-not-object", "check-game", _game_doc(_set(0, {"profile": ["d", "d"], "value": 0})),
     G + "field 'profile' has the wrong type"),
    ("missing-coordinate", "check-game", _game_doc(_set(0, {"profile": {"left": "d"}, "value": 0})),
     G + "profile missing coordinate 'right'"),
    ("extra-player", "check-game",
     _game_doc(_set(0, {"profile": {"left": "d", "right": "d", "other": "d"}, "value": 0})),
     G + "profile names unknown players"),
    ("coordinate-not-string", "check-game",
     _game_doc(_set(0, {"profile": {"left": 1, "right": "d"}, "value": 0})),
     G + "profile coordinates must be a list of label strings"),
    ("unknown-label", "check-game",
     _game_doc(_set(0, {"profile": {"left": "z", "right": "d"}, "value": 0})),
     TOTAL + "missing e.g. [('d', 'd')], unknown e.g. [('z', 'd')]"),
    ("duplicate-profile", "check-game", _game_doc(_set(1, {"profile": DD, "value": 0})),
     G + "duplicate profile ('d', 'd')"),
    ("not-total", "check-game", _game_doc(lambda rows: rows.pop(1)),
     TOTAL + "missing e.g. [('d', 'u')], unknown e.g. []"),
    ("value-1/0", "check-game", _game_doc(_set_value(0, "1/0")),
     "ERROR ParseError: cannot read '1/0' as an exact rational"),
    ("value-x", "check-game", _game_doc(_set_value(0, "x")),
     "ERROR ParseError: cannot read 'x' as an exact rational"),
    ("value-float", "check-game", _game_doc(_set_value(0, 1.5)),
     'ERROR ParseError: floating-point values are rejected; use exact "p/q" strings'),
    ("value-true", "check-game", _game_doc(_set_value(0, True)),
     "ERROR ParseError: boolean True is not a rational value"),
    ("value-list", "check-game", _game_doc(_set_value(1, [1])),
     "ERROR ParseError: cannot read [1] as an exact rational"),
    ("value-1-after-true", "check-game",
     _game_doc(lambda rows: (_set_value(0, "1")(rows), _set_value(1, True)(rows))),
     "ERROR ParseError: boolean True is not a rational value"),
    # a bad value anywhere is reported before a table that is not total
    ("unknown-label-then-bad-value", "check-game",
     _game_doc(lambda rows: (_set(0, {"profile": {"left": "z", "right": "d"}, "value": 0})(rows),
                             _set_value(3, "x")(rows))),
     "ERROR ParseError: cannot read 'x' as an exact rational"),
    ("bad-value-of-second-player", "check-game", _game_doc(_set_value(2, "1/0"), player="right"),
     "ERROR ParseError: cannot read '1/0' as an exact rational"),
    ("labeled-off-chain", "check-game", _game_doc(_set_value(2, "mid"), labeled=True),
     "ERROR ParseError: game: value 'mid' is not on the labeled chain"),
    ("labeled-not-string", "check-game", _game_doc(_set_value(2, 3), labeled=True),
     G + "labeled values must be strings"),
    # each row is checked in document order, and a table that is not total is
    # reported only after every row of every player has been read
    ("unknown-label-duplicate", "check-game",
     _game_doc(lambda rows: (_set(0, {"profile": ZD, "value": 0})(rows),
                             _set(1, {"profile": ZD, "value": 1})(rows))),
     G + "duplicate profile ('z', 'd')"),
    ("coordinate-not-string-and-extra-player", "check-game",
     _game_doc(_set(0, {"profile": {"left": 1, "right": "d", "other": "d"}, "value": 0})),
     G + "profile coordinates must be a list of label strings"),
    ("not-total-then-missing-coordinate", "check-game",
     _and_rows(_game_doc(lambda rows: rows.pop(1)), _set(0, {"profile": {"left": "d"}, "value": 0})),
     "ERROR ParseError: game.payoffs[right]: profile missing coordinate 'right'"),
    ("labeled-off-chain-then-not-total", "check-game",
     _and_rows(_game_doc(_set_value(2, "mid"), labeled=True), lambda rows: rows.pop(1)),
     "ERROR ParseError: game: value 'mid' is not on the labeled chain"),
    ("not-total-then-labeled-off-chain", "check-game",
     _and_rows(_game_doc(_set_value(2, "mid"), player="right", labeled=True),
               lambda rows: rows.pop(1), player="left"),
     TOTAL + "missing e.g. [('d', 'u')], unknown e.g. []"),
    ("unknown-label-without-value", "check-game", _game_doc(_set(0, {"profile": ZD})),
     G + "missing field 'value'"),
    ("duplicate-with-bad-value", "check-game", _game_doc(_set(1, {"profile": DD, "value": "x"})),
     G + "duplicate profile ('d', 'd')"),
    ("duplicate-without-value", "check-game", _game_doc(_set(1, {"profile": DD})),
     G + "duplicate profile ('d', 'd')"),
    ("payoffs-missing-player", "check-game", _payoffs_doc(lambda payoffs: payoffs.pop("right")),
     "ERROR ParseError: game.payoffs: missing field 'right'"),
    ("rows-not-list", "check-game",
     _payoffs_doc(lambda payoffs: payoffs.__setitem__("right", {"profile": DD, "value": 0})),
     "ERROR ParseError: game.payoffs: field 'right' has the wrong type"),
    ("coordinate-list", "check-game",
     _game_doc(_set(0, {"profile": {"left": ["d"], "right": "d"}, "value": 0})),
     G + "profile coordinates must be a list of label strings"),
    ("function-row-not-object", "check-function", _function_doc(_set(0, 7)),
     "ERROR ParseError: function.table: missing field 'element'"),
    ("function-element-not-string", "check-function",
     _function_doc(_set(0, {"element": 0, "value": 1})),
     "ERROR ParseError: function.table: field 'element' has the wrong type"),
    ("function-row-without-value", "check-function", _function_doc(_set(0, {"element": "0"})),
     "ERROR ParseError: function.table: missing field 'value'"),
    ("function-duplicate", "check-function", _function_doc(_set(1, {"element": "0", "value": 1})),
     "ERROR ParseError: function: duplicate table entry for '0'"),
    ("function-unknown-element", "check-function",
     _function_doc(_set(1, {"element": "z", "value": 1})),
     "ERROR ParseError: function: function table must be total: missing entries for ['1']; "
     "entries for unknown elements ['z']"),
    ("function-not-total", "check-function", _function_doc(lambda rows: rows.pop(2)),
     "ERROR ParseError: function: function table must be total: missing entries for ['a']"),
    ("function-value-1/0", "check-function", _function_doc(_set_value(1, "1/0")),
     "ERROR ParseError: cannot read '1/0' as an exact rational"),
    ("function-value-list", "check-function", _function_doc(_set_value(1, [1])),
     "ERROR ParseError: cannot read [1] as an exact rational"),
]


@pytest.mark.parametrize("command, doc, line", [case[1:] for case in MALFORMED_TABLES],
                         ids=[case[0] for case in MALFORMED_TABLES])
def test_malformed_table_messages(tmp_path, capsys, command, doc, line):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().out == line + "\n"


class TestCanonicalForm:
    def test_dumps_is_stable(self):
        obj = {"b": ["2", "1"], "a": {"y": "1", "x": "2"}}
        assert canonical_dumps(obj) == canonical_dumps(json.loads(canonical_dumps(obj)))

    def test_covers_normalize_to_transitive_reduction(self):
        doc = {"elements": ["0", "1", "2"],
               "covers": [["0", "1"], ["1", "2"], ["0", "2"]]}
        kind, L = parse(json.dumps(doc))
        assert lattice_obj(L)["covers"] == [["0", "1"], ["1", "2"]]

    @pytest.mark.parametrize("kind", ["interval", "discrete"])
    def test_topology_round_trip(self, kind):
        text = canonical_dumps({"kind": kind})
        assert parse(text)[0] == "topology"
        assert serialize(parse(text)[1]) == text

    def test_detect_unknown_document(self):
        with pytest.raises(ParseError):
            parse(json.dumps({"what": 1}))
        with pytest.raises(ParseError):
            parse("not json")
