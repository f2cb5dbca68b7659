"""parsing, validation errors, canonical round-trips."""
import json
from fractions import Fraction

import pytest

from latgames.errors import InvariantViolation, NotALattice, ParseError
from latgames.io import (
    canonical_dumps,
    format_value,
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
        assert format_value(Fraction(4, 2)) == "2"
        assert format_value(Fraction(-1, 3)) == "-1/3"


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

    def test_topologies_round_trip(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["topologies"] = {"left": {"kind": "discrete"},
                             "right": {"kind": "explicit",
                                       "closed_sets": [[], ["d"], ["d", "u"]]}}
        kind, G = parse(json.dumps(doc))
        assert G.topologies["left"].kind == "discrete"
        text = serialize(G)
        assert parse(text)[1].topologies == G.topologies

    def test_bad_explicit_topology_rejected(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["topologies"] = {"left": {"kind": "explicit",
                                      "closed_sets": [["d"], ["d", "u"]]}}  # no empty set
        with pytest.raises(ParseError):
            parse(json.dumps(doc))

    def test_player_order_is_semantic(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["players"] = ["right", "left"]
        kind, G = parse(json.dumps(doc))
        assert G.players == ("right", "left")
        # serialization preserves declaration order bit-exactly
        assert json.loads(serialize(G))["players"] == ["right", "left"]


class TestCanonicalForm:
    def test_dumps_is_stable(self):
        obj = {"b": [2, 1], "a": {"y": 1, "x": 2}}
        assert canonical_dumps(obj) == canonical_dumps(json.loads(canonical_dumps(obj)))

    def test_covers_normalize_to_transitive_reduction(self):
        doc = {"elements": ["0", "1", "2"],
               "covers": [["0", "1"], ["1", "2"], ["0", "2"]]}
        kind, L = parse(json.dumps(doc))
        assert lattice_obj(L)["covers"] == [["0", "1"], ["1", "2"]]

    def test_detect_unknown_document(self):
        with pytest.raises(ParseError):
            parse(json.dumps({"what": 1}))
        with pytest.raises(ParseError):
            parse("not json")
