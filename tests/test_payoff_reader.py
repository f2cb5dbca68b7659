"""The payoff reader of ``io.parse`` against ``oracle_parse_game``, the
row-by-row reader it replaced: on mutated payoff rows of the corpus games,
on the criterion-06 games read back and on hand-made value spellings, both
give the same ``ParseError`` text or equal players, values and ranks.  A
valid document is read by the column pass alone, and a parsed game builds
its exact ``values`` only when something reads them."""
from __future__ import annotations

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_parse_game
from latgames import io
from latgames.cli import main
from latgames.corpus import DATA
from latgames.errors import ParseError
from latgames.functions import RankedValues
from latgames.generators import random_game, random_strictly_increasing_map
from latgames.io import detect_kind, parse, serialize
from latgames.rng import Xoshiro256StarStar

GAMES = {}
for path in sorted(DATA.glob("*.json")):
    doc = json.loads(path.read_text())
    if detect_kind(doc) == "game":
        GAMES[path.stem] = doc

BAD_VALUES = ("x", "1/0", 1.5, True, [1], "mid")


def outcome(read, text):
    """The error text, or the game's players, values and ranks."""
    try:
        G = read(text)
    except ParseError as exc:
        return str(exc)
    return G.players, G.values, G.ranks


def assert_same_reading(text):
    got = outcome(lambda t: parse(t)[1], text)
    assert got == outcome(lambda t: oracle_parse_game(json.loads(t)), text)
    return got


def _labeled(doc, player):
    """The player's codomain as a labeled chain of its values, in order."""
    rows = doc["payoffs"][player]
    labels = sorted({row["value"] for row in rows}, key=Fraction)
    doc["codomains"][player] = {"kind": "labeled", "labels": [f"v{k}" for k in range(len(labels))]}
    for row in rows:
        row["value"] = f"v{labels.index(row['value'])}"


@st.composite
def mutated_games(draw):
    doc = copy.deepcopy(GAMES[draw(st.sampled_from(sorted(GAMES)))])
    players = doc["players"]
    for p in players:
        if draw(st.integers(0, 3)) == 0:
            _labeled(doc, p)
    for _ in range(draw(st.integers(1, 3))):
        rows = doc["payoffs"][draw(st.sampled_from(players))]
        if not rows:
            continue
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        action = draw(st.sampled_from(["delete", "duplicate", "replace", "swap", "rename",
                                       "remove", "non-string", "list", "extra", "label",
                                       "value", "no-value"]))
        if action == "delete":
            del rows[k]
        elif action == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[j], rows[k] = rows[k], rows[j]
        elif action == "duplicate":
            twin = copy.deepcopy(row)
            if isinstance(twin, dict) and draw(st.booleans()):
                twin["value"] = draw(st.sampled_from(BAD_VALUES))
            rows.insert(draw(st.integers(0, len(rows))), twin)
        elif action == "replace":
            rows[k] = draw(st.sampled_from([5, None, [], {}, {"value": 0},
                                            copy.deepcopy(rows[-1])]))
        elif not isinstance(row, dict) or not isinstance(row.get("profile"), dict):
            continue
        elif action == "value":
            row["value"] = draw(st.sampled_from(BAD_VALUES))
        elif action == "no-value":
            row.pop("value", None)
        elif action == "extra":
            row["profile"]["other"] = draw(st.sampled_from(["0", "z"]))
        else:
            profile = row["profile"]
            q = draw(st.sampled_from(players))
            if q not in profile:
                continue
            if action == "rename":
                profile["z"] = profile.pop(q)
            elif action == "remove":
                del profile[q]
            elif action == "non-string":
                profile[q] = 0
            elif action == "list":
                profile[q] = [profile[q]]
            else:
                labels = doc["strategies"][q].get("elements", [])
                profile[q] = draw(st.sampled_from(["z"] + labels))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=mutated_games())
def test_mutated_payoff_rows_read_as_the_oracle_reads_them(doc):
    assert_same_reading(json.dumps(doc))


def test_criterion_06_games_read_back_as_the_oracle_reads_them(criterion_06_games):
    for G in criterion_06_games:
        players, values, ranks = assert_same_reading(serialize(G))
        assert (players, values, ranks) == (G.players, G.values, G.ranks)


@pytest.fixture
def no_row_loop(monkeypatch):
    """Make the row-by-row fault finder raise: the document must be read by
    the column pass alone."""
    def refuse(*args):
        raise AssertionError("a valid document entered the row loop")

    monkeypatch.setattr(io, "_table_rows", refuse)


@pytest.fixture
def values_built(monkeypatch):
    """The tables whose exact values were built, one entry per build of a
    table's ``image``, which is where its ``Fraction``s are made."""
    built = []
    image = RankedValues.__dict__["image"]
    build = image.func

    def counting(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(image, "func", counting)
    return built


def chain_game(values) -> dict:
    """A one-player game on a chain with one strategy per value."""
    labels = [f"s{k}" for k in range(len(values))]
    return {"players": ["p"],
            "strategies": {"p": {"elements": labels, "covers": [list(c) for c in zip(labels, labels[1:])]}},
            "codomains": {"p": {"kind": "rational"}},
            "payoffs": {"p": [{"profile": {"p": s}, "value": v} for s, v in zip(labels, values)]}}


def shuffled(doc, seed) -> dict:
    doc = copy.deepcopy(doc)
    for rows in doc["payoffs"].values():
        random.Random(seed).shuffle(rows)
    return doc


def test_spellings_of_one_value_share_a_rank(no_row_loop):
    text = json.dumps(chain_game(["1/2", "2/4", " 1/2 ", "0.5", "5e-1", 1, "1", "-3/6"]))
    _, values, ranks = assert_same_reading(text)
    assert ranks["p"] == [1, 1, 1, 1, 1, 2, 2, 0]
    assert values["p"] == [Fraction(1, 2)] * 5 + [1, 1, Fraction(-1, 2)]


def test_denominators_past_two_to_the_64_rank_exactly(no_row_loop):
    # lcm(2**40, 3**30) is about 2**87.5; 3/3**31 and 1/3**30 are one value
    values = ["1/1099511627776", "1/205891132094649", "3/617673396283947", "-1/3",
              "2/2", "0", "1/205891132094650", "2/2199023255552"]
    _, got, ranks = assert_same_reading(json.dumps(chain_game(values)))
    distinct = sorted(set(map(Fraction, values)))
    assert ranks["p"] == [distinct.index(Fraction(v)) for v in values]
    assert got["p"] == list(map(Fraction, values))


def test_valid_documents_are_read_by_columns_in_any_row_order(no_row_loop, criterion_06_games):
    docs = list(GAMES.values()) + [json.loads(serialize(G)) for G in criterion_06_games[:100]]
    for k, doc in enumerate(docs):
        canonical = assert_same_reading(json.dumps(doc))
        assert assert_same_reading(json.dumps(shuffled(doc, k))) == canonical


def test_labeled_and_faulty_tables_read_as_the_oracle_reads_them():
    doc = GAMES["game_step_grid6"]
    labeled = copy.deepcopy(doc)
    _labeled(labeled, labeled["players"][0])
    assert isinstance(assert_same_reading(json.dumps(shuffled(labeled, 1))), tuple)
    short, unknown, off_chain = (copy.deepcopy(labeled) for _ in range(3))
    p = labeled["players"][0]
    del short["payoffs"][p][3]
    unknown["payoffs"][p][3]["profile"][p] = "z"
    off_chain["payoffs"][p][3]["value"] = "v999"
    for faulty, fault in ((short, "must be total"), (unknown, "must be total"),
                          (off_chain, "is not on the labeled chain")):
        assert fault in assert_same_reading(json.dumps(faulty))


def test_solve_and_zhou_never_build_values(tmp_path, capsys, values_built, criterion_06_games):
    paths = [DATA / f"{name}.json" for name in GAMES]
    for k, G in enumerate(criterion_06_games[:60]):
        paths.append(tmp_path / f"g{k}.json")
        paths[-1].write_text(serialize(G))
    for path in paths:
        main(["solve", str(path), "--method", "both"])
        main(["verify", str(path), "--theorem", "zhou"])
        main(["check-game", str(path)])
    capsys.readouterr()
    assert values_built == []
    G = parse(paths[-1].read_text())[1]
    serialize(G)
    serialize(G)
    assert values_built == [G.ranked[p] for p in G.players]


def test_transformed_builds_no_fraction_for_the_other_players(values_built, criterion_06_games):
    rng = Xoshiro256StarStar(0x5EED_0033)
    for made in criterion_06_games[:40]:
        G = parse(serialize(made))[1]
        p = G.players[rng.below(len(G.players))]
        t = random_strictly_increasing_map(rng, made.ranked[p].image)
        values_built.clear()
        H = G.transformed(p, t)
        assert values_built == [G.ranked[p]]
        assert all(H.ranked[q] is G.ranked[q] for q in G.players if q != p)
        assert H.values[p] == [t[v] for v in made.values[p]]


def test_parsed_games_write_back_byte_identical(criterion_06_games):
    texts = [(DATA / f"{name}.json").read_text() for name in GAMES]
    texts += [serialize(G) for G in criterion_06_games]
    for text in texts:
        assert serialize(parse(text)[1]) == text


def test_readers_of_exact_values_get_fractions():
    rng = Xoshiro256StarStar(0x5EED_0020)
    for _ in range(20):
        made = random_game(rng, max_players=3, max_size=4)
        G = parse(serialize(made))[1]
        p = G.players[-1]
        assert all(type(v) is Fraction for v in made.values[p])
        assert all(type(v) is Fraction for v in G.payoffs[p].values())
        H = G.transformed(p, random_strictly_increasing_map(rng, set(G.values[p])))
        assert all(type(v) is Fraction for q in H.players for v in H.values[q])
        assert (H.ranks, G.values) == (G.ranks, made.values)
