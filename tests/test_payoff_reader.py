"""The payoff reader of ``io.parse`` against ``oracle_parse_game``, the
row-by-row reader it replaced: on mutated payoff rows of the corpus games
and on the criterion-06 games read back, both give the same ``ParseError``
text or equal players, values and ranks."""
from __future__ import annotations

import copy
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_parse_game
from latgames.corpus import DATA
from latgames.errors import ParseError
from latgames.io import detect_kind, parse, serialize

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
