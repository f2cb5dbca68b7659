"""The one column reader of ``io.parse`` on both kinds of table: a
one-player game and a function document over the same lattice, with the
same values in the same row order, read to the same ranks and values by the
column pass alone, for a rational and for a labeled codomain."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from latgames import io
from latgames.generators import all_lattices, chain_lattice, diamond, grid_lattice
from latgames.io import lattice_obj, parse
from latgames.lattice import product_lattice

LATTICES = list(all_lattices(4)) + [chain_lattice(9), grid_lattice((3, 4)),
                                    product_lattice([diamond(), chain_lattice(2)])]
RATIONALS = ("1/2", "2/4", "0.5", "-3", "7", "-6/4", "1e1", "0", 3, -2)
CHAIN = ["lo", "mid", "hi"]
CODOMAINS = {
    "rational": ({"kind": "rational"}, RATIONALS, Fraction),
    "labeled": ({"kind": "labeled", "labels": CHAIN}, CHAIN, CHAIN.index),
}


@pytest.fixture
def no_row_loop(monkeypatch):
    """Make both row-by-row fault finders raise: every document must be read
    by the column pass alone."""
    def refuse(*args):
        raise AssertionError("a valid document entered a row loop")

    monkeypatch.setattr(io, "_table_rows", refuse)


def read_both(L, codomain, values, order):
    """The one-player game and the function whose rows give element
    ``L.labels[i]`` the value ``values[i]``, for i in ``order``."""
    rows = [(L.labels[i], values[i]) for i in order]
    game = {"players": ["p"], "strategies": {"p": lattice_obj(L)}, "codomains": {"p": codomain},
            "payoffs": {"p": [{"profile": {"p": e}, "value": v} for e, v in rows]}}
    function = {"domain": lattice_obj(L), "codomain": codomain,
                "table": [{"element": e, "value": v} for e, v in rows]}
    (game_kind, G), (function_kind, f) = parse(json.dumps(game)), parse(json.dumps(function))
    assert (game_kind, function_kind) == ("game", "function")
    return G, f


@pytest.mark.parametrize("kind", sorted(CODOMAINS))
def test_a_one_player_game_reads_as_the_function_with_its_table(kind, no_row_loop):
    codomain, spellings, key = CODOMAINS[kind]
    rng = random.Random(0x5EED)
    for L in LATTICES:
        values = [rng.choice(spellings) for _ in range(L.n)]
        order = rng.sample(range(L.n), L.n)
        G, f = read_both(L, codomain, values, order)
        assert G.ranks["p"] == list(f.keys)
        assert G.values["p"] == list(f.values)
        keys = list(map(key, values))
        assert list(f.keys) == list(map(sorted(set(keys)).index, keys))
        assert list(f.values) == (keys if kind == "rational" else values)
