"""``lattice_from_covers``'s chain route against the general route it
replaces, ``check_lattice(poset_from_covers(...))``: every field of the
lattice on every labeling of small chains and on a 64-chain, and on mutated
chain documents the same lattice or the same error, in-process and through
``check-lattice``."""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgames import check_lattice, lattice, lattice_from_covers, poset_from_covers
from latgames import io as latgames_io
from latgames.cli import main
from latgames.lattice import chain_ranks

FIELDS = ("labels", "index", "up", "down", "full", "meet", "join", "covers", "bottom", "top",
          "factors", "coords", "radix", "_tables_checked")


def _general(elements, covers):
    return check_lattice(poset_from_covers(elements, covers))


def _fields(L):
    return {name: getattr(L, name) for name in FIELDS}


def _outcome(build, elements, covers):
    """The lattice's fields, or the exception's type and message."""
    try:
        return _fields(build(elements, covers))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _path_covers(path):
    return [(lo, hi) for lo, hi in zip(path, path[1:])]


def _assert_chain_route(path, elements, monkeypatch):
    want = _general(elements, _path_covers(path))
    with monkeypatch.context() as m:
        m.setattr(lattice, "poset_from_covers", None)  # the chain route never calls it
        got = lattice_from_covers(elements, _path_covers(path))
    assert _fields(got) == _fields(want)
    assert chain_ranks(got) == [path.index(label) for label in got.labels]


def test_every_labeling_of_chains_up_to_six_elements(monkeypatch):
    for n in range(1, 7):
        names = ["b", "a", "f", "c", "e", "d"][:n]
        for path in itertools.permutations(names):
            _assert_chain_route(list(path), names, monkeypatch)
            _assert_chain_route(list(path), list(reversed(path)), monkeypatch)


def test_a_64_chain_whose_label_order_is_not_its_rank_order(monkeypatch):
    path = [f"c{k}" for k in range(64)]  # "c10" sorts before "c2"
    _assert_chain_route(path, path, monkeypatch)
    _assert_chain_route(path, sorted(path), monkeypatch)


MUTATIONS = ("drop", "duplicate", "duplicate-for", "reverse", "self-loop", "two-cycle",
             "unknown", "duplicate-label", "whitespace-label", "non-string-label", "isolated")


@st.composite
def mutated_chains(draw):
    """A chain document (shuffled labels, elements in a shuffled order) with
    one mutation applied; the mutation may leave it a chain."""
    n = draw(st.integers(2, 7))
    path = draw(st.permutations([f"e{k}" for k in range(n)]))
    elements = draw(st.permutations(path))
    covers = [list(c) for c in _path_covers(path)]
    mutation = draw(st.sampled_from(MUTATIONS))
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(0, n - 2))
    e = draw(st.integers(0, n - 1))
    lo, hi = covers[i]
    if mutation == "drop":
        del covers[i]
    elif mutation == "duplicate":
        covers.insert(j, [lo, hi])
    elif mutation == "duplicate-for":
        covers[j] = [lo, hi]
    elif mutation == "reverse":
        covers[i] = [hi, lo]
    elif mutation == "self-loop":
        covers[j] = [elements[e], elements[e]]
    elif mutation == "two-cycle":
        covers[j] = [hi, lo] if j != i else [lo, lo]
    elif mutation == "unknown":
        covers[i][draw(st.integers(0, 1))] = "zz"
    elif mutation == "duplicate-label":
        elements[e] = elements[(e + 1) % n]
    elif mutation == "whitespace-label":
        elements[e] = draw(st.sampled_from(["", " ", "a b", "e0\t", "e\u00a0"]))
    elif mutation == "non-string-label":
        elements[e] = draw(st.sampled_from([7, None, ["e0"]]))
    else:
        elements.insert(e, "zz")
    return elements, covers


def _check_lattice_cli(elements, covers):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.json"
        path.write_text(json.dumps({"elements": elements, "covers": covers}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check-lattice", str(path)])
    return code, out.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutated_chains())
def test_mutated_chain_documents_match_the_general_route(case):
    elements, covers = case
    pairs = [tuple(c) for c in covers]
    assert _outcome(lattice_from_covers, elements, pairs) == _outcome(_general, elements, pairs)
    got = _check_lattice_cli(elements, covers)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(latgames_io, "lattice_from_covers", _general)
        assert got == _check_lattice_cli(elements, covers)


@pytest.mark.parametrize("covers", [
    [("a", "b", "c")], [("a",)], [7], [("a", ["b"])], [(["a"], "b")], ["ab"], [("b", "zz")],
], ids=repr)
def test_covers_that_are_not_label_pairs_take_the_general_route(covers):
    assert _outcome(lattice_from_covers, ["a", "b"], covers) == _outcome(_general, ["a", "b"], covers)
