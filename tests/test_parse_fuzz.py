"""Mutated corpus documents through the CLI: every run ends in exit 0, 1 or 2.

Each example takes one corpus document, replaces or deletes a few of its
nodes or duplicates list items, and runs a command on it in-process.
Exit 1 must come with a failing-property line; no exception may escape
``main``.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from latgames.cli import main
from latgames.corpus import DATA
from latgames.io import detect_kind

DOCS = {path.stem: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}
DOC = "{doc}"  # where the mutated document's path goes in a command line
COMMANDS = {
    "lattice": (["check-lattice", DOC], ["verify", DOC, "--theorem", "chaincls"]),
    "function": tuple(["check-function", DOC, "--property", p]
                      for p in ("qsm", "single-crossing", "sections-qsm", "incr-diff",
                                "supermodular", "transfer"))
    + (["verify", DOC, "--theorem", "kuku"],),
    "game": (["solve", DOC], ["check-game", DOC], ["verify", DOC, "--theorem", "zhou"]),
    "topology": (["check-function", str(DATA / "transfer_weak_only.json"),
                  "--property", "transfer", "--topology", DOC],),
}


def _nodes(doc, path=()):
    """Every node of a JSON document, as a key path from the root."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


_LABELS = st.sampled_from(["0", "1", "a", "b", "c0", "c1", "x1", "p1", "(0,0)", "", " ",
                           "1/2", "-3", "1/0", "rational", "labeled", "interval"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(allow_nan=False)
    | _LABELS | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_LABELS, kids, max_size=3),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_nodes(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            doc = draw(_JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    return doc, draw(st.sampled_from(COMMANDS[detect_kind(DOCS[name])]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=mutated_documents())
def test_mutated_corpus_documents_exit_cleanly(case, tmp_path_factory):
    doc, command = case
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == DOC else a for a in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, doc)
    if code == 1:
        assert any(" FAIL" in line or line.startswith("FALSIFIED") for line in lines), lines
