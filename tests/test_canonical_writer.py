"""The canonical writer against json's own indented encoder.

``io.canonical_dumps`` writes documents directly; its text must stay the
text ``json.dumps(obj, indent=2, sort_keys=True)`` gives, which is kept
here as the reference.
"""
import gc
import json

import pytest

from latgames.corpus import DATA
from latgames.functions import ChainCodomain, LatticeFunction
from latgames.games import Game
from latgames.generators import all_lattices, chain_lattice, diamond
from latgames.io import _DOCUMENTS, canonical_dumps, load_path, serialize
from latgames.lattice import product_lattice
from latgames.topology import EXPLICIT, TopologySpec

ODD_LABELS = ["é", 'say"so', "back\\slash", "ü/ß", "☃"]


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def document(instance) -> dict:
    """The document object that ``serialize`` writes for ``instance``."""
    for _, _, write, cls in _DOCUMENTS.values():
        if isinstance(instance, cls):
            return write(instance)
    raise TypeError(type(instance).__name__)


def assert_written_as_json(instance) -> str:
    obj = document(instance)
    text = serialize(instance)
    assert canonical_dumps(obj) == text == reference(obj)
    return text


def test_corpus_instances():
    paths = sorted(DATA.glob("*.json"))
    assert paths
    for path in paths:
        assert_written_as_json(load_path(path)[1])


def test_criterion_06_games(criterion_06_games):
    for G in criterion_06_games:
        assert_written_as_json(G)


def test_small_lattices():
    for L in all_lattices(6):
        assert_written_as_json(L)


def test_one_element_lattice():
    text = assert_written_as_json(chain_lattice(1))
    assert '"covers": []' in text


def test_nested_product_and_its_function():
    L = product_lattice([product_lattice([diamond(), chain_lattice(2)]), chain_lattice(3)])
    text = assert_written_as_json(L)
    assert text.count('"product"') == 2
    f = LatticeFunction(L, ChainCodomain.rational(),
                        {label: k % 5 for k, label in enumerate(L.labels)})
    assert_written_as_json(f)


def test_explicit_topology():
    labels = chain_lattice(3).labels
    spec = TopologySpec(EXPLICIT, ((), (labels[0],), (labels[0], labels[1]), tuple(labels)))
    assert_written_as_json(spec)
    assert_written_as_json(TopologySpec(EXPLICIT, ()))


def test_labels_that_json_escapes():
    L = chain_lattice(len(ODD_LABELS), labels=ODD_LABELS)
    text = assert_written_as_json(L)
    assert text.isascii() and "\\u00e9" in text and 'say\\"so' in text and "back\\\\slash" in text
    codomain = ChainCodomain.labeled(ODD_LABELS[::-1])
    assert_written_as_json(LatticeFunction(L, codomain, dict(zip(L.labels, ODD_LABELS))))
    players = ODD_LABELS[:2]
    S = chain_lattice(2, labels=ODD_LABELS[2:4])
    tables = {p: {(a, b): ODD_LABELS[(i + j + k) % 5]
                  for i, a in enumerate(S.labels) for j, b in enumerate(S.labels)}
              for k, p in enumerate(players)}
    assert_written_as_json(Game(players, dict.fromkeys(players, S),
                                dict.fromkeys(players, codomain), tables))


@pytest.mark.parametrize("bad", [1.5, {"a": 0.5}, ["x", 2], {"a": None}, ("x",), {1: "x"}])
def test_other_types_are_refused(bad):
    with pytest.raises(TypeError):
        canonical_dumps(bad)


def test_serialize_leaves_no_cyclic_garbage(criterion_06_games):
    G = criterion_06_games[0]
    serialize(G)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            serialize(G)
        assert gc.collect() == 0
    finally:
        gc.enable()
