"""``LatticeFunction.upper_levels`` against brute-force level sets, and the
checks that read it (argmax, level correspondence, topological usc)."""
from fractions import Fraction

import pytest

from latgames import LatticeFunction, argmax_set, level_correspondence
from latgames.functions import ChainCodomain
from latgames.generators import all_lattices, chain_lattice, diamond, grid_lattice
from latgames.io import parse, serialize

from conftest import RATIONAL, seeded_functions, small_product_functions


def brute_levels(f) -> list:
    """{x : keys[x] >= r} for each rank r of f, ascending."""
    return [sum(1 << x for x, k in enumerate(f.keys) if k >= r)
            for r in range(len(set(f.keys)))]


def assert_levels(f):
    levels = f.upper_levels()
    assert levels == brute_levels(f)
    assert levels[0] == f.domain.full
    assert f.domain.labels_of(levels[-1]) == argmax_set(f)
    assert level_correspondence(f).masks == tuple(levels)


def test_levels_of_small_product_functions():
    for f in small_product_functions(0x1E7E1):
        assert_levels(f)


@pytest.mark.parametrize("L", [chain_lattice(1), diamond(), grid_lattice((3, 4))],
                         ids=["chain1", "diamond", "grid3x4"])
def test_a_constant_function_has_one_level(L):
    f = LatticeFunction(L, RATIONAL, dict.fromkeys(L.labels, Fraction(-7, 3)))
    assert f.upper_levels() == [L.full]
    assert_levels(f)


def test_levels_of_labeled_functions():
    # A chain with labels that the values never reach: ranks skip them.
    codomain = ChainCodomain.labeled(["none", "lo", "unused", "mid", "hi"])
    for k, L in enumerate(all_lattices(4)):
        f = list(seeded_functions(L, 0x1E7E2 + k, count=0))[0]
        assert_levels(f)
        g = LatticeFunction(L, codomain, {label: ("lo", "mid", "hi")[L.index[label] % 3]
                                          for label in L.labels})
        assert_levels(g)


def test_spellings_of_one_value_share_a_level():
    L = chain_lattice(5)
    f = LatticeFunction(L, RATIONAL, dict(zip(L.labels, (0, 1, 1, 1, 2))))
    doc = serialize(f).replace('"value": "1"', '"value": "X"')
    for spelling in ("1/2", "2/4", "0.5"):
        doc = doc.replace('"X"', f'"{spelling}"', 1)
    _, g = parse(doc)
    assert [str(v) for v in g.values] == ["0", "1/2", "1/2", "1/2", "2"]
    assert g.upper_levels() == [0b11111, 0b11110, 0b10000]
    assert_levels(g)
