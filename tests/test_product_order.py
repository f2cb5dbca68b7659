"""The componentwise product order against the pairwise construction it
replaced (``conftest.oracle_product_lattice``): labels, coordinates, order
rows and meet/join tables of ``product_lattice``, and the opponent index of
``best_response_correspondence``."""
import itertools

import pytest

from latgames import best_response_correspondence, check_lattice, poset_from_covers, product_lattice
from latgames.errors import DuplicateLabel
from latgames.generators import all_lattices, chain_lattice, diamond

from conftest import oracle_product_lattice, payoff_keys


def _assert_same_product(factors):
    got, want = product_lattice(factors), oracle_product_lattice(factors)
    assert got.labels == want.labels
    assert got.coords == want.coords
    assert got.poset.up == want.poset.up
    assert got.meet == want.meet
    assert got.join == want.join


def test_every_pair_of_lattices_up_to_size_five():
    for A, B in itertools.product(all_lattices(5), repeat=2):
        _assert_same_product([A, B])


def test_three_factor_products_up_to_size_three():
    for factors in itertools.product(all_lattices(3), repeat=3):
        _assert_same_product(factors)


def test_labels_that_sort_differently_as_strings_and_as_tuples():
    # ("a", x) < ("a+", y) as tuples, but "(a+,y)" < "(a,x)" as strings
    # because "+" sorts before ",".
    A = chain_lattice(2, labels=["a", "a+"])
    for factors in ([A, A], [A, diamond()], [diamond(), A], [A, diamond(), A]):
        _assert_same_product(factors)
    assert product_lattice([A, A]).labels == ("(a+,a)", "(a+,a+)", "(a,a)", "(a,a+)")


def test_labels_that_encode_alike_raise():
    A = check_lattice(poset_from_covers(["a", "a,b"], [("a", "a,b")]))
    B = check_lattice(poset_from_covers(["b,c", "c"], [("c", "b,c")]))
    with pytest.raises(DuplicateLabel, match=r"'\(a,b,c\)'"):
        product_lattice([A, B])


def test_opponent_index_on_criterion_06_games(criterion_06_games):
    for G in criterion_06_games:
        for i, player in enumerate(G.players):
            others = G.factors[:i] + G.factors[i + 1:]
            F = best_response_correspondence(G, player)
            want = oracle_product_lattice(others)
            assert (F.keys, F.up) == (want.labels, want.poset.up)
            own = G.factors[i].labels
            table = payoff_keys(G, player)
            for mask, coord in zip(F.masks, want.coords):
                opp = tuple(f.labels[c] for f, c in zip(others, coord))
                keys = [table[opp[:i] + (s,) + opp[i:]] for s in own]
                assert F.carrier.labels_of(mask) == tuple(
                    s for s, k in zip(own, keys) if k == max(keys))
