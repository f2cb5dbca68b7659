"""A ``FiniteLattice`` is a ``FinitePoset``: the lattice is its own order.

``check_lattice`` shares its poset's rows rather than copying them, the
order kernels take a lattice where they take a poset, and ``poset`` is an
alias of the lattice itself.  Equality and hashing are the poset's (labels
and up-rows), so a poset equals a lattice with the same order.
"""
from __future__ import annotations

from latgames import check_lattice, poset_from_covers, product_lattice
from latgames.generators import chain_lattice, diamond, grid_lattice
from latgames.lattice import (FiniteLattice, FinitePoset, componentwise_up, extremal_in,
                              pairwise_bounds)


def _diamond_poset():
    return poset_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def _lattices():
    return [check_lattice(_diamond_poset()), product_lattice([chain_lattice(2), diamond()]),
            chain_lattice(3), diamond(), grid_lattice((2, 3))]


def test_every_builder_returns_a_poset():
    for L in _lattices():
        assert isinstance(L, FiniteLattice) and isinstance(L, FinitePoset)


def test_check_lattice_shares_the_posets_rows():
    P = _diamond_poset()
    L = check_lattice(P)
    assert L.up is P.up and L.down is P.down and L.index is P.index
    assert L.labels is P.labels and L.full == P.full


def test_poset_is_the_lattice_itself():
    for L in _lattices():
        assert L == FinitePoset(L.labels, L.up)


def test_order_kernels_take_a_lattice():
    L, P = diamond(), _diamond_poset()
    assert list(pairwise_bounds(L)) == list(pairwise_bounds(P))
    assert extremal_in(L, L.full) == L.top == L.index["1"]
    assert extremal_in(L, L.full, False) == L.bottom == L.index["0"]
    assert extremal_in(L, L.subset_mask(["a", "b"])) is None
    G = grid_lattice((2, 3))
    coords = [(0, 0), (1, 2), (0, 2)]
    assert componentwise_up(G.factors, coords) == [0b111, 0b010, 0b110]
    assert componentwise_up(G.factors, coords, dual=True) == [0b001, 0b111, 0b101]


def test_equal_lattices_hash_equal_and_different_orders_differ():
    assert diamond() == diamond() and hash(diamond()) == hash(diamond())
    assert chain_lattice(3) == chain_lattice(3) and hash(chain_lattice(3)) == hash(chain_lattice(3))
    chain = poset_from_covers(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")])
    assert check_lattice(chain) != diamond()  # same labels, other order
    assert chain_lattice(3) != chain_lattice(4)


def test_a_poset_equals_the_lattice_of_its_order():
    # Inherited equality compares labels and up-rows only, so a poset and a
    # lattice with the same order are equal and hash alike.
    L, P = diamond(), _diamond_poset()
    assert type(P) is FinitePoset
    assert P == L and L == P and hash(P) == hash(L)
    assert len({P, L}) == 1
