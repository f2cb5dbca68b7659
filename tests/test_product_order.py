"""The componentwise product order against the pairwise construction
(``conftest.oracle_product_lattice``): labels, coordinates and radix
positions, up- and
down-rows and meet/join tables of ``product_lattice``, which reads its
tables off the factors' and never searches the product, checked against
``check_lattice`` too; the rows of those tables, built on first read from
parts built on first use, and which commands read them; and the opponent index of
``best_response_correspondence``."""
import itertools

import pytest

from latgames import (LatticeFunction, best_response_correspondence, check_lattice,
                      is_quasisupermodular, lattice, poset_from_covers, product_lattice)
from latgames.cli import main
from latgames.errors import DuplicateLabel, InvariantViolation
from latgames.generators import (SUPERMODULAR_THEN_TRANSFORM, all_lattices, chain_lattice, diamond,
                                 grid_lattice, random_function)
from latgames.io import save_path
from latgames.lattice import FinitePoset
from latgames.rng import Xoshiro256StarStar

from conftest import oracle_product_lattice, payoff_keys, with_join_entry
from test_qsm_kernel import planted


def _assert_same_product(factors):
    got, want = product_lattice(factors), oracle_product_lattice(factors)
    assert got.labels == want.labels
    assert got.coords == want.coords
    assert got.radix == want.radix
    assert got.up == want.up
    assert got.down == want.down
    assert got.meet == want.meet
    assert got.join == want.join


def _unpadded_chain(n):
    # "10" sorts before "2": string order is not the chain's order.
    return chain_lattice(n, labels=[str(i) for i in range(n)])


def test_every_pair_of_lattices_up_to_size_five():
    for A, B in itertools.product(all_lattices(5), repeat=2):
        _assert_same_product([A, B])


def test_three_factor_products_up_to_size_three():
    for factors in itertools.product(all_lattices(3), repeat=3):
        _assert_same_product(factors)  # the up-rows against the pairwise oracle


def test_labels_that_sort_differently_as_strings_and_as_tuples():
    # ("a", x) < ("a+", y) as tuples, but "(a+,y)" < "(a,x)" as strings
    # because "+" sorts before ",".
    A = chain_lattice(2, labels=["a", "a+"])
    for factors in ([A, A], [A, diamond()], [diamond(), A], [A, diamond(), A]):
        _assert_same_product(factors)  # the up-rows against the pairwise oracle
    assert product_lattice([A, A]).labels == ("(a+,a)", "(a+,a+)", "(a,a)", "(a,a+)")


def test_labels_that_encode_alike_raise():
    A = check_lattice(poset_from_covers(["a", "a,b"], [("a", "a,b")]))
    B = check_lattice(poset_from_covers(["b,c", "c"], [("c", "b,c")]))
    with pytest.raises(DuplicateLabel, match=r"'\(a,b,c\)'"):
        product_lattice([A, B])


def test_products_never_search_the_product(monkeypatch):
    from latgames import lattice

    products = [[A, B] for A, B in itertools.product(all_lattices(4), repeat=2)]
    products += [grid_lattice(dims).factors for dims in ((16, 16), (4, 4, 4))]

    def refuse(*args, **kwargs):
        raise AssertionError("product_lattice searched the product pair by pair")

    monkeypatch.setattr(lattice, "pairwise_bounds", refuse)
    monkeypatch.setattr(lattice, "check_lattice", refuse)
    built = [product_lattice(factors) for factors in products]
    for L in built:
        L.check_tables()  # the product starts out checked
    monkeypatch.undo()
    for factors, L in zip(products, built):
        want = oracle_product_lattice(factors)
        assert (L.up, L.down, L.meet, L.join) == (
            want.up, want.down, want.meet, want.join)


@pytest.mark.parametrize("factors", [
    [_unpadded_chain(8), _unpadded_chain(8)],
    [_unpadded_chain(12), _unpadded_chain(12)],
    [_unpadded_chain(16), _unpadded_chain(16)],
    [chain_lattice(3), diamond(), _unpadded_chain(11)],
    [diamond(), _unpadded_chain(12), diamond()],
    # "(a+,…)" sorts before "(a,…)": canonical order is not tuple order.
    [chain_lattice(3, labels=["a", "a+", "a++"]), _unpadded_chain(12)],
], ids=["8x8", "12x12", "16x16", "3x4x11-diamond", "diamond-12-diamond", "plus-labels-12"])
def test_tables_equal_the_pairwise_search(factors):
    L = product_lattice(factors)
    # The order rebuilt from the up-rows alone: its down-rows by
    # transposition, its tables by check_lattice's search.
    want = check_lattice(FinitePoset(L.labels, L.up))
    assert L.down == want.down
    # Rows are built on first read, in any order: the join's last row
    # first, the meet's from the middle outwards.
    assert len(L.meet) == len(L.join) == L.n
    for x in reversed(range(L.n)):
        assert L.join[x] == want.join[x]
    for x in sorted(range(L.n), key=lambda x: abs(2 * x - L.n)):
        assert L.meet[x] == want.meet[x]
    assert L.meet[-1] == want.meet[-1] and L.meet[0] is L.meet[0]
    assert L.meet == want.meet and want.meet == L.meet
    assert L.join == want.join and want.join == L.join
    assert tuple(L.meet) == want.meet and L.join != want.meet
    assert (L.bottom, L.top) == (want.bottom, want.top)
    _assert_same_product(factors)  # the up-rows against the pairwise oracle


def test_a_malformed_factor_is_an_invariant_violation(diamond_lattice):
    bad = with_join_entry(diamond_lattice, "b", "a", "a")
    for factors in ([bad], [chain_lattice(2), bad], [bad, diamond_lattice, chain_lattice(3)]):
        with pytest.raises(InvariantViolation,
                           match=r"join table entry \(b, a\) is a, but the order's join is 1"):
            product_lattice(factors)


def test_opponent_index_on_criterion_06_games(criterion_06_games):
    for G in criterion_06_games:
        for i, player in enumerate(G.players):
            others = G.factors[:i] + G.factors[i + 1:]
            F = best_response_correspondence(G, player)
            want = oracle_product_lattice(others)
            assert (F.keys, F.up) == (want.labels, want.up)
            own = G.factors[i].labels
            table = payoff_keys(G, player)
            for mask, coord in zip(F.masks, want.coords):
                opp = tuple(f.labels[c] for f, c in zip(others, coord))
                keys = [table[opp[:i] + (s,) + opp[i:]] for s in own]
                assert F.carrier.labels_of(mask) == tuple(
                    s for s, k in zip(own, keys) if k == max(keys))


def test_grid_commands_build_only_the_rows_they_read(monkeypatch, tmp_path, capsys):
    rng = Xoshiro256StarStar(0x5C_0017)
    D = grid_lattice((16, 16))
    base = random_function(rng, D, SUPERMODULAR_THEN_TRANSFORM)
    # a + b + ab is supermodular; the jump of 16 above f(0,0) breaks it at
    # x = (00,01), y = (01,00), in row 1 of the pairwise rescan.
    f = LatticeFunction(D, base.codomain, {label: a + b + a * b + (16 if a or b else 0)
                                           for label, (a, b) in zip(D.labels, D.coords)})
    save_path(tmp_path / "base.json", base)
    save_path(tmp_path / "jump.json", f)
    built = []
    build_row = lattice._LazyRows._build_row

    def counting(self, x):
        built.append(x)
        return build_row(self, x)

    monkeypatch.setattr(lattice._LazyRows, "_build_row", counting)
    checks = [a for p in ("ucs", "single-crossing", "incr-diff", "sections-qsm", "qsm")
              for a in ("--property", p)]
    main(["check-function", str(tmp_path / "base.json")] + checks)
    lines = capsys.readouterr().out.splitlines()
    assert (len(lines), lines[-1]) == (5, "PROPERTY quasisupermodular PASS")
    assert built == []
    assert main(["check-function", str(tmp_path / "jump.json"), "--property", "supermodular"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "PROPERTY supermodular FAIL x=(00,01) y=(01,00)")
    assert sorted(built) == [0, 0, 1, 1]  # rows 0 and 1 of the meet and the join


def test_rows_read_in_any_order_equal_the_eager_tables():
    # Each part is built on its first use, so rows read in another order
    # build their parts in another order.
    products = [[A, B] for A, B in itertools.product(all_lattices(4), repeat=2)]
    products.append([diamond(), _unpadded_chain(3), chain_lattice(2)])
    for factors in products:
        L = product_lattice(factors)
        want = check_lattice(FinitePoset(L.labels, L.up))
        for x in reversed(range(L.n)):
            assert L.join[x] == want.join[x]
            assert L.meet[L.n - 1 - x] == want.meet[L.n - 1 - x]


def test_a_failing_16x16_check_builds_one_part_per_factor_per_table():
    # The one-x witness scan reads one meet row and one join row, and each
    # row sums one part per factor: 2 meet parts and 2 join parts, not 32.
    rng = Xoshiro256StarStar(0x5C_0026)
    f = planted(random_function(rng, grid_lattice((16, 16)), SUPERMODULAR_THEN_TRANSFORM), 2, 5, 1)
    L = f.domain
    assert not is_quasisupermodular(f).holds
    for table in (L.meet, L.join):
        assert [sum(part is not None for part in parts) for parts in table._parts] == [1, 1]
