"""Supermodularity on products is decided by Topkis' characterization
(every one-factor section supermodular, increasing differences between each
factor and the rest), with the pairwise scan as the path for failures and
other domains.  Here every verdict and witness is compared with the
definition, ``oracle_supermodular``, on seeded tables that hold and fail."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from latgames import LatticeFunction, product_lattice
from latgames.errors import TheoremFalsified
from latgames.generators import (all_lattices, chain_lattice, diamond, diamond_mk, grid_lattice,
                                 random_monotone_supermodular)
from latgames.lattice import FiniteLattice
from latgames.properties import has_increasing_differences, is_supermodular
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL, oracle_supermodular


def supermodular_table(rng, D) -> dict:
    """A supermodular table on the product D: weighted indicators of
    principal filters of D, a supermodular term per factor (any term on a
    chain), and couplings w_i(x_i) * w_j(x_j) of down-set sizes, which are
    supermodular and increasing on each factor."""
    table = random_monotone_supermodular(rng, D)
    down = [[row.bit_count() for row in f.down] for f in D.factors]
    terms = []
    for f in D.factors:
        if all(f.up[x] | f.down[x] == f.full for x in range(f.n)):
            terms.append([Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(f.n)])
        else:
            term = random_monotone_supermodular(rng, f)
            terms.append([term[label] for label in f.labels])
    couplings = [(i, j, rng.below(3)) for i, j in itertools.combinations(range(len(terms)), 2)]
    for label, coord in zip(D.labels, D.coords):
        table[label] += sum(t[c] for t, c in zip(terms, coord))
        for i, j, w in couplings:
            table[label] += w * down[i][coord[i]] * down[j][coord[j]]
    return table


def tables(rng, D):
    """A supermodular table, two nudges of it (one entry moved by up to 3)
    and uniform noise."""
    base = supermodular_table(rng, D)
    yield base
    for _ in range(2):
        nudged = dict(base)
        nudged[D.labels[rng.below(D.n)]] += rng.choice((-3, -2, -1, 1, 2, 3))
        yield nudged
    yield {label: Fraction(rng.below(3)) for label in D.labels}


def check_sample(functions):
    """Compare every verdict with the oracle; return how many held and failed."""
    held = failed = 0
    for f in functions:
        verdict = is_supermodular(f)
        assert verdict == oracle_supermodular(f), f.table()
        held += verdict.holds
        failed += not verdict.holds
    return held, failed


def test_every_product_of_two_lattices_up_to_five():
    rng = Xoshiro256StarStar(0x70B1C5)
    lattices = all_lattices(5)
    held, failed = check_sample(
        LatticeFunction(D, RATIONAL, table)
        for A, B in itertools.product(lattices, repeat=2)
        for D in [product_lattice([A, B])] for table in tables(rng, D))
    assert held > 100 and failed > 100


def test_every_three_factor_product_up_to_three():
    rng = Xoshiro256StarStar(0x3FAC7)
    held, failed = check_sample(
        LatticeFunction(D, RATIONAL, table)
        for factors in itertools.product(all_lattices(3), repeat=3)
        for D in [product_lattice(factors)]
        for table in tables(rng, D))
    assert held > 20 and failed > 20


@pytest.mark.parametrize("dims", [(4, 4), (3, 7), (6, 6), (2, 3, 4), (2, 2, 2, 2)])
def test_seeded_grids(dims):
    rng = Xoshiro256StarStar(sum(dims) * 7919)
    D = grid_lattice(dims)
    held, failed = check_sample(LatticeFunction(D, RATIONAL, table)
                                for _ in range(8) for table in tables(rng, D))
    assert held and failed


@pytest.mark.parametrize("factor", [diamond_mk(3), diamond()], ids=["M3", "diamond"])
def test_only_the_section_condition_fails(factor):
    # Rewarding the atoms alone breaks every section over the non-chain
    # factor; f does not depend on the chain, so differences are constant.
    atoms = {label for x, label in enumerate(factor.labels)
             if x not in (factor.bottom, factor.top)}
    for D, at in ((product_lattice([factor, chain_lattice(3)]), 0),
                  (product_lattice([chain_lattice(2), factor]), 1)):
        f = LatticeFunction(D, RATIONAL, {label: int(factor.labels[c[at]] in atoms)
                                          for label, c in zip(D.labels, D.coords)})
        assert has_increasing_differences(f, split=0).holds
        verdict = is_supermodular(f)
        assert not verdict.holds
        assert verdict == oracle_supermodular(f)


def test_single_factor_and_non_product_domains_use_the_pairwise_scan():
    for L in (product_lattice([diamond_mk(3)]), diamond_mk(4)):
        table = {label: Fraction(x % 3) for x, label in enumerate(L.labels)}
        f = LatticeFunction(L, RATIONAL, table)
        assert is_supermodular(f) == oracle_supermodular(f)


def test_a_table_that_contradicts_the_factors_is_loud():
    # The join and meet of (0,1) and (1,0) swapped into the pair itself: the
    # factors say f breaks increasing differences, while the pairwise scan
    # over the wrong tables finds no violation.
    D = product_lattice([chain_lattice(2), chain_lattice(2)])
    x, y = D.coords.index((0, 1)), D.coords.index((1, 0))
    meet, join = [list(row) for row in D.meet], [list(row) for row in D.join]
    meet[x][y], join[x][y] = y, x
    bad = FiniteLattice(D, tuple(map(tuple, meet)), tuple(map(tuple, join)),
                        D.factors, D.coords, D.radix)
    values = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    f = LatticeFunction(bad, RATIONAL, {label: values[c] for label, c in zip(D.labels, D.coords)})
    with pytest.raises(TheoremFalsified):
        is_supermodular(f)
