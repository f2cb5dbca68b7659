"""``check_lattice`` on the linear-extension lub/glb search against the
full-candidate scan it replaced.

The oracle tries every upper bound of a pair as its lub and every lower
bound as its glb, in canonical index order.  Relabeled lattices and random
posets use label orders that are not linear extensions, so a search that
took the lowest canonical index as its candidate would fail here.
"""
from __future__ import annotations

from collections import Counter

from latgames import check_lattice, poset_from_covers
from latgames.errors import NotALattice
from latgames.generators import all_lattices
from latgames.lattice import FinitePoset, iter_bits
from latgames.rng import Xoshiro256StarStar


def oracle_check_lattice(poset: FinitePoset):
    """``("lattice", meet, join)`` or ``("fail", pair, tag)`` by full scan."""
    n = poset.n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = poset.up[i] & poset.up[j]
            lub = next((k for k in iter_bits(ub) if ub & ~poset.up[k] == 0), None)
            if lub is None:
                return "fail", (poset.labels[i], poset.labels[j]), "lub"
            lb = poset.down[i] & poset.down[j]
            glb = next((k for k in iter_bits(lb) if lb & ~poset.down[k] == 0), None)
            if glb is None:
                return "fail", (poset.labels[i], poset.labels[j]), "glb"
            join[i][j] = join[j][i] = lub
            meet[i][j] = meet[j][i] = glb
    return "lattice", tuple(map(tuple, meet)), tuple(map(tuple, join))


def outcome(poset: FinitePoset):
    try:
        L = check_lattice(poset)
    except NotALattice as exc:
        return "fail", exc.pair, exc.missing
    return "lattice", L.meet, L.join


def _relabeled(L, rng) -> FinitePoset:
    names = [f"e{k}" for k in range(L.n)]
    rng.shuffle(names)
    covers = [(names[L.index[a]], names[L.index[b]]) for a, b in L.covers]
    return poset_from_covers(names, covers)


def _random_poset(rng) -> FinitePoset:
    """Random order on shuffled labels: a strict relation along a hidden
    linear order, transitively closed by ``poset_from_covers``."""
    n = rng.randint(2, 9)
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    covers = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
              if rng.chance(1, 3)]
    return poset_from_covers(names, covers)


def test_all_small_lattices_and_relabelings():
    rng = Xoshiro256StarStar(0x1A7_0001)
    lattices = all_lattices(6)
    assert len(lattices) == 51
    for L in lattices:
        for poset in (L, _relabeled(L, rng), _relabeled(L, rng)):
            want = oracle_check_lattice(poset)
            assert want[0] == "lattice"
            assert outcome(poset) == want


def test_seeded_posets_fail_on_the_same_pair():
    rng = Xoshiro256StarStar(0x1A7_0002)
    seen = Counter()
    for _ in range(2000):
        poset = _random_poset(rng)
        want = oracle_check_lattice(poset)
        assert outcome(poset) == want
        seen[want[0] if want[0] == "lattice" else want[2]] += 1
    assert min(seen[k] for k in ("lattice", "lub", "glb")) >= 50, seen
