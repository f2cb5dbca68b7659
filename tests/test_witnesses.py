"""Every failing verdict's witness must re-check as a genuine violation
when replayed against the raw definitions, with no checker machinery."""
from fractions import Fraction

import pytest

from latgames import (
    LatticeFunction,
    classify_subset,
    has_increasing_differences,
    inf_subset,
    is_quasisupermodular,
    is_single_crossing,
    is_supermodular,
    sup_subset,
    validate_game,
)
from latgames.generators import all_lattices, grid_lattice, random_game
from latgames.rng import Xoshiro256StarStar
from latgames.verdict import Verdict

from conftest import RATIONAL


def _random_table(rng, L, spread=5):
    return {label: Fraction(rng.below(spread)) for label in L.labels}


class TestVerdictInvariant:
    def test_holds_and_witness_are_exclusive(self):
        with pytest.raises(ValueError):
            Verdict(True, witness=(("x", "a"),))
        with pytest.raises(ValueError):
            Verdict(False)

    def test_bool_and_describe(self):
        good = Verdict(True)
        bad = Verdict(False, witness=(("x", "a"), ("v", Fraction(1, 2))))
        assert good and not bad
        assert bad.describe() == "FAIL x=a v=1/2"


class TestQuasisupermodularWitnesses:
    def test_random_failures_recheck(self):
        rng = Xoshiro256StarStar(111)
        seen = 0
        lattices = all_lattices(5)
        while seen < 60:
            L = lattices[rng.below(len(lattices))]
            f = LatticeFunction(L, RATIONAL, _random_table(rng, L, 3))
            verdict = is_quasisupermodular(f)
            if verdict.holds:
                continue
            seen += 1
            w = verdict.witness_dict()
            fx = f.value(w["x"])
            fy = f.value(w["y"])
            fm = f.value(L.meet_label(w["x"], w["y"]))
            fv = f.value(L.join_label(w["x"], w["y"]))
            if w["clause"] == "weak":
                assert fx >= fm and not fv >= fy
            else:
                assert fx > fm and not fv > fy


class TestSupermodularWitnesses:
    def test_random_failures_recheck(self):
        rng = Xoshiro256StarStar(222)
        seen = 0
        lattices = all_lattices(5)
        while seen < 60:
            L = lattices[rng.below(len(lattices))]
            f = LatticeFunction(L, RATIONAL, _random_table(rng, L))
            verdict = is_supermodular(f)
            if verdict.holds:
                continue
            seen += 1
            w = verdict.witness_dict()
            fx, fy = f.value(w["x"]), f.value(w["y"])
            fm = f.value(L.meet_label(w["x"], w["y"]))
            fv = f.value(L.join_label(w["x"], w["y"]))
            assert fx + fy > fm + fv


class TestSplitWitnesses:
    def test_single_crossing_and_differences_recheck(self):
        rng = Xoshiro256StarStar(333)
        P = grid_lattice((3, 3))
        sc_seen = id_seen = 0
        while sc_seen < 30 or id_seen < 30:
            f = LatticeFunction(P, RATIONAL, _random_table(rng, P, 4))
            sc = is_single_crossing(f, split=0)
            if not sc.holds and sc_seen < 30:
                sc_seen += 1
                w = sc.witness_dict()
                low_q = f.value(f"({w['p']},{w['q']})")
                high_q = f.value(f"({w['p2']},{w['q']})")
                low_q2 = f.value(f"({w['p']},{w['q2']})")
                high_q2 = f.value(f"({w['p2']},{w['q2']})")
                if w["clause"] == "weak":
                    assert low_q <= high_q and not low_q2 <= high_q2
                else:
                    assert low_q < high_q and not low_q2 < high_q2
            diff = has_increasing_differences(f, split=0)
            if not diff.holds and id_seen < 30:
                id_seen += 1
                w = diff.witness_dict()
                lhs = (f.value(f"({w['p2']},{w['q2']})") - f.value(f"({w['p']},{w['q2']})"))
                rhs = (f.value(f"({w['p2']},{w['q']})") - f.value(f"({w['p']},{w['q']})"))
                assert lhs < rhs


class TestSubsetWitnesses:
    def test_classification_witnesses_recheck(self):
        rng = Xoshiro256StarStar(444)
        lattices = all_lattices(5)
        checked = 0
        while checked < 80:
            L = lattices[rng.below(len(lattices))]
            mask = rng.below(1 << L.n)
            labels = L.labels_of(mask)
            members = set(labels)
            if not labels:
                continue
            checked += 1
            flags = classify_subset(L, labels)
            if not flags.is_chain.holds:
                w = flags.is_chain.witness_dict()
                assert not L.leq(w["x"], w["y"]) and not L.leq(w["y"], w["x"])
            if not flags.is_antichain.holds:
                w = flags.is_antichain.witness_dict()
                assert L.leq(w["x"], w["y"]) or L.leq(w["y"], w["x"])
            if not flags.is_sublattice.holds:
                w = flags.is_sublattice.witness_dict()
                op = L.meet_label if w["op"] == "meet" else L.join_label
                assert op(w["x"], w["y"]) == w["value"]
                assert w["value"] not in members
            if not flags.is_subcomplete.holds:
                w = flags.is_subcomplete.witness_dict()
                bound = sup_subset if w["bound"] == "sup" else inf_subset
                assert bound(L, w["subset"]) == w["value"]
                assert w["value"] not in members
                assert set(w["subset"]) <= members


class TestGameWitnesses:
    def test_validation_witnesses_recheck(self):
        rng = Xoshiro256StarStar(555)
        seen = 0
        while seen < 15:
            # random tables on a random validated game's shape usually break it
            G = random_game(rng, max_players=2, max_size=4)
            player = G.players[0]
            scrambled = {p: dict(G.payoffs[p]) for p in G.players}
            scrambled[player] = {profile: Fraction(rng.below(4))
                                 for profile in G.payoffs[player]}
            from latgames import Game

            H = Game(G.players, G.strategies, G.codomains, scrambled)
            verdict = validate_game(H)
            if verdict.holds:
                continue
            seen += 1
            w = verdict.witness_dict()
            i = H.player_index(w["player"])
            keys = H.payoffs[w["player"]]
            if w["check"] == "section-quasisupermodular":
                opp = w["opponents"]
                S = H.strategies[w["player"]]
                def val(y):
                    return keys[opp[:i] + (y,) + opp[i:]]
                fx, fy = val(w["x"]), val(w["y"])
                fm = val(S.meet_label(w["x"], w["y"]))
                fv = val(S.join_label(w["x"], w["y"]))
                if w["clause"] == "weak":
                    assert fx >= fm and not fv >= fy
                else:
                    assert fx > fm and not fv > fy
            else:
                q, q2 = w["q"], w["q2"]
                def at(p_label, opp):
                    return keys[opp[:i] + (p_label,) + opp[i:]]
                lo_q, hi_q = at(w["p"], q), at(w["p2"], q)
                lo_q2, hi_q2 = at(w["p"], q2), at(w["p2"], q2)
                if w["clause"] == "weak":
                    assert lo_q <= hi_q and not lo_q2 <= hi_q2
                else:
                    assert lo_q < hi_q and not lo_q2 < hi_q2
