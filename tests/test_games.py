"""game validation, best responses, equilibrium enumeration, Tarski iteration."""
import itertools
from fractions import Fraction

import pytest

from latgames import (
    Game,
    argmax_set,
    best_response,
    best_response_correspondence,
    classify_subset,
    enumerate_nash,
    is_increasing_strong_set_order,
    is_nash,
    tarski_extremes,
    validate_game,
    verify_equilibrium_structure,
)
from latgames import games
from latgames.errors import (
    InvariantViolation,
    NotValidated,
    StateSpaceTooLarge,
    StructuralError,
    TheoremFalsified,
)
from latgames.functions import ChainCodomain, LatticeFunction
from latgames.generators import chain_lattice, random_game, random_strictly_increasing_map
from latgames.io import serialize
from latgames.lattice import iter_bits
from latgames.rng import Xoshiro256StarStar

from conftest import RATIONAL, brute_nash_set, profile_leq


class TestConstruction:
    def test_partial_payoff_table_rejected(self, diamond_lattice):
        c = chain_lattice(2, labels=["0", "1"])
        pay = {("0", "0"): 0, ("0", "1"): 1}  # missing profiles
        with pytest.raises(InvariantViolation):
            Game(["1", "2"], {"1": c, "2": c}, {"1": RATIONAL, "2": RATIONAL},
                 {"1": pay, "2": pay})

    def test_unknown_player_in_maps_rejected(self):
        c = chain_lattice(2)
        with pytest.raises(StructuralError):
            Game(["1"], {"1": c, "2": c}, {"1": RATIONAL},
                 {"1": {(l,): 0 for l in c.labels}})

    def test_empty_player_list_rejected(self):
        with pytest.raises(StructuralError):
            Game([], {}, {}, {})


class TestValidation:
    def test_star_diamond_game_validates(self, star_diamond_game):
        assert validate_game(star_diamond_game).holds

    def test_step_grid_game_validates(self, step_grid6_game):
        assert validate_game(step_grid6_game).holds

    def test_one_player_chain_game(self):
        c = chain_lattice(3)
        pay = {(l,): Fraction(i % 2) for i, l in enumerate(c.labels)}
        G = Game(["solo"], {"solo": c}, {"solo": RATIONAL}, {"solo": pay})
        assert validate_game(G).holds

    def test_joint_payoff_on_product_strategy_fails_sections(self, veinott_function):
        # one player whose strategy space is the whole product: the section is
        # the joint function, which is not quasisupermodular
        P = veinott_function.domain
        single = chain_lattice(1, labels=["*"])
        pay1 = {(l, "*"): veinott_function.value(l) for l in P.labels}
        pay2 = dict.fromkeys(pay1, Fraction(0))
        G = Game(["1", "2"], {"1": P, "2": single}, {"1": RATIONAL, "2": RATIONAL},
                 {"1": pay1, "2": pay2})
        verdict = validate_game(G)
        assert not verdict.holds
        w = verdict.witness_dict()
        assert w["player"] == "1" and w["check"] == "section-quasisupermodular"

    def test_single_crossing_failure_caught_on_second_player(self, diamond_lattice):
        # both players paid by the same table: fine for the first orientation,
        # single crossing fails relative to (chain, diamond)
        c = chain_lattice(2, labels=["0", "1"])
        values = {
            ("0", "0"): 2, ("b", "1"): 2, ("a", "0"): 1, ("b", "0"): 1,
            ("1", "0"): 0, ("1", "1"): 0, ("a", "1"): 9, ("0", "1"): 10,
        }
        pay = {(s1, s2): Fraction(values[(s1, s2)]) for s1, s2
               in itertools.product(diamond_lattice.labels, c.labels)}
        G = Game(["1", "2"], {"1": diamond_lattice, "2": c},
                 {"1": RATIONAL, "2": RATIONAL}, {"1": pay, "2": pay})
        verdict = validate_game(G)
        assert not verdict.holds
        w = verdict.witness_dict()
        assert w["player"] == "2" and w["check"] == "single-crossing"


class TestBestResponse:
    def test_first_player_ignores_opponent(self, star_diamond_game):
        G = star_diamond_game
        for s2 in G.strategies["2"].labels:
            br = best_response(G, "1", ("m", s2))
            assert set(br) == {"M", "m", "x2", "x3", "x4", "x5"}

    def test_second_player_plays_top(self, star_diamond_game):
        assert best_response(star_diamond_game, "2", ("m", "0")) == ("1",)

    def test_one_player_constant_payoff(self):
        c = chain_lattice(3)
        pay = {(l,): Fraction(1) for l in c.labels}
        G = Game(["solo"], {"solo": c}, {"solo": RATIONAL}, {"solo": pay})
        assert set(best_response(G, "solo", ("c0",))) == set(c.labels)

    def test_section_matches_argmax(self, step_grid6_game):
        G = step_grid6_game
        S = G.strategies["2"]
        section = LatticeFunction(S, G.codomains["2"],
                                  {s: G.payoffs["2"][("1/3", s)] for s in S.labels})
        assert set(best_response(G, "2", ("1/3", "0"))) == set(argmax_set(section))


class TestIsNash:
    def test_star_diamond_examples(self, star_diamond_game):
        assert is_nash(star_diamond_game, ("M", "1"))
        assert not is_nash(star_diamond_game, ("x1", "1"))
        assert not is_nash(star_diamond_game, ("M", "a"))

    def test_one_player_collapses_to_argmax(self):
        c = chain_lattice(4)
        table = {"c0": 1, "c1": 3, "c2": 0, "c3": 3}
        pay = {(l,): Fraction(v) for l, v in table.items()}
        G = Game(["solo"], {"solo": c}, {"solo": RATIONAL}, {"solo": pay})
        f = LatticeFunction(c, RATIONAL, table)
        winners = set(argmax_set(f))
        for l in c.labels:
            assert is_nash(G, (l,)) == (l in winners)


class TestEnumerate:
    def test_star_diamond_equilibria(self, star_diamond_game):
        report = enumerate_nash(star_diamond_game)
        expected = {(s1, "1") for s1 in ("M", "m", "x2", "x3", "x4", "x5")}
        assert set(report.equilibria) == expected
        assert report.count == 6
        assert report.largest == ("M", "1") and report.least == ("m", "1")

    def test_step_grid_equilibria(self, step_grid6_game):
        report = enumerate_nash(step_grid6_game)
        assert set(report.equilibria) == {("2/3", "1/2"), ("5/6", "1/2"), ("1", "1/2")}

    def test_indicator_grid_equilibria(self, indicator_grid4_game):
        report = enumerate_nash(indicator_grid4_game)
        expected = {(s1, "(1,1)") for s1 in ("1/4", "1/2", "3/4", "1")}
        assert set(report.equilibria) == expected
        assert report.largest == ("1", "(1,1)")
        assert report.least == ("1/4", "(1,1)")  # the grid has one, unlike the continuum

    def test_matches_definition_oracle(self, star_diamond_game, step_grid6_game,
                                       indicator_grid4_game):
        for G in (star_diamond_game, step_grid6_game, indicator_grid4_game):
            assert list(enumerate_nash(G).equilibria) == brute_nash_set(G)

    def test_cap_enforced(self, star_diamond_game):
        with pytest.raises(StateSpaceTooLarge):
            enumerate_nash(star_diamond_game, cap=10)


class TestTarski:
    def test_star_diamond_extremes(self, star_diamond_game):
        report = tarski_extremes(star_diamond_game)
        assert report.largest == ("M", "1") and report.least == ("m", "1")
        assert report.iterations_up <= 2 and report.iterations_down <= 2

    def test_step_grid_extremes(self, step_grid6_game):
        report = tarski_extremes(step_grid6_game)
        assert report.largest == ("1", "1/2") and report.least == ("2/3", "1/2")

    def test_one_player_extremes_are_argmax_extremes(self):
        c = chain_lattice(5)
        table = {"c0": 0, "c1": 2, "c2": 1, "c3": 2, "c4": 0}
        pay = {(l,): Fraction(v) for l, v in table.items()}
        G = Game(["solo"], {"solo": c}, {"solo": RATIONAL}, {"solo": pay})
        report = tarski_extremes(G)
        assert report.largest == ("c3",) and report.least == ("c1",)

    def test_refuses_unvalidated_game(self, diamond_lattice):
        # sectionwise quasisupermodularity fails for this payoff
        pay = {}
        for s1, s2 in itertools.product(diamond_lattice.labels, repeat=2):
            pay[(s1, s2)] = Fraction({"0": 0, "a": 2, "b": 1, "1": 1}[s1])
        G = Game(["1", "2"], {"1": diamond_lattice, "2": diamond_lattice},
                 {"1": RATIONAL, "2": RATIONAL}, {"1": pay, "2": pay})
        assert not validate_game(G).holds
        with pytest.raises(NotValidated):
            tarski_extremes(G)

    @pytest.mark.parametrize("greatest, message", [
        (True, "best response of player 1 against (1) has no greatest element"),
        (False, "best response of player 1 against (0) has no least element"),
    ], ids=["greatest", "least"])
    def test_a_missing_best_response_extremum_is_loud(self, monkeypatch, star_diamond_game,
                                                      greatest, message):
        # a validated game's best responses are a nonempty sublattice with
        # both extrema, so losing one falsifies that theorem
        original = games.extremal_in

        def drop(poset, mask, want_greatest=True):
            return None if want_greatest == greatest else original(poset, mask, want_greatest)

        assert validate_game(star_diamond_game).holds
        monkeypatch.setattr(games, "extremal_in", drop)
        with pytest.raises(TheoremFalsified) as exc:
            tarski_extremes(star_diamond_game)
        assert str(exc.value) == message


class TestStructure:
    def test_star_diamond_structure(self, star_diamond_game):
        report = verify_equilibrium_structure(star_diamond_game)
        assert report.is_complete_lattice
        assert report.sublattice_gap is None
        assert report.certifies == ("order", "topological")

    def test_labeled_gains_certify_order_route_only(self):
        c = chain_lattice(2)
        lab = ChainCodomain.labeled(["lose", "win"])
        pay = {("c0",): "lose", ("c1",): "win"}
        G = Game(["solo"], {"solo": c}, {"solo": lab}, {"solo": pay})
        report = verify_equilibrium_structure(G)
        assert report.certifies == ("order",)
        assert report.equilibria == (("c1",),)

    def test_best_responses_increase_in_strong_set_order(self, star_diamond_game,
                                                         step_grid6_game):
        for G in (star_diamond_game, step_grid6_game):
            for p in G.players:
                corr = best_response_correspondence(G, p)
                assert is_increasing_strong_set_order(corr).holds

    def test_max_selection_of_best_responses_is_monotone(self):
        from latgames import max_selection

        rng = Xoshiro256StarStar(404)
        for _ in range(10):
            G = random_game(rng, max_players=2, max_size=4)
            for p in G.players:
                corr = best_response_correspondence(G, p)
                assert is_increasing_strong_set_order(corr).holds
                sel = max_selection(corr)
                S = G.strategies[p]
                for k, s in enumerate(corr.keys):
                    for k2 in iter_bits(corr.up[k]):
                        assert S.leq(sel[s], sel[corr.keys[k2]])

    def test_best_response_values_are_subcomplete_sublattices(self, step_grid6_game):
        G = step_grid6_game
        for p in G.players:
            for profile in G.profiles():
                flags = classify_subset(G.strategies[p], best_response(G, p, profile))
                assert flags.is_sublattice.holds and flags.is_subcomplete.holds


class TestTarskiFixedPointFormula:
    def test_extremes_match_the_pre_fixed_point_formula(self, star_diamond_game,
                                                        step_grid6_game,
                                                        indicator_grid4_game):
        # independent route: largest = max{y : y <= maxBR(y)} over all profiles,
        # least = min{y : y >= minBR(y)}, computed by raw scan
        def _extremal_br(G, i, y, greatest):
            S, br = G.factors[i], best_response(G, G.players[i], y)
            return next(a for a in br
                        if all(S.leq(b, a) if greatest else S.leq(a, b) for b in br))

        rng = Xoshiro256StarStar(606)
        games = [star_diamond_game, step_grid6_game, indicator_grid4_game]
        games += [random_game(rng, max_players=2, max_size=4) for _ in range(10)]
        for G in games:
            report = tarski_extremes(G)
            pre_up = []
            pre_down = []
            for y in G.profiles():
                max_br = tuple(_extremal_br(G, i, y, True)
                               for i in range(len(G.players)))
                if profile_leq(G, y, max_br):
                    pre_up.append(y)
                min_br = tuple(_extremal_br(G, i, y, False)
                               for i in range(len(G.players)))
                if profile_leq(G, min_br, y):
                    pre_down.append(y)
            largest = [y for y in pre_up if all(profile_leq(G, z, y) for z in pre_up)]
            least = [y for y in pre_down if all(profile_leq(G, y, z) for z in pre_down)]
            assert largest == [report.largest]
            assert least == [report.least]


class TestOrdinalInvariance:
    def test_transforming_one_payoff_leaves_equilibria(self, star_diamond_game):
        G = star_diamond_game
        base = enumerate_nash(G)
        H = G.transformed("2", lambda v: v * 7 - Fraction(2, 5))
        assert validate_game(H).holds
        after = enumerate_nash(H)
        assert after.equilibria == base.equilibria
        assert after.largest == base.largest and after.least == base.least

    def test_transformed_keeps_ranks_and_equals_the_constructor(self, criterion_06_games):
        rng = Xoshiro256StarStar(0xA7_0005)
        for G in criterion_06_games:
            verdict = validate_game(G)
            H = G
            for p in G.players:
                H = H.transformed(p, random_strictly_increasing_map(rng, set(H.values[p])))
                assert (H._validation, H._payoffs, H._equilibria) == (None, None, None)
                assert not any(H._br_cache) and not any(H._covers)
            assert H.ranks == G.ranks
            rebuilt = Game(G.players, G.strategies, G.codomains, H.values)
            assert serialize(H) == serialize(rebuilt)
            assert validate_game(H) == validate_game(rebuilt) == verdict


class TestRandomGameGenerator:
    def test_generated_games_validate_and_agree(self):
        rng = Xoshiro256StarStar(2025)
        for _ in range(25):
            G = random_game(rng, max_players=3, max_size=4)
            assert validate_game(G).holds
            report = enumerate_nash(G)
            assert report.count > 0
            tarski = tarski_extremes(G)
            assert tarski.largest == report.largest
            assert tarski.least == report.least
