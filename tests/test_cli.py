"""command-line behavior: exit codes, report lines, file handling."""
import json

import pytest

from latgames import LatticeFunction
from latgames.cli import main
from latgames.corpus import DATA

from conftest import RATIONAL, with_join_entry

VEINOTT = DATA / "veinott_single_crossing.json"
SUM_H = DATA / "sum_counterexample_h.json"
STAR_GAME = DATA / "game_star_diamond.json"
STEP_GAME = DATA / "game_step_grid6.json"
STAR_FN = DATA / "star_argmax.json"
GRID45 = DATA / "grid_embedding_not_sublattice.json"
DOWN_TOPO = DATA / "down_topology_chain3.json"
WEAK_ONLY = DATA / "transfer_weak_only.json"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestCheckLattice:
    def test_valid_lattice(self, capsys, tmp_path):
        doc = {"elements": ["0", "1", "a", "b"],
               "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "check-lattice", path)
        assert code == 0
        assert "PROPERTY lattice PASS" in out
        assert "LEAST 0" in out and "GREATEST 1" in out

    def test_antichain_exits_one_with_witness(self, capsys, tmp_path):
        path = tmp_path / "anti.json"
        path.write_text(json.dumps({"elements": ["x", "y"], "covers": []}))
        code, out = run(capsys, "check-lattice", path)
        assert code == 1
        assert "PROPERTY lattice FAIL pair=x,y missing=lub" in out

    def test_malformed_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"elements": [], "covers": []}))
        code, out = run(capsys, "check-lattice", path)
        assert code == 2
        assert out.startswith("ERROR ParseError")

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, out = run(capsys, "check-lattice", tmp_path / "nope.json")
        assert code == 2

    def test_product_labels_that_encode_alike_exit_two(self, capsys, tmp_path):
        # ("a", "b,c") and ("a,b", "c") would both be labelled (a,b,c).
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({"product": [
            {"elements": ["a", "a,b"], "covers": [["a", "a,b"]]},
            {"elements": ["b,c", "c"], "covers": [["c", "b,c"]]}]}))
        code, out = run(capsys, "check-lattice", path)
        assert code == 2
        assert out.startswith("ERROR DuplicateLabel") and "'(a,b,c)'" in out


class TestMalformedDocuments:
    """Ill-typed labels are malformed input: exit 2 with a ParseError line,
    never a traceback (which would exit 1, the "property fails" code)."""

    @staticmethod
    def _run_cli(tmp_path, command, doc):
        return TestMalformedDocuments._run_bytes(tmp_path, command, json.dumps(doc).encode())

    @staticmethod
    def _run_bytes(tmp_path, command, data):
        import subprocess
        import sys

        path = tmp_path / "doc.json"
        path.write_bytes(data)
        return subprocess.run([sys.executable, "-m", "latgames.cli", command, str(path)],
                              capture_output=True, text=True)

    def _assert_parse_error(self, proc):
        assert proc.returncode == 2
        assert proc.stdout.startswith("ERROR ParseError")
        assert "Traceback" not in proc.stderr

    def test_nesting_deeper_than_the_decoder_allows(self, tmp_path):
        self._assert_parse_error(
            self._run_bytes(tmp_path, "solve", b"[" * 5000 + b"]" * 5000))

    def test_integer_longer_than_the_digit_limit(self, tmp_path):
        self._assert_parse_error(
            self._run_bytes(tmp_path, "solve", b'{"players": ' + b"9" * 5000 + b"}"))

    def test_bytes_that_are_not_utf8(self, tmp_path):
        self._assert_parse_error(self._run_bytes(tmp_path, "solve", b"\xff\xfe{}"))

    def test_cover_with_a_list_label(self, tmp_path):
        proc = self._run_cli(tmp_path, "check-lattice",
                             {"elements": ["a", "b"], "covers": [["a", ["b"]]]})
        assert proc.returncode == 2
        assert proc.stdout.startswith("ERROR ParseError")
        assert "Traceback" not in proc.stderr

    def test_player_id_that_is_a_list(self, tmp_path):
        proc = self._run_cli(tmp_path, "check-game",
                             {"players": [["x"]], "strategies": {}, "codomains": {},
                              "payoffs": {}})
        assert proc.returncode == 2
        assert proc.stdout.startswith("ERROR ParseError")
        assert "Traceback" not in proc.stderr


class TestCheckFunction:
    def test_successive_calls_keep_their_own_properties(self, capsys):
        code, out = run(capsys, "check-function", VEINOTT,
                        "--property", "single-crossing", "--property", "qsm")
        assert code == 1
        assert [line.split()[1] for line in out.splitlines()] == [
            "single-crossing", "quasisupermodular"]
        code, out = run(capsys, "check-function", VEINOTT, "--property", "supermodular")
        assert [line.split()[1] for line in out.splitlines()] == ["supermodular"]
        code, out = run(capsys, "check-function", VEINOTT)
        assert [line.split()[1] for line in out.splitlines()] == ["quasisupermodular"]

    def test_quasisupermodular_failure_witness(self, capsys):
        code, out = run(capsys, "check-function", SUM_H, "--property", "qsm")
        assert code == 1
        assert "PROPERTY quasisupermodular FAIL" in out
        assert "x=(3,2)" in out and "y=(2,3)" in out

    def test_multiple_properties(self, capsys):
        code, out = run(capsys, "check-function", VEINOTT,
                        "--property", "single-crossing", "--property", "sections-qsm")
        assert code == 0
        assert "PROPERTY single-crossing PASS" in out
        assert "PROPERTY sections-quasisupermodular PASS" in out

    def test_transfer_with_file_topology(self, capsys):
        code, out = run(capsys, "check-function", WEAK_ONLY,
                        "--property", "transfer", "--topology", DOWN_TOPO)
        assert code == 1
        assert "PROPERTY transfer-upper FAIL x=c0 y=c1" in out
        assert "PROPERTY transfer-weak-upper PASS" in out

    def test_transfer_defaults_to_interval(self, capsys):
        code, out = run(capsys, "check-function", STAR_FN, "--property", "transfer")
        assert code == 0
        assert "PROPERTY transfer-upper PASS" in out

    def test_default_property_is_qsm(self, capsys):
        code, out = run(capsys, "check-function", STAR_FN)
        assert code == 0
        assert "PROPERTY quasisupermodular PASS" in out


class TestCheckGameAndSolve:
    def test_check_game(self, capsys):
        code, out = run(capsys, "check-game", STAR_GAME)
        assert code == 0
        assert "PROPERTY validated PASS" in out

    def test_solve_both_agrees(self, capsys):
        code, out = run(capsys, "solve", STAR_GAME, "--method", "both")
        assert code == 0
        assert "COUNT 6" in out
        assert "LARGEST M 1" in out and "LEAST m 1" in out
        assert "TARSKI-LARGEST M 1" in out
        assert "PROPERTY method-agreement PASS" in out

    def test_solve_enumerate_only(self, capsys):
        code, out = run(capsys, "solve", STEP_GAME, "--method", "enumerate")
        assert code == 0
        assert "EQUILIBRIUM 2/3 1/2" in out
        assert "TARSKI-LARGEST" not in out

    def test_solve_cap_exits_two(self, capsys):
        code, out = run(capsys, "solve", STAR_GAME, "--cap", "3")
        assert code == 2
        assert "StateSpaceTooLarge" in out


class TestVerify:
    def test_kuku(self, capsys):
        code, out = run(capsys, "verify", STAR_FN, "--theorem", "kuku")
        assert code == 0
        assert "ARGMAX M m x2 x3 x4 x5" in out
        assert "PROPERTY argmax-subcomplete PASS" in out

    def test_veinott(self, capsys, tmp_path):
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps({"elements": ["0", "1", "a", "b"],
                                    "covers": [["0", "a"], ["0", "b"],
                                               ["a", "1"], ["b", "1"]]}))
        code, out = run(capsys, "verify", path, "--theorem", "veinott")
        assert code == 0
        assert "PROPERTY subcomplete-iff-sublattice PASS" in out

    def test_chaincls(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"elements": ["0", "1", "2"],
                                    "covers": [["0", "1"], ["1", "2"]]}))
        code, out = run(capsys, "verify", path, "--theorem", "chaincls")
        assert code == 0
        assert "PROPERTY interval-closed-chain-subcomplete PASS" in out

    def test_veinott_cap_exits_two_with_size(self, capsys, tmp_path):
        labels = [f"c{i:02d}" for i in range(15)]
        path = tmp_path / "chain15.json"
        path.write_text(json.dumps({"elements": labels,
                                    "covers": [list(c) for c in zip(labels, labels[1:])]}))
        code, out = run(capsys, "verify", path, "--theorem", "veinott")
        assert code == 2
        assert out.startswith("ERROR CapExceeded")
        assert "15-element" in out

    def test_ucs_and_kuku_on_a_12x12_grid_function(self, capsys, tmp_path):
        # 144 elements: far beyond any chain enumeration, one table check.
        path = tmp_path / "grid12.json"
        run(capsys, "generate", "--seed", "6", "--family", "grid", "--dims", "12x12",
            "--payoff", "supermodular_then_transform", "--out", path)
        code, out = run(capsys, "check-function", path, "--property", "ucs")
        assert (code, out) == (0, "PROPERTY upper-chain-subcomplete PASS\n")
        code, out = run(capsys, "verify", path, "--theorem", "kuku")
        assert code == 0
        assert "PROPERTY upper-chain-subcomplete PASS" in out
        assert "PROPERTY argmax-subcomplete PASS" in out

    def test_corrupted_join_table_exits_two(self, capsys, monkeypatch, diamond_lattice):
        # Files cannot carry such a table (io builds lattices through
        # check_lattice), so the loaded instance is replaced.
        from latgames import cli

        bad = with_join_entry(diamond_lattice, "a", "b", "a")
        f = LatticeFunction(bad, RATIONAL, dict.fromkeys(bad.labels, 0))
        monkeypatch.setattr(cli, "load_path", lambda path: ("function", f))
        for argv in (["check-function", "f.json", "--property", "ucs"],
                     ["verify", "f.json", "--theorem", "kuku"]):
            code, out = run(capsys, *argv)
            assert code == 2
            assert out.startswith("ERROR InvariantViolation: join table entry (a, b) is a")

    def test_zhou(self, capsys):
        code, out = run(capsys, "verify", STEP_GAME, "--theorem", "zhou")
        assert code == 0
        assert "PROPERTY complete-lattice PASS" in out
        assert "PROPERTY tarski-agreement PASS" in out
        assert "PROPERTY best-response-strong-set-order:1 PASS" in out


class TestUnvalidatedGame:
    @staticmethod
    def _write_unvalidated(tmp_path):
        import itertools
        from fractions import Fraction

        from latgames import ChainCodomain, Game
        from latgames.generators import diamond
        from latgames.io import save_path

        D = diamond()
        rat = ChainCodomain.rational()
        pay = {}
        for s1, s2 in itertools.product(D.labels, repeat=2):
            pay[(s1, s2)] = Fraction({"0": 0, "a": 2, "b": 1, "1": 1}[s1])
        G = Game(["1", "2"], {"1": D, "2": D}, {"1": rat, "2": rat},
                 {"1": pay, "2": pay})
        path = tmp_path / "unvalidated.json"
        save_path(path, G)
        return path

    def test_check_game_fails_with_player_witness(self, capsys, tmp_path):
        path = self._write_unvalidated(tmp_path)
        code, out = run(capsys, "check-game", path)
        assert code == 1
        assert "PROPERTY validated FAIL" in out
        assert "player=1" in out and "check=section-quasisupermodular" in out

    def test_solve_enumerates_but_skips_tarski(self, capsys, tmp_path):
        path = self._write_unvalidated(tmp_path)
        code, out = run(capsys, "solve", path, "--method", "both")
        assert code == 1
        assert "PROPERTY validated FAIL" in out
        assert "COUNT" in out              # enumeration still reported
        assert "TARSKI-LARGEST" not in out  # refused without validation

    def test_verify_zhou_exits_one(self, capsys, tmp_path):
        path = self._write_unvalidated(tmp_path)
        code, out = run(capsys, "verify", path, "--theorem", "zhou")
        assert code == 1


class TestGenerate:
    def test_write_and_reparse(self, capsys, tmp_path):
        out_path = tmp_path / "m5.json"
        code, out = run(capsys, "generate", "--seed", "1", "--family", "diamond_Mk",
                        "--k", "5", "--out", out_path)
        assert code == 0 and f"WROTE {out_path} lattice" in out
        code, out = run(capsys, "check-lattice", out_path)
        assert code == 0

    def test_stdout_deterministic(self, capsys):
        _, first = run(capsys, "generate", "--seed", "9", "--family", "grid",
                       "--dims", "2x3", "--payoff", "supermodular_then_transform")
        _, second = run(capsys, "generate", "--seed", "9", "--family", "grid",
                        "--dims", "2x3", "--payoff", "supermodular_then_transform")
        assert first == second
        assert json.loads(first)["codomain"] == {"kind": "rational"}

    @staticmethod
    def _generate_grid(*argv):
        import subprocess
        import sys

        return subprocess.run([sys.executable, "-m", "latgames.cli", "generate", "--seed", "1",
                               "--family", "grid", *argv], capture_output=True, text=True)

    @pytest.mark.parametrize("dims", ["3xa", "3x", "x"])
    def test_malformed_dims_exit_two_with_usage(self, dims):
        proc = self._generate_grid("--dims", dims)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "argument --dims: expected dimensions" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_out_in_a_missing_directory_exits_two(self, tmp_path):
        out_path = tmp_path / "missing" / "grid.json"
        proc = self._generate_grid("--dims", "2x2", "--out", str(out_path))
        assert proc.returncode == 2
        assert proc.stdout.startswith(f"ERROR ParseError: cannot write {out_path}")
        assert "Traceback" not in proc.stderr

    def test_generated_function_passes_checker(self, capsys, tmp_path):
        out_path = tmp_path / "fn.json"
        run(capsys, "generate", "--seed", "4", "--family", "grid", "--dims", "3x3",
            "--payoff", "rejection", "--out", out_path)
        code, out = run(capsys, "check-function", out_path, "--property", "qsm")
        assert code == 0


class TestCorpusCommand:
    def test_corpus_run_all(self, capsys):
        code, out = run(capsys, "corpus", "run")
        assert code == 0
        assert "MISMATCH" not in out
        assert out.count("ENTRY") >= 16

    def test_corpus_run_single(self, capsys):
        code, out = run(capsys, "corpus", "run", "veinott_single_crossing")
        assert code == 0
        assert out.strip() == "ENTRY veinott_single_crossing OK"

    def test_corpus_unknown_entry(self, capsys):
        code, out = run(capsys, "corpus", "run", "no_such_entry")
        assert code == 2


class TestSubsetClassificationViaGrid:
    def test_grid_lattice_checks(self, capsys):
        code, out = run(capsys, "check-lattice", GRID45)
        assert code == 0
        assert "LEAST (1,1)" in out and "GREATEST (4,5)" in out
