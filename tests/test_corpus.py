"""corpus integrity: every frozen expectation reproduces, drift is caught."""
import shutil

import pytest

from latgames import corpus
from latgames.cli import main
from latgames.corpus import (
    DATA,
    ENTRIES,
    check_corpus,
    corpus_lattices,
    entry_names,
    get_entry,
    run_corpus,
    run_entry,
)
from latgames.errors import ExpectationMismatch, ParseError


class TestRegistry:
    def test_every_entry_has_instance_and_expectation(self):
        for entry in ENTRIES:
            assert entry.instance_path.exists(), entry.name
            assert entry.expected_path.exists(), entry.name

    def test_names_unique(self):
        names = entry_names()
        assert len(names) == len(set(names))

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            get_entry("missing")


class TestRun:
    def test_all_entries_match_frozen_expectations(self):
        results = run_corpus()
        failed = [(name, diff) for name, passed, diff in results if not passed]
        assert not failed, failed

    def test_check_corpus_passes(self):
        check_corpus()

    def test_reports_end_with_newline_and_note(self):
        for entry in ENTRIES:
            text = run_entry(entry)
            assert text.endswith("\n")
            if entry.note:
                assert f"NOTE {entry.note}" in text

    def test_tampering_is_detected(self, monkeypatch, tmp_path):
        entry = get_entry("chain_function_qsm")
        fake = tmp_path / "chain_function_qsm.expected.txt"
        fake.write_text(entry.expected_path.read_text().replace("PASS", "FAIL"))
        monkeypatch.setattr(type(entry), "expected_path",
                            property(lambda self: fake if self.name == "chain_function_qsm"
                                     else DATA / f"{self.name}.expected.txt"))
        with pytest.raises(ExpectationMismatch):
            check_corpus("chain_function_qsm")


class TestCommandLine:
    """``corpus run`` on a copy of the data directory, so that no test
    writes into the package."""

    @pytest.fixture
    def data(self, monkeypatch, tmp_path):
        copy = tmp_path / "data"
        shutil.copytree(DATA, copy)
        monkeypatch.setattr(corpus, "DATA", copy)
        return copy

    def test_refreeze_rewrites_every_expectation_as_frozen(self, capsys, data):
        for path in data.glob("*.expected.txt"):
            path.write_text("stale\n", encoding="utf-8")
        assert main(["corpus", "run", "--refreeze"]) == 0
        assert capsys.readouterr().out == "".join(f"ENTRY {name} REFROZEN\n"
                                                  for name in entry_names())
        for entry in ENTRIES:
            name = f"{entry.name}.expected.txt"
            assert (data / name).read_bytes() == (DATA / name).read_bytes(), name
        assert main(["corpus", "run"]) == 0

    def test_refreeze_of_one_entry_writes_only_it(self, capsys, data):
        for path in data.glob("*.expected.txt"):
            path.write_text("stale\n", encoding="utf-8")
        assert main(["corpus", "run", "labeled_gains", "--refreeze"]) == 0
        assert capsys.readouterr().out == "ENTRY labeled_gains REFROZEN\n"
        assert sorted(path.name for path in data.glob("*.expected.txt")
                      if path.read_text(encoding="utf-8") != "stale\n") == [
            "labeled_gains.expected.txt"]

    def test_mismatch_prints_the_indented_diff_and_exits_one(self, capsys, data):
        path = data / "chain_function_qsm.expected.txt"
        path.write_text(path.read_text(encoding="utf-8").replace("PROPERTY supermodular PASS",
                                                                 "PROPERTY supermodular FAIL"))
        assert main(["corpus", "run", "chain_function_qsm"]) == 1
        assert capsys.readouterr().out == (
            "ENTRY chain_function_qsm MISMATCH\n"
            "  --- expected\n"
            "  +++ actual\n"
            "  @@ -1,3 +1,3 @@\n"
            "   PROPERTY quasisupermodular PASS\n"
            "  -PROPERTY supermodular FAIL\n"
            "  +PROPERTY supermodular PASS\n"
            "   NOTE on a chain domain every pair is comparable, so both conditions hold "
            "for any table\n")

    def test_missing_expectation_file_is_a_mismatch(self, capsys, data):
        (data / "star_argmax.expected.txt").unlink()
        assert main(["corpus", "run"]) == 1
        out = capsys.readouterr().out
        assert "ENTRY star_argmax MISMATCH\n  expectation file is missing; run --refreeze\n" in out
        assert out.count("MISMATCH") == 1
        assert out.count(" OK\n") == len(ENTRIES) - 1


class TestFrozenFacts:
    def test_grid_least_equilibrium_contrast_is_documented(self):
        text = (DATA / "game_indicator_grid4.expected.txt").read_text()
        assert "LEAST 1/4 (1,1)" in text
        assert "least equilibrium" in text and "continuum has none" in text

    def test_witness_values_in_veinott_expectation(self):
        text = (DATA / "veinott_single_crossing.expected.txt").read_text()
        assert "PROPERTY quasisupermodular FAIL" in text
        assert "meets at value 2 and joins at value 0" in text

    def test_converse_witnesses_present(self):
        # each one-way implication has a frozen instance showing the converse fails
        g = (DATA / "sum_counterexample_g.expected.txt").read_text()
        assert "PROPERTY quasisupermodular PASS" in g
        assert "PROPERTY supermodular FAIL" in g
        sc = (DATA / "single_crossing_not_increasing_differences.expected.txt").read_text()
        assert "PROPERTY single-crossing PASS" in sc
        assert "PROPERTY increasing-differences FAIL" in sc
        tw = (DATA / "transfer_weak_only.expected.txt").read_text()
        assert "PROPERTY transfer-upper FAIL" in tw
        assert "PROPERTY transfer-weak-upper PASS" in tw
        tu = (DATA / "transfer_upper_not_topological.expected.txt").read_text()
        assert "PROPERTY transfer-upper PASS" in tu
        assert "PROPERTY topological-usc FAIL" in tu

    def test_even_weight_cube_is_complete_with_a_sublattice_gap(self):
        text = (DATA / "game_even_weight_cube.expected.txt").read_text()
        assert "PROPERTY complete-lattice PASS" in text
        assert "SUBLATTICE-GAP x=(0,1,1) y=(1,0,1) op=meet value=(0,0,1)" in text


class TestCanonicalInstanceFiles:
    def test_every_instance_file_is_byte_canonical(self):
        # parse -> serialize reproduces each committed file exactly
        from latgames.io import load_path, serialize

        for entry in ENTRIES:
            kind, instance = load_path(entry.instance_path)
            assert serialize(instance) == entry.instance_path.read_text(encoding="utf-8"), entry.name
        topo = DATA / "down_topology_chain3.json"
        kind, spec = load_path(topo)
        from latgames.io import serialize as ser
        assert ser(spec) == topo.read_text(encoding="utf-8")


class TestCorpusLattices:
    def test_collection_nonempty_and_capped(self):
        small = corpus_lattices(8)
        assert small
        assert all(L.n <= 8 for L in small)
        sizes = sorted({L.n for L in small})
        assert 7 in sizes  # the star and the sixth-step chain
        assert 4 in sizes
