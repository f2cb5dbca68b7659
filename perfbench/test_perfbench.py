"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They write only under ``.perfbench_tmp/`` in the checkout.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import latgames.cli  # noqa: E402
from latgames.functions import LatticeFunction  # noqa: E402
from latgames.games import Game  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 11

# A cheap slice of each workload, chosen to cover every command kind.
SAMPLES = {
    "game-solve": ("solve:ladder:2x8", "solve:plateau:2x6", "zhou:plateau:3x3",
                   "check-game:planted:2x16"),
    "game-random": tuple(f"{verb}:random:{k:03d}" for k in range(5) for verb in ("solve", "zhou")),
    "order-checks": ("check-function:grid-base:8x8", "check-function:grid-transformed:8x8",
                     "check-function:grid-planted:8x8", "kuku:grid:5x5", "ucs:grid:5x5",
                     "check-lattice:closure", "check-lattice:diamond20",
                     "check-lattice:chain64", "transfer:grid2x5"),
}


@pytest.fixture
def scratch():
    path = HERE.parent / ".perfbench_tmp" / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path)


class ConstructionLog:
    """Records which phase built each Game and LatticeFunction.  The objects
    are kept alive so that their ids stay unique."""

    def __init__(self):
        self.phase = "setup"
        self.built = {}
        self._keep = []
        self._patched = []

    def __enter__(self):
        for cls in (Game, LatticeFunction):
            original = cls.__init__

            def init(obj, *args, _original=original, **kwargs):
                _original(obj, *args, **kwargs)
                self.built[id(obj)] = self.phase
                self._keep.append(obj)

            cls.__init__ = init
            self._patched.append((cls, original))
        return self

    def __exit__(self, *exc):
        for cls, original in self._patched:
            cls.__init__ = original


def _run_samples(workload, docs, log):
    """Build the workload, then run its sample commands with every layer
    function checking that each Game or LatticeFunction it receives was
    built by the command that is running."""
    writer = workloads.build(workload, SEED, str(docs))
    commands = {c["id"]: c for c in writer.commands}
    stale = []
    installed = []

    def guard(fn):
        def checked(*args, **kwargs):
            for a in list(args) + list(kwargs.values()):
                if isinstance(a, (Game, LatticeFunction)) and log.built.get(id(a)) != log.phase:
                    stale.append((log.phase, fn.__name__, log.built.get(id(a))))
            return fn(*args, **kwargs)
        return checked

    for module, function in spans.LAYER_FUNCTIONS:
        if module != "cli":
            original = getattr(sys.modules[f"latgames.{module}"], function)
            installed += spans.rebind(original, guard(original))
    os.chdir(docs)
    try:
        for cid in SAMPLES[workload]:
            log.phase = cid
            code, out, _, error = worker.run_command(latgames.cli.main, commands[cid]["argv"])
            assert error is None and code in (0, 1), (cid, error, code)
            assert oracle.Oracle(str(docs)).check(commands[cid], code, out) is None, cid
    finally:
        spans.restore(installed)
    return stale


@pytest.mark.parametrize("workload", sorted(SAMPLES))
def test_no_timed_command_uses_a_setup_object(workload, scratch):
    with ConstructionLog() as log:
        stale = _run_samples(workload, scratch, log)
    assert "setup" in log.built.values()
    assert any(phase != "setup" for phase in log.built.values())
    assert stale == []


def test_same_seed_gives_same_documents(scratch):
    digests = []
    for k, seed in enumerate((SEED, SEED, SEED + 1)):
        docs = scratch / f"d{k}"
        docs.mkdir()
        w = workloads.build("order-checks", seed, str(docs))
        digests.append(worker.docs_digest(str(docs), w.commands))
    assert digests[0] == digests[1] != digests[2]


def _output(docs, cmd):
    os.chdir(docs)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = latgames.cli.main(cmd["argv"])
    return code, buf.getvalue()


def test_oracle_rejects_altered_reports(scratch):
    w = workloads.build("order-checks", SEED, str(scratch))
    commands = {c["id"]: c for c in w.commands}
    check = oracle.Oracle(str(scratch)).check

    cmd = commands["check-function:grid-transformed:8x8"]
    code, out = _output(scratch, cmd)
    assert check(cmd, code, out) is None
    lines = out.splitlines()
    assert lines[1].startswith("PROPERTY supermodular FAIL x=")
    # A pair that is comparable can never witness a supermodularity failure.
    bogus = lines[:1] + ["PROPERTY supermodular FAIL x=(0,0) y=(1,1)"] + lines[2:]
    assert "re-check" in check(cmd, code, "\n".join(bogus) + "\n")
    assert "exit code" in check(cmd, 0, out)

    cmd = commands["kuku:grid:5x5"]
    code, out = _output(scratch, cmd)
    assert check(cmd, code, out) is None
    assert check(cmd, code, out.replace("ARGMAX ", "ARGMAX (0,0) ")) is not None


def test_oracle_predicts_planted_game_witness(scratch):
    w = workloads.build("game-solve", SEED, str(scratch))
    cmd = next(c for c in w.commands if c["family"] == "planted-ladder")
    code, out = _output(scratch, cmd)
    assert code == 1 and "check=single-crossing p=c14 p2=c15" in out
    assert oracle.Oracle(str(scratch)).check(cmd, code, out) is None
    assert oracle.Oracle(str(scratch)).check(cmd, code, out.replace("q2=", "q2=x")) is not None


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert set(run.WORKLOADS) == set(workloads.BUILDERS)
    assert run.tail(list(range(19))) == (18, 100.0)
    value, pct = run.tail(list(range(1000)))
    assert value == 989 and pct == pytest.approx(99.0)


def test_tracer_restores_the_program_and_accounts_self_time(scratch):
    import latgames.reports as reports

    original = reports.validate_game
    w = workloads.build("game-solve", SEED, str(scratch))
    cmd = next(c for c in w.commands if c["id"] == "solve:ladder:2x8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert reports.validate_game is not original
        _output(scratch, cmd)
    finally:
        tracer.uninstall()
    assert reports.validate_game is original
    snap = tracer.snapshot()["spans"]
    calls, busy, self_s = snap["games.validate_game"]
    assert calls == 2  # solve validates, then tarski_extremes asks again
    assert 0 < self_s <= busy
    assert snap["cli.main"][0] == 1 and snap["io.parse"][0] == 1
    assert tracer.snapshot()["counters"]["games.equilibria"] == 1
