"""Frozen worked-example corpus.

Each entry pairs an instance file with a frozen expected report.  The runner
re-executes the entry's checks and diffs the output against the expectation;
any drift is a build-breaking failure.  Expectations are only ever rewritten
through an explicit refreeze.
"""
from __future__ import annotations

import difflib
from dataclasses import dataclass
from pathlib import Path

from .. import reports
from ..errors import ExpectationMismatch, ParseError
from ..functions import LatticeFunction
from ..games import Game
from ..io import load_path
from ..lattice import FiniteLattice

DATA = Path(__file__).parent / "data"


@dataclass(frozen=True)
class CorpusEntry:
    """One frozen example: instance file, checks to run, optional context note.

    ``checks`` is a tuple of (check, *args) tuples understood by ``run_entry``;
    a transfer or topo-usc check names its topology as ``reports.topology_family``
    reads it, a document by its file name in ``DATA``.
    ``note`` is emitted verbatim as a NOTE line: it states which finite
    behavior the entry certifies, especially where a continuum original
    behaves differently.
    """

    name: str
    checks: tuple
    note: str | None = None

    @property
    def instance_path(self) -> Path:
        return DATA / f"{self.name}.json"

    @property
    def expected_path(self) -> Path:
        return DATA / f"{self.name}.expected.txt"


ENTRIES = (
    CorpusEntry(
        name="veinott_single_crossing",
        checks=(("single-crossing", 0), ("sections-qsm", 0), ("qsm",)),
        note="single crossing with quasisupermodular sections does not force joint "
             "quasisupermodularity; the failing pair meets at value 2 and joins at value 0",
    ),
    CorpusEntry(
        name="sum_counterexample_f",
        checks=(("supermodular",), ("qsm",)),
    ),
    CorpusEntry(
        name="sum_counterexample_g",
        checks=(("qsm",), ("supermodular",)),
        note="quasisupermodular but not supermodular: ordinal conditions survive "
             "where the additive one fails",
    ),
    CorpusEntry(
        name="sum_counterexample_h",
        checks=(("qsm",),),
        note="pointwise sum of the two quasisupermodular tables f and g; "
             "quasisupermodularity is not closed under addition",
    ),
    CorpusEntry(
        name="grid_embedding_not_sublattice",
        checks=(("classify", ("(1,1)", "(2,3)", "(3,2)", "(4,5)")),),
        note="the four points form a diamond under the induced order but are not a "
             "sublattice of the ambient grid: the componentwise meet of (2,3) and (3,2) "
             "is (2,2), outside the set",
    ),
    CorpusEntry(
        name="star_argmax",
        checks=(("kuku",),),
        note="indicator-style table on the seven-element star: the maximizer set drops "
             "one midpoint and is still a subcomplete sublattice",
    ),
    CorpusEntry(
        name="star_transfer",
        checks=(("transfer", "interval"), ("topo-usc", "interval")),
        note="on a finite carrier the interval topology is discrete, so the punctured "
             "star is closed and transfer upper continuity holds; over an infinite "
             "antichain the same construction has a non-closed maximizer set and fails it",
    ),
    CorpusEntry(
        name="game_star_diamond",
        checks=(("solve-both",),),
        note="equilibria are every non-punctured first coordinate paired with the top "
             "of the diamond",
    ),
    CorpusEntry(
        name="game_step_grid6",
        checks=(("solve-both",),),
        note="sixth-step grid restriction of a continuous game whose equilibrium set is "
             "the segment [2/3,1] x {1/2}; the grid reproduces its largest and least points",
    ),
    CorpusEntry(
        name="game_indicator_grid4",
        checks=(("solve-both",),),
        note="quarter-step grid restriction of a continuous game with equilibria "
             "(0,1] x {(1,1)}: the largest equilibrium (1,1,1) is reproduced exactly, and "
             "the grid has a least equilibrium at its smallest positive step while the "
             "continuum has none",
    ),
    CorpusEntry(
        name="single_crossing_not_increasing_differences",
        checks=(("single-crossing", 1), ("incr-diff", 1)),
        note="(s1+1)(s2-s2^2) on the sixth-step square: relative to (second, first) "
             "coordinate the scaling by s1+1 never flips a preference, so single crossing "
             "holds, while increasing differences fail on the downhill side of the "
             "parabola; single crossing is not symmetric and fails the other way around",
    ),
    CorpusEntry(
        name="transfer_weak_only",
        checks=(("transfer", "down_topology_chain3.json"),),
        note="with only down-sets closed, every open neighborhood of the valley meets "
             "the maximizer set: weak transfer upper continuity holds, the strict form fails",
    ),
    CorpusEntry(
        name="transfer_upper_not_topological",
        checks=(("transfer", "down_topology_chain3.json"),
                ("topo-usc", "down_topology_chain3.json")),
        note="the maximizer set is closed (transfer upper continuity holds) while an "
             "intermediate level set is not, so topological upper semicontinuity fails",
    ),
    CorpusEntry(
        name="weak_level_monotonicity_gap",
        checks=(("weak-veinott",), ("qsm",)),
        note="a strict quasisupermodularity failure with slack breaks level-set "
             "monotonicity in the weak Veinott sense",
    ),
    CorpusEntry(
        name="chain_function_qsm",
        checks=(("qsm",), ("supermodular",)),
        note="on a chain domain every pair is comparable, so both conditions hold "
             "for any table",
    ),
    CorpusEntry(
        name="labeled_gains",
        checks=(("qsm",),),
        note="gains on a labeled chain: positions, not arithmetic, decide every comparison",
    ),
    CorpusEntry(
        name="game_even_weight_cube",
        checks=(("solve-both",),),
        note="unvalidated game (single crossing fails), so no theorem covers it: the "
             "equilibria 000, 011, 101, 110, 111 form a complete lattice in the induced "
             "order but not a sublattice of the cube, although every two-player "
             "projection is the full square",
    ),
)

_BY_NAME = {entry.name: entry for entry in ENTRIES}


def entry_names() -> tuple:
    return tuple(entry.name for entry in ENTRIES)


def get_entry(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ParseError(f"unknown corpus entry {name!r}") from None


def run_entry(entry: CorpusEntry) -> str:
    """Execute the entry's checks and return the report text."""
    _, instance = load_path(entry.instance_path)
    lines = []
    for check in entry.checks:
        head, args = check[0], check[1:]
        if head == "classify":
            chunk, _ = reports.classify_report(instance, args[0])
        elif head == "kuku":
            chunk, _ = reports.kuku_report(instance)
        elif head == "weak-veinott":
            chunk, _ = reports.weak_veinott_report(instance)
        elif head == "solve-both":
            chunk, _ = reports.solve_report(instance, method="both")
        elif head in ("transfer", "topo-usc"):
            family = reports.topology_family(args[0], instance.domain, DATA)
            chunk, _ = reports.function_property_report(instance, head, family=family)
        else:
            split = args[0] if args else 0
            chunk, _ = reports.function_property_report(instance, head, split=split)
        lines.extend(chunk)
    if entry.note:
        lines.append(f"NOTE {entry.note}")
    return "\n".join(lines) + "\n"


def run_corpus(name: str | None = None):
    """Run entries and diff against frozen expectations.

    Returns a list of (name, passed, diff) triples in corpus order.
    """
    entries = (get_entry(name),) if name else ENTRIES
    results = []
    for entry in entries:
        actual = run_entry(entry)
        try:
            expected = entry.expected_path.read_text(encoding="utf-8")
        except OSError:
            expected = None
        if expected is None:
            results.append((entry.name, False, "expectation file is missing; run --refreeze"))
            continue
        if actual == expected:
            results.append((entry.name, True, ""))
        else:
            diff = "\n".join(difflib.unified_diff(
                expected.splitlines(), actual.splitlines(),
                fromfile="expected", tofile="actual", lineterm=""))
            results.append((entry.name, False, diff))
    return results


def check_corpus(name: str | None = None) -> None:
    """Raise ExpectationMismatch on the first drifted entry."""
    for entry_name, passed, diff in run_corpus(name):
        if not passed:
            raise ExpectationMismatch(entry_name, diff)


def refreeze(name: str | None = None) -> tuple:
    """Rewrite expectation files from current outputs.  Explicit only."""
    entries = (get_entry(name),) if name else ENTRIES
    written = []
    for entry in entries:
        entry.expected_path.write_text(run_entry(entry), encoding="utf-8")
        written.append(entry.name)
    return tuple(written)


def corpus_lattices(max_size: int | None = None) -> tuple:
    """Distinct lattices appearing in corpus instances (domains, strategy
    spaces, and function domains' factors), optionally capped by size."""
    seen = []

    def add(L):
        if all(L != other for other in seen):
            seen.append(L)
        if L.factors:
            for f in L.factors:
                add(f)

    for entry in ENTRIES:
        _, instance = load_path(entry.instance_path)
        if isinstance(instance, FiniteLattice):
            add(instance)
        elif isinstance(instance, LatticeFunction):
            add(instance.domain)
        elif isinstance(instance, Game):
            for p in instance.players:
                add(instance.strategies[p])
    if max_size is not None:
        seen = [L for L in seen if L.n <= max_size]
    return tuple(seen)
