"""Line-oriented report builders shared by the CLI and the corpus runner.

One ``PROPERTY name VERDICT [witness]`` line per check; all ordering is
canonical so reports are stable enough for golden-file comparison.
"""
from __future__ import annotations

import os

from .argmax import is_increasing_weak_veinott, level_correspondence, verify_kuku
from .functions import LatticeFunction
from .games import (
    ENUMERATION_CAP,
    Game,
    best_response_strong_set_order,
    tarski_extremes,
    validate_game,
    verify_equilibrium_structure,
)
from .io import load_as
from .lattice import FiniteLattice, classify_subset, tuple_label
from .properties import (
    has_increasing_differences,
    is_quasisupermodular,
    is_single_crossing,
    is_supermodular,
    is_topologically_usc,
    is_upper_chain_subcomplete,
    sections_quasisupermodular,
    transfer_continuity,
)
from .topology import DISCRETE, INTERVAL, ClosedFamily, TopologySpec, family_for
from .verdict import Verdict


def property_line(name: str, verdict: Verdict) -> str:
    return f"PROPERTY {name} {verdict.describe()}"


def _flag_line(name: str, flag: bool) -> str:
    return f"PROPERTY {name} {'PASS' if flag else 'FAIL'}"


def profile_text(profile) -> str:
    return " ".join(profile)


def lattice_report(L: FiniteLattice) -> tuple:
    return ["PROPERTY lattice PASS", f"LEAST {L.labels[L.bottom]}",
            f"GREATEST {L.labels[L.top]}"], True


def classify_report(L: FiniteLattice, subset) -> tuple:
    flags = classify_subset(L, subset)
    lines = [property_line(name, verdict) for name, verdict in flags.items()]
    return lines, all(v.holds for _, v in flags.items())


def kuku_report(f: LatticeFunction) -> tuple:
    report = verify_kuku(f)
    lines = [
        property_line("quasisupermodular", report.quasisupermodular),
        property_line("upper-chain-subcomplete", report.upper_chain_subcomplete),
        f"ARGMAX {' '.join(report.argmax)}",
        _flag_line("argmax-nonempty", report.nonempty),
        property_line("argmax-sublattice", report.flags.is_sublattice),
        property_line("argmax-subcomplete", report.flags.is_subcomplete),
    ]
    return lines, True


def veinott_report(L: FiniteLattice) -> tuple:
    """Veinott's equivalences on every subset of ``L``: a subset is
    subcomplete iff it is a sublattice, and every subset is
    chain-subcomplete.  On a finite lattice the sup of a nonempty subset is
    a fold of binary joins and a chain's sup is its greatest member (dually
    for infs), so both hold once ``FiniteLattice.check_tables`` finds the
    tables to be the order's bounds; a wrong entry raises
    ``InvariantViolation`` (a malformed lattice, not a failed theorem)."""
    L.check_tables()
    return ["PROPERTY subcomplete-iff-sublattice PASS", "PROPERTY chain-subcomplete PASS"], True


def chaincls_report(L: FiniteLattice) -> tuple:
    """Every closed set of the interval topology on ``L`` is
    chain-subcomplete.  That topology is discrete
    (``topology.interval_closed_family``), so its closed sets are all
    subsets, and each is chain-subcomplete as in ``veinott_report``."""
    L.check_tables()
    return ["PROPERTY interval-closed-chain-subcomplete PASS"], True


def weak_veinott_report(f: LatticeFunction) -> tuple:
    verdict = is_increasing_weak_veinott(level_correspondence(f))
    return [property_line("weak-veinott-increasing", verdict)], verdict.holds


def topology_family(ref: str, domain: FiniteLattice, folder: str = "") -> ClosedFamily:
    """The closed family on ``domain`` that ``ref`` names: the interval or
    the discrete topology by its kind, or any other by the path of its
    topology document, relative to ``folder``."""
    spec = (TopologySpec(ref) if ref in (INTERVAL, DISCRETE)
            else load_as(os.path.join(folder, ref), "topology"))
    return family_for(spec, domain)


def transfer_report(f: LatticeFunction, family) -> tuple:
    report = transfer_continuity(f, family)
    lines = [
        property_line("transfer-upper", report.transfer_upper),
        property_line("transfer-weak-upper", report.transfer_weak_upper),
    ]
    return lines, report.transfer_upper.holds and report.transfer_weak_upper.holds


def function_property_report(f: LatticeFunction, check: str, split=0, family=None) -> tuple:
    if check == "qsm":
        v = is_quasisupermodular(f)
        return [property_line("quasisupermodular", v)], v.holds
    if check == "supermodular":
        v = is_supermodular(f)
        return [property_line("supermodular", v)], v.holds
    if check == "single-crossing":
        v = is_single_crossing(f, split=split)
        return [property_line("single-crossing", v)], v.holds
    if check == "incr-diff":
        v = has_increasing_differences(f, split=split)
        return [property_line("increasing-differences", v)], v.holds
    if check == "sections-qsm":
        v = sections_quasisupermodular(f, split=split)
        return [property_line("sections-quasisupermodular", v)], v.holds
    if check == "ucs":
        v = is_upper_chain_subcomplete(f)
        return [property_line("upper-chain-subcomplete", v)], v.holds
    if check == "transfer":
        return transfer_report(f, family)
    if check == "topo-usc":
        v = is_topologically_usc(f, family)
        return [property_line("topological-usc", v)], v.holds
    raise ValueError(f"unknown function check {check!r}")


def solve_report(G: Game, method: str = "both", cap: int = ENUMERATION_CAP) -> tuple:
    validated = validate_game(G)
    lines = [property_line("validated", validated)]
    ok = validated.holds
    report = tarski = None
    if method in ("enumerate", "both"):
        report = verify_equilibrium_structure(G, cap=cap)
        for e in report.equilibria:
            lines.append(f"EQUILIBRIUM {profile_text(e)}")
        lines.append(f"COUNT {report.count}")
        lines.append(f"LARGEST {profile_text(report.largest) if report.largest else 'none'}")
        lines.append(f"LEAST {profile_text(report.least) if report.least else 'none'}")
        lines.append(_flag_line("complete-lattice", bool(report.is_complete_lattice)))
        if report.sublattice_gap is None:
            lines.append("SUBLATTICE-GAP none")
        else:
            a, b, op, value = report.sublattice_gap
            lines.append(f"SUBLATTICE-GAP x={tuple_label(a)} y={tuple_label(b)} op={op} "
                         f"value={tuple_label(value)}")
        lines.append(f"CERTIFIES {' '.join(report.certifies)}")
    if method in ("tarski", "both") and validated.holds:
        tarski = tarski_extremes(G)
        lines.append(f"TARSKI-LARGEST {profile_text(tarski.largest)}")
        lines.append(f"TARSKI-LEAST {profile_text(tarski.least)}")
        lines.append(f"TARSKI-ITERATIONS up={tarski.iterations_up} down={tarski.iterations_down}")
    if method == "both" and report is not None and tarski is not None:
        agree = tarski.largest == report.largest and tarski.least == report.least
        lines.append(_flag_line("method-agreement", agree))
        ok = ok and agree
    return lines, ok


def zhou_report(G: Game, cap: int = ENUMERATION_CAP) -> tuple:
    validated = validate_game(G)
    lines = [property_line("validated", validated)]
    ok = validated.holds
    report = verify_equilibrium_structure(G, cap=cap)
    lines.append(f"COUNT {report.count}")
    lines.append(_flag_line("equilibria-nonempty", report.count > 0))
    lines.append(_flag_line("complete-lattice", bool(report.is_complete_lattice)))
    ok = ok and report.count > 0 and bool(report.is_complete_lattice)
    for p in G.players:
        v = best_response_strong_set_order(G, p)
        lines.append(property_line(f"best-response-strong-set-order:{p}", v))
        ok = ok and v.holds
    if validated.holds:
        tarski = tarski_extremes(G)
        agree = tarski.largest == report.largest and tarski.least == report.least
        lines.append(_flag_line("tarski-agreement", agree))
        ok = ok and agree
    return lines, ok
