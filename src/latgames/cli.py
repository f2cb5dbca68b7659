"""Command-line front end.

Reports are line-oriented with a stable schema (one ``PROPERTY name
VERDICT [witness]`` line per check) so they can be golden-file tested.
Exit codes: 0 = success / property holds, 1 = property fails (witness on
stdout), 2 = malformed input, bad flags, or a cap was exceeded.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import corpus as corpus_mod
from . import reports
from .errors import LatGamesError, NotALattice, ParseError, TheoremFalsified
from .games import ENUMERATION_CAP, validate_game
from .generators import CHAIN, DIAMOND_MK, GRID, GenSpec, generate
from .io import load_as, save_path, serialize
from .topology import INTERVAL


def _emit(lines, ok=True) -> int:
    """Print a report's lines; the exit code of its verdict."""
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_check_lattice(args) -> int:
    return _emit(*reports.lattice_report(load_as(args.file, "lattice")))


def cmd_check_function(args) -> int:
    f = load_as(args.file, "function")
    props = args.property or ["qsm"]
    family = None
    if {"transfer", "topo-usc"} & set(props):
        family = reports.topology_family(args.topology or INTERVAL, f.domain)
    ok = True
    for prop in props:
        lines, good = reports.function_property_report(f, prop, split=args.split, family=family)
        _emit(lines)
        ok = ok and good
    return 0 if ok else 1


def cmd_check_game(args) -> int:
    G = load_as(args.file, "game")
    verdict = validate_game(G)
    return _emit([reports.property_line("validated", verdict)], verdict.holds)


def cmd_solve(args) -> int:
    G = load_as(args.file, "game")
    return _emit(*reports.solve_report(G, method=args.method, cap=args.cap))


def cmd_verify(args) -> int:
    if args.theorem == "kuku":
        f = load_as(args.file, "function")
        try:
            lines, _ = reports.kuku_report(f)
        except TheoremFalsified as exc:
            print(f"FALSIFIED {exc}")
            return 1
        return _emit(lines)
    if args.theorem in ("veinott", "chaincls"):
        L = load_as(args.file, "lattice")
        report = reports.veinott_report if args.theorem == "veinott" else reports.chaincls_report
        return _emit(*report(L))
    if args.theorem == "zhou":
        G = load_as(args.file, "game")
        return _emit(*reports.zhou_report(G, cap=args.cap))
    raise ParseError(f"unknown theorem {args.theorem!r}")


def _dims(text) -> tuple:
    try:
        return tuple(int(d) for d in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected dimensions like 3x4, got {text!r}") from None


def _positive_int(text) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_generate(args) -> int:
    for flag, reader in (("size", CHAIN), ("k", DIAMOND_MK), ("dims", GRID)):
        if getattr(args, flag) is not None and args.family != reader:
            args.usage_error(f"argument --{flag}: the {args.family} family does not read it "
                             f"(only {reader} does)")
    spec = GenSpec(
        seed=args.seed,
        family=args.family,
        size=args.size,
        k=args.k,
        dims=args.dims,
        payoff=args.payoff,
        budget=args.budget,
    )
    kind, instance = generate(spec)
    if args.out:
        save_path(args.out, instance)
        print(f"WROTE {args.out} {kind}")
    else:
        sys.stdout.write(serialize(instance))
    return 0


def cmd_corpus(args) -> int:
    if args.refreeze:
        for name in corpus_mod.refreeze(args.name):
            print(f"ENTRY {name} REFROZEN")
        return 0
    ok = True
    for name, passed, diff in corpus_mod.run_corpus(args.name):
        print(f"ENTRY {name} {'OK' if passed else 'MISMATCH'}")
        if not passed:
            ok = False
            for line in diff.splitlines():
                print(f"  {line}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgames",
        description="Finite-lattice order checkers and quasisupermodular game solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-lattice", help="validate a lattice file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_lattice)

    p = sub.add_parser("check-function", help="check order properties of a function file")
    p.add_argument("file")
    p.add_argument("--property", action="append",
                   choices=["qsm", "supermodular", "single-crossing", "incr-diff",
                            "sections-qsm", "ucs", "transfer", "topo-usc"])
    p.add_argument("--split", type=int, default=0,
                   help="names one factor of a product domain, P, by its index, "
                        "against the other factors, Q")
    p.add_argument("--topology", default=None,
                   help="topology for the transfer and topo-usc checks: a file, "
                        "'interval', or 'discrete'")
    p.set_defaults(func=cmd_check_function)

    p = sub.add_parser("check-game", help="validate a game file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_game)

    p = sub.add_parser("solve", help="compute the equilibrium set of a game file")
    p.add_argument("file")
    p.add_argument("--method", choices=["enumerate", "tarski", "both"], default="both")
    p.add_argument("--cap", type=_positive_int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a structure theorem on an instance")
    p.add_argument("file")
    p.add_argument("--theorem", required=True, choices=["kuku", "zhou", "veinott", "chaincls"])
    p.add_argument("--cap", type=_positive_int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="deterministically generate an instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family", required=True,
                   choices=["chain", "grid", "diamond_Mk", "random_meet_join_closure"])
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--dims", type=_dims, default=None, help="grid dimensions, e.g. 3x4")
    p.add_argument("--payoff", default=None,
                   choices=["supermodular_then_transform", "rejection"])
    p.add_argument("--budget", type=_positive_int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate, usage_error=p.error)

    p = sub.add_parser("corpus", help="run the frozen example corpus")
    p.add_argument("action", choices=["run"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--refreeze", action="store_true",
                   help="rewrite the frozen expectations from current outputs")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotALattice as exc:
        print(f"PROPERTY lattice FAIL pair={','.join(exc.pair)} missing={exc.missing}")
        return 1
    except LatGamesError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
