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
from .errors import CapExceeded, LatGamesError, NotALattice, ParseError, TheoremFalsified
from .functions import LatticeFunction
from .generators import GenSpec, generate
from .io import load_path, save_path, serialize
from .lattice import first_unbounded, iter_chain_masks, iter_submasks, sublattice_witness
from .topology import family_for


def _load(path, expected_kind):
    kind, instance = load_path(path)
    if kind != expected_kind:
        raise ParseError(f"{path} holds a {kind}, expected a {expected_kind}")
    return instance


def _print(lines) -> None:
    for line in lines:
        print(line)


def cmd_check_lattice(args) -> int:
    lines, ok = reports.lattice_report(_load(args.file, "lattice"))
    _print(lines)
    return 0 if ok else 1


def _family_from_arg(arg, f: LatticeFunction):
    if arg in (None, "interval"):
        return family_for("interval", f.domain)
    if arg == "discrete":
        return family_for("discrete", f.domain)
    spec = _load(arg, "topology")
    return family_for(spec.kind, f.domain, closed_sets=spec.closed_sets)


def cmd_check_function(args) -> int:
    f = _load(args.file, "function")
    ok = True
    for prop in args.property or ["qsm"]:
        family = None
        if prop in ("transfer", "topo-usc"):
            family = _family_from_arg(args.topology, f)
        lines, good = reports.function_property_report(f, prop, split=args.split, family=family)
        _print(lines)
        ok = ok and good
    return 0 if ok else 1


def cmd_check_game(args) -> int:
    G = _load(args.file, "game")
    from .games import validate_game

    verdict = validate_game(G)
    print(reports.property_line("validated", verdict))
    return 0 if verdict.holds else 1


def cmd_solve(args) -> int:
    G = _load(args.file, "game")
    lines, ok = reports.solve_report(G, method=args.method, cap=args.cap)
    _print(lines)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.theorem == "kuku":
        f = _load(args.file, "function")
        try:
            lines, _ = reports.kuku_report(f)
        except TheoremFalsified as exc:
            print(f"FALSIFIED {exc}")
            return 1
        _print(lines)
        return 0
    if args.theorem == "veinott":
        L = _load(args.file, "lattice")
        if L.n > 14:
            raise CapExceeded(f"veinott verification of a {L.n}-element lattice exceeds "
                              "the cap of 14 elements (2^n subsets)")
        for mask in range(1 << L.n):
            subcomplete = first_unbounded(L, mask, iter_submasks(mask)) is None
            if subcomplete != (sublattice_witness(L, mask) is None):
                print("PROPERTY subcomplete-iff-sublattice FAIL "
                      f"subset={','.join(L.labels_of(mask))}")
                return 1
            if first_unbounded(L, mask, iter_chain_masks(L.poset, mask)) is not None:
                print(f"PROPERTY chain-subcomplete FAIL subset={','.join(L.labels_of(mask))}")
                return 1
        print("PROPERTY subcomplete-iff-sublattice PASS")
        print("PROPERTY chain-subcomplete PASS")
        return 0
    if args.theorem == "chaincls":
        L = _load(args.file, "lattice")
        family = family_for("interval", L)
        for mask in family.sets:
            if first_unbounded(L, mask, iter_chain_masks(L.poset, mask)) is not None:
                print("PROPERTY interval-closed-chain-subcomplete FAIL "
                      f"set={','.join(L.labels_of(mask))}")
                return 1
        print("PROPERTY interval-closed-chain-subcomplete PASS")
        return 0
    if args.theorem == "zhou":
        G = _load(args.file, "game")
        lines, ok = reports.zhou_report(G, cap=args.cap)
        _print(lines)
        return 0 if ok else 1
    raise ParseError(f"unknown theorem {args.theorem!r}")


def _dims(text) -> tuple:
    try:
        return tuple(int(d) for d in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected dimensions like 3x4, got {text!r}") from None


def cmd_generate(args) -> int:
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
                   help="factor index forming the first block of a product domain")
    p.add_argument("--topology", default=None,
                   help="topology for transfer checks: a file, 'interval', or 'discrete'")
    p.set_defaults(func=cmd_check_function)

    p = sub.add_parser("check-game", help="validate a game file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_game)

    p = sub.add_parser("solve", help="compute the equilibrium set of a game file")
    p.add_argument("file")
    p.add_argument("--method", choices=["enumerate", "tarski", "both"], default="both")
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a structure theorem on an instance")
    p.add_argument("file")
    p.add_argument("--theorem", required=True, choices=["kuku", "zhou", "veinott", "chaincls"])
    p.add_argument("--cap", type=int, default=1_000_000)
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
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

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
