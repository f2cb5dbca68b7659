"""Product lattices are sized before they are built.

A product document's element count is exponential in its length, so a
document of under a kilobyte can name a lattice no machine can hold.
``io.parse_lattice`` compares the product of the parsed factor sizes with
``io.PRODUCT_CAP`` first, which covers lattice documents, function domains
and game strategy sets alike.  Every command that reads one of these must
exit 2, naming the size and the cap, quickly and without a traceback.
The commands run in one child process whose address space is limited, so a
build that slips past the cap fails there and not in the test process.

A product inside the cap can still be too large for a scan of every pair
of its elements, which holds every meet and join row it reads: such scans
are refused past ``properties.PAIR_SCAN_CAP`` elements, checked the same
way.
"""
import json
import re
import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest

from latgames.errors import CapExceeded
from latgames.io import PRODUCT_CAP, parse
from latgames.properties import PAIR_SCAN_CAP, _check_pair_scan, qsm_witness

CHAINS = (18, 24, 40)
MEMORY_LIMIT = 1 << 30
CHILD = """
import contextlib, io, json, sys, time
from latgames import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue(), time.perf_counter() - start])
print(json.dumps(results))
"""
CAP_LINE = re.compile(rf"ERROR CapExceeded: \S+: a product of (\d+) elements exceeds the cap "
                      rf"of {PRODUCT_CAP}\n")


def two_chain(k: int) -> dict:
    return {"elements": [f"a{k}", f"b{k}"], "covers": [[f"a{k}", f"b{k}"]]}


def product(k: int, nested: bool) -> dict:
    """The product of k two-element chains, flat or as a product of two
    products of k/2 chains each."""
    chains = [two_chain(j) for j in range(k)]
    if nested:
        return {"product": [{"product": chains[:k // 2]}, {"product": chains[k // 2:]}]}
    return {"product": chains}


def documents(L: dict) -> dict:
    """``L`` as a lattice, as a function domain with a one-row table, and as
    one player's strategy set with empty payoff tables."""
    chain = two_chain(0)
    return {
        "lattice": L,
        "function": {"domain": L, "codomain": {"kind": "rational"},
                     "table": [{"element": "x", "value": "0"}]},
        "game": {"players": ["p", "q"], "strategies": {"p": L, "q": chain},
                 "codomains": {"p": {"kind": "rational"}, "q": {"kind": "rational"}},
                 "payoffs": {"p": [], "q": []}},
    }


COMMANDS = {
    "lattice": (["check-lattice"], ["verify", "--theorem", "veinott"],
                ["verify", "--theorem", "chaincls"]),
    "function": (["check-function"], ["check-function", "--property", "transfer"],
                 ["verify", "--theorem", "kuku"]),
    "game": (["check-game"], ["solve"], ["verify", "--theorem", "zhou"]),
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def test_every_reader_of_an_oversized_product_exits_two(tmp_path):
    argvs = []
    for k in CHAINS:
        for nested in (False, True):
            for kind, doc in documents(product(k, nested)).items():
                path = tmp_path / f"{kind}_{k}_{'nested' if nested else 'flat'}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                argvs += [[verb[0], str(path), *verb[1:]] for verb in COMMANDS[kind]]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, preexec_fn=_limit_memory)
    assert "Traceback" not in proc.stderr + proc.stdout, proc.stderr
    assert proc.returncode == 0
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) == 54
    for argv, (code, out, seconds) in zip(argvs, results):
        match = CAP_LINE.fullmatch(out)
        assert code == 2 and match, (argv, code, out)
        assert int(match[1]) > PRODUCT_CAP
        assert seconds < 1, (argv, seconds)


def test_the_error_names_where_the_product_sits():
    where = {"lattice": "lattice", "function": "function.domain", "game": "game.strategies[p]"}
    for kind, doc in documents(product(18, nested=False)).items():
        message = f"{where[kind]}: a product of 262144 elements exceeds the cap of {PRODUCT_CAP}"
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            parse(json.dumps(doc))
    with pytest.raises(CapExceeded, match=r"^lattice\.product\[0\]: a product of 1048576 "):
        parse(json.dumps(product(40, nested=True)))


def test_a_product_at_the_cap_is_built():
    k = PRODUCT_CAP.bit_length() - 1
    assert 1 << k == PRODUCT_CAP
    kind, L = parse(json.dumps(product(k, nested=True)))
    assert (kind, L.n) == ("lattice", PRODUCT_CAP)


SCAN_LINE = re.compile(rf"ERROR CapExceeded: a scan of the pairs of (\d+) elements exceeds the "
                       rf"cap of {PAIR_SCAN_CAP}\n")


def scan_documents(k: int, tmp_path) -> list:
    """Paths of documents on the product of k two-element chains whose
    checks scan its pairs, with the verbs that read them: a function that
    is quasisupermodular and supermodular, one that is not supermodular only
    at the top, its one-player game, and, for k = 13, a function on that
    product times one more chain, whose sections over the product are
    scanned."""
    L = product(k, nested=False)
    D = parse(json.dumps(L))[1]
    ranks = [str(sum(c)) for c in D.coords]
    late = ranks[:-1] + [str(k - 3)]

    def function(domain, values):
        return {"domain": domain, "codomain": {"kind": "rational"},
                "table": [{"element": e, "value": v} for e, v in zip(D.labels, values)]}

    docs = {
        "function": (function(L, ranks), (["check-function"], ["verify", "--theorem", "kuku"])),
        "late": (function(L, late), (["check-function", "--property", "supermodular"],)),
        "game": ({"players": ["p"], "strategies": {"p": L},
                  "codomains": {"p": {"kind": "rational"}},
                  "payoffs": {"p": [{"profile": {"p": e}, "value": v}
                                    for e, v in zip(D.labels, ranks)]}},
                 (["check-game"], ["solve"], ["verify", "--theorem", "zhou"])),
    }
    if k == 13:
        N = {"product": [L, two_chain(k)]}
        E = parse(json.dumps(N))[1]
        docs["sections"] = ({"domain": N, "codomain": {"kind": "rational"},
                             "table": [{"element": e, "value": str(c[0] + c[1])}
                                       for e, c in zip(E.labels, E.coords)]},
                            (["check-function", "--property", "sections-qsm"],))
    argvs = []
    for kind, (doc, verbs) in docs.items():
        path = tmp_path / f"{kind}_{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argvs += [[verb[0], str(path), *verb[1:]] for verb in verbs]
    return argvs


def test_every_pair_scan_past_its_cap_exits_two(tmp_path):
    """A scan of every pair holds every meet and join row of a product it
    reads, N² entries: on products of 13 and 14 two-element chains, inside
    ``PRODUCT_CAP``, each such check exits 2 before it reads a row."""
    argvs = scan_documents(13, tmp_path) + scan_documents(14, tmp_path)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, preexec_fn=_limit_memory)
    assert "Traceback" not in proc.stderr + proc.stdout, proc.stderr
    assert proc.returncode == 0
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) == 13
    for argv, (code, out, seconds) in zip(argvs, results):
        match = SCAN_LINE.fullmatch(out)
        assert code == 2 and match, (argv, code, out)
        assert int(match[1]) in (1 << 13, 1 << 14)
        assert seconds < 1, (argv, seconds)


def test_a_pair_scan_at_the_cap_runs():
    _check_pair_scan(SimpleNamespace(n=PAIR_SCAN_CAP))
    rowless = SimpleNamespace(n=PAIR_SCAN_CAP + 1)  # reading any row would raise AttributeError
    for check in (_check_pair_scan, lambda L: qsm_witness(L, [])):
        with pytest.raises(CapExceeded, match=f" {PAIR_SCAN_CAP + 1} elements exceeds"):
            check(rowless)
