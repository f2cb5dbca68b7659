"""Product lattices are sized before they are built.

A product document's element count is exponential in its length, so a
document of under a kilobyte can name a lattice no machine can hold.
``io.parse_lattice`` compares the product of the parsed factor sizes with
``io.PRODUCT_CAP`` first, which covers lattice documents, function domains
and game strategy sets alike.  Every command that reads one of these must
exit 2, naming the size and the cap, quickly and without a traceback.
The commands run in one child process whose address space is limited, so a
build that slips past the cap fails there and not in the test process.
"""
import json
import re
import resource
import subprocess
import sys

import pytest

from latgames.errors import CapExceeded
from latgames.io import PRODUCT_CAP, parse

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
