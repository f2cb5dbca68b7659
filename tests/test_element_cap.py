"""Lattices built from covers are sized before they are built.

``lattice_from_covers`` fills N x N meet and join tables, so a document
that lists N elements costs O(N²) memory whatever route it takes: a chain
of 40000 elements (1.2 MB of JSON) ran out of memory, and a diamond of a
few thousand took seconds.  ``io.parse_lattice`` compares the length of
the element list with ``io.ELEMENT_CAP`` first, in every role a lattice
document plays.  Every command that reads one must exit 2, naming the
size and the cap, quickly and without a traceback, in a child process
whose address space is limited as in ``test_product_cap``.
"""
import json
import re
import subprocess
import sys

import pytest

from latgames.errors import CapExceeded
from latgames.io import ELEMENT_CAP, parse

from test_product_cap import CHILD, COMMANDS, _limit_memory, documents

CAP_LINE = re.compile(rf"ERROR CapExceeded: \S+: a lattice of (\d+) elements exceeds the cap "
                      rf"of {ELEMENT_CAP}\n")


def chain(n: int) -> dict:
    return {"elements": [f"c{i}" for i in range(n)],
            "covers": [[f"c{i}", f"c{i + 1}"] for i in range(n - 1)]}


def diamond(k: int) -> dict:
    """M_k: a bottom, k pairwise incomparable midpoints and a top."""
    mids = [f"x{i}" for i in range(k)]
    return {"elements": ["m", "M"] + mids,
            "covers": [["m", x] for x in mids] + [[x, "M"] for x in mids]}


def test_every_reader_of_an_oversized_lattice_exits_two(tmp_path):
    argvs = []
    for name, L in (("chain", chain(40000)), ("diamond", diamond(3000))):
        for kind, doc in documents(L).items():
            path = tmp_path / f"{kind}_{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argvs += [[verb[0], str(path), *verb[1:]] for verb in COMMANDS[kind]]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, preexec_fn=_limit_memory)
    assert "Traceback" not in proc.stderr + proc.stdout, proc.stderr
    assert proc.returncode == 0
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs) == 18
    for argv, (code, out, seconds) in zip(argvs, results):
        match = CAP_LINE.fullmatch(out)
        assert code == 2 and match, (argv, code, out)
        assert int(match[1]) in (40000, 3002)
        assert seconds < 1, (argv, seconds)


def test_the_error_names_where_the_lattice_sits():
    where = {"lattice": "lattice", "function": "function.domain", "game": "game.strategies[p]"}
    for kind, doc in documents(chain(ELEMENT_CAP + 1)).items():
        message = (f"{where[kind]}: a lattice of {ELEMENT_CAP + 1} elements exceeds the cap "
                   f"of {ELEMENT_CAP}")
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            parse(json.dumps(doc))
    with pytest.raises(CapExceeded, match=r"^lattice\.product\[1\]: a lattice of 1026 "):
        parse(json.dumps({"product": [chain(2), diamond(ELEMENT_CAP)]}))


@pytest.mark.parametrize("L", [chain(ELEMENT_CAP), diamond(ELEMENT_CAP - 2)],
                         ids=["chain", "diamond"])
def test_a_lattice_at_the_cap_is_built(L):
    kind, built = parse(json.dumps(L))
    assert (kind, built.n) == ("lattice", ELEMENT_CAP)
