"""Pinned command outputs.

Every command of the three benchmark workloads at seed ``SEED``, and a
wider list over the order-checks documents (each ``--property`` on each
function document; ``check-lattice``, ``veinott`` and ``chaincls`` on each
lattice document), is run in-process through ``latgames.cli.main`` from
the directory that holds its documents.  Each command's exit code and
stdout are hashed with its id and compared with ``command_pins.json``,
recorded before the code was last changed.  A change that means to alter
an output re-records only the ids it names:

    PYTHONPATH=src python3 tests/test_command_pins.py [ID ...]

re-records the named ids (every id when none is named).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "command_pins.json"
sys.path.append(str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

from latgames import cli  # noqa: E402

SEED = 0x5EED0006
FUNCTION_PROPERTIES = ("qsm", "supermodular", "single-crossing", "incr-diff", "sections-qsm",
                       "ucs", "transfer", "topo-usc")
FUNCTION_VERBS = {"check-function", "kuku", "ucs", "transfer"}
LATTICE_VERBS = {"check-lattice", "veinott", "chaincls"}


def commands(docs_dir) -> list:
    """``(id, argv)`` of every workload command, then of the wider list."""
    out = []
    for workload in workloads.BUILDERS:
        out += [(c["id"], c["argv"]) for c in workloads.build(workload, SEED, docs_dir).commands]
    verbs = {}
    for cid, argv in out:
        verbs.setdefault(argv[1], set()).add(cid.split(":")[0])
    for doc, seen in sorted(verbs.items()):
        if seen & FUNCTION_VERBS:
            out += [(f"wide:{doc}:{prop}", ["check-function", doc, "--property", prop])
                    for prop in FUNCTION_PROPERTIES]
        elif seen & LATTICE_VERBS:
            out += [(f"wide:{doc}:check-lattice", ["check-lattice", doc]),
                    (f"wide:{doc}:veinott", ["verify", doc, "--theorem", "veinott"]),
                    (f"wide:{doc}:chaincls", ["verify", doc, "--theorem", "chaincls"])]
    return out


def pin(cid: str, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    h = hashlib.sha256(f"{cid}\0{code}\0{buf.getvalue()}\0".encode())
    return h.hexdigest()[:16]


def run_all(docs_dir) -> dict:
    cmds = commands(str(docs_dir))
    cwd = os.getcwd()
    os.chdir(docs_dir)
    try:
        return {cid: pin(cid, argv) for cid, argv in cmds}
    finally:
        os.chdir(cwd)


def test_every_command_output_is_pinned(tmp_path):
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    moved = sorted(cid for cid in expected.keys() & actual.keys() if expected[cid] != actual[cid])
    missing = sorted(expected.keys() - actual.keys())
    new = sorted(actual.keys() - expected.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}\nno longer run: {missing}\nnot pinned: {new}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_all(tmp)
    ids = sys.argv[1:]
    pins = json.loads(PINS.read_text(encoding="utf-8")) if ids else {}
    pins.update({cid: fresh[cid] for cid in ids or fresh})
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(ids or fresh)} of {len(pins)} pins")
