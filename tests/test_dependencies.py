"""The package stays pure Python with no runtime dependencies: every import
in ``src/latgames`` names the standard library or latgames itself.  The
layers keep their direction: the game layer reads no topology, and the
order layer reads only errors and verdicts."""
import ast
import sys
from pathlib import Path

import latgames

PACKAGE = Path(latgames.__file__).parent


def imported_modules(path: Path):
    """``(line, dotted module)`` of each import in a source file, relative
    imports resolved inside ``latgames``; ``from m import x`` names both
    ``m`` and ``m.x``, since ``x`` may be a submodule."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["latgames" if node.level else None, node.module]))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_every_import_is_stdlib_or_latgames():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "lattice.py" in sources
    foreign = [f"{path.relative_to(PACKAGE)}:{line} imports {module}"
               for path in sources for line, module in imported_modules(path)
               if module.partition(".")[0] not in ("latgames", *sys.stdlib_module_names)]
    assert foreign == []


def test_games_does_not_import_topology():
    # a game is order data only; CERTIFIES topological is decided by codomain kind
    hits = [f"games.py:{line} imports {module}"
            for line, module in imported_modules(PACKAGE / "games.py")
            if module.split(".")[:2] == ["latgames", "topology"]]
    assert hits == []


def test_lattice_imports_only_errors_and_verdict():
    # the order layer sits at the bottom: the kernels above it import it
    hits = [f"lattice.py:{line} imports {module}"
            for line, module in imported_modules(PACKAGE / "lattice.py")
            if module.split(".")[0] == "latgames"
            and module.split(".")[1:2] not in (["errors"], ["verdict"])]
    assert hits == []


def test_every_import_is_at_module_level():
    # no import cycle needs breaking, so no function imports at call time
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits += [f"{path.relative_to(PACKAGE)}:{node.lineno} in {fn.name}"
                         for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert hits == []
