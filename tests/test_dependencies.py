"""The package stays pure Python with no runtime dependencies: every import
in ``src/latgames`` names the standard library or latgames itself."""
import ast
import sys
from pathlib import Path

import latgames

PACKAGE = Path(latgames.__file__).parent


def imported_modules(path: Path):
    """``(line, top-level module)`` of each absolute import in a source file;
    relative imports stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_or_latgames():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "lattice.py" in sources
    foreign = [f"{path.relative_to(PACKAGE)}:{line} imports {module}"
               for path in sources for line, module in imported_modules(path)
               if module != "latgames" and module not in sys.stdlib_module_names]
    assert foreign == []
