"""numpy stays the package's only runtime dependency: every import in
src/mptraj is relative, numpy, or a module of the standard library."""
import ast
import sys
from pathlib import Path

import mptraj

PACKAGE = Path(mptraj.__file__).resolve().parent


def _imported_roots(tree):
    """(line, top-level module) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_imports_are_relative_numpy_or_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "basis.py" in sources
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = [f"{path.name}:{line}: {root}"
               for path in sources
               for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
               if root not in allowed]
    assert foreign == []
