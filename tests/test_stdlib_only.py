"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "resloc"


def absolute_imports(path):
    """(line, top-level module) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_absolute_import_is_stdlib():
    seen, outside = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, name in absolute_imports(path):
            seen.add(name)
            if name not in sys.stdlib_module_names:
                outside.append("%s:%d %s" % (path.name, line, name))
    assert outside == []
    # the walk sees the package's real imports
    assert {"fractions", "math"} <= seen
