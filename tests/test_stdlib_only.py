"""The runtime is stdlib-only: no module of the package imports anything
outside the standard library, although test oracles such as sympy and
hypothesis are installed next to it."""

import ast
import pathlib
import sys

import weylbench

PACKAGE = pathlib.Path(weylbench.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    outside = [(path.name, name) for path in sources
               for name in _absolute_imports(ast.parse(path.read_text(), str(path)))
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
