"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import fluxcompose


def test_runtime_imports_only_the_standard_library():
    package = Path(fluxcompose.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top != "fluxcompose":
                    outside.append(f"{source.name}: {module}")
    assert outside == []
