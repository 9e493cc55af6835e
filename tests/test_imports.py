"""The runtime imports nothing outside the standard library, and the
benchmark's tracer finds every function it wraps."""

import ast
import importlib
import inspect
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


def test_every_traced_function_exists_in_the_package():
    # perfbench's tracer wraps these by name; read its table without importing it
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    table = next(node.value for node in ast.parse(tracer.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["TARGETS"])
    targets = [(ast.unparse(owner), ast.literal_eval(attr))
               for _, owner, attr, _ in (entry.elts for entry in table.elts)]
    assert len(targets) > 20
    missing = []
    for owner_name, attr in targets:
        module, *path = owner_name.split(".")
        owner = importlib.import_module(f"fluxcompose.{module}")
        for part in path:
            owner = getattr(owner, part)
        found = vars(owner).get(attr)
        if not inspect.isfunction(found):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []
