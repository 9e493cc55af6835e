"""The runtime imports nothing outside the standard library, the runtime and
the tests use every name they import, importing a core module loads no upper
layer, the README's library example runs, and the benchmark's tracer finds
every function it wraps."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fluxcompose

ROOT = Path(__file__).resolve().parents[1]


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
    tracer = ROOT / "perfbench" / "tracer.py"
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


def test_runtime_modules_use_every_name_they_import():
    # the tests' own modules are held to the same rule
    package = Path(fluxcompose.__file__).parent
    sources = sorted(package.glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert len(sources) > 5 and len(tests) > 10
    sources += tests
    unused = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{source.parent.name}/{source.name}: {name}"
                       for name in names if name not in used]
    assert unused == []


def test_importing_the_planner_loads_no_upper_layer():
    src = str(Path(fluxcompose.__file__).resolve().parents[1])
    script = "import sys, fluxcompose.planner; print(*sorted(sys.modules))"
    loaded = set(subprocess.run([sys.executable, "-c", script],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, check=True).stdout.split())
    assert "fluxcompose.planner" in loaded
    upper = {f"fluxcompose.{name}"
             for name in ("scenario", "composer", "registry", "ontology", "cli")}
    assert upper & loaded == set()


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == [
        "findResource(doctor,Orthopedics)",
        "notifyResource(#out_findResource_P_1,#out_findResource_CN_1,help)",
    ]
