"""Rules for the package as a whole."""
import ast
import importlib
import pathlib
import re
import sys

import moorev1
import moorev1.cli
import moorev1.gf2poly

PACKAGE = pathlib.Path(moorev1.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_export_resolves():
    modules = [moorev1] + [
        importlib.import_module(f"moorev1.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert dangling == []


def test_benchmark_tracer_wraps_a_run_of_every_subcommand(tmp_path):
    """The benchmark's tracer wraps functions of every layer by name and
    counts matrix cells with len(); a rename, a changed signature or a
    generator passed to gf2linalg fails one small op here."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    original = moorev1.gf2poly.enumerate_window
    ops = [
        ["page", "--spectrum", "M", "--page", "4"],
        ["ext", "--spectrum", "EndM"],
        ["mahowald"],
        ["verify"],
        ["decompose", "--format", "tsv"],
        ["chart", "page", "--spectrum", "EndM", "--page", "3"],
        ["chart", "decomposition"],
    ]
    tr = tracer.Tracer()
    tr.install()
    try:
        codes = []
        for i, op in enumerate(ops):
            tr.op = i
            out = str(tmp_path / str(i))
            codes.append(moorev1.cli.run([*op, "--t-max", "16", "--s-max", "3", "--out", out]))
    finally:
        tr.uninstall()
    assert all(code in (0, 1) for code in codes), codes
    assert tr.counts["cli.run.calls"] == len(ops)
    assert moorev1.gf2poly.enumerate_window is original


def test_every_package_function_has_a_caller_outside_the_tests():
    """Each function or method of the package (dunders aside) is named in
    src/moorev1 or perfbench outside its own def and __all__: loaded, read
    as an attribute, or written in a string, as the benchmark tracer patches
    functions by name.  Code that only tests call does not belong there."""
    modules = sorted(PACKAGE.glob("*.py"))
    defs, used = [], set()
    for path in modules + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        exports = {
            id(node)
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and "__all__" in (getattr(t, "id", None) for t in stmt.targets)
            for node in ast.walk(stmt.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exports:
                used.update(re.findall(r"\w+", node.value))
            elif isinstance(node, ast.FunctionDef) and path in modules:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path.name, node.name))
    assert [f"{module}: {name}" for module, name in defs if name not in used] == []
