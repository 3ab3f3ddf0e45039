"""Rules for the package as a whole."""
import ast
import collections
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import typing

import moorev1
import moorev1.cli
import moorev1.gf2poly

PACKAGE = pathlib.Path(moorev1.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# one small run of every subcommand
SMALL_OPS = [
    [*op, "--t-max", "16", "--s-max", "3"]
    for op in (
        ["page", "--spectrum", "M", "--page", "4"],
        ["ext", "--spectrum", "EndM"],
        ["mahowald"],
        ["verify"],
        ["decompose", "--format", "tsv"],
        ["chart", "page", "--spectrum", "EndM", "--page", "3"],
        ["chart", "decomposition"],
    )
]

# package functions that share a name with another and that SMALL_OPS never
# runs, each with the caller outside the tests that reaches it
UNRUN_NAMESAKES = {
    "dga.py: ComputedPage.basis": "perfbench/tracer.py _zbh_degrees",
    "mahowald.py: ZBHTables.basis": "perfbench/tracer.py _zbh_degrees",
    "specseq.py: MatchedPage.class_is_nonzero": "Workbench._xn_fates, when an even class supports no d3",
    "gf2linalg.py: Subspace.dim": "Subspace.__repr__",
    "specseq.py: Report.ok": "Report.__repr__",
}


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


def _package_functions(module):
    """Each function and method defined in a module, property accessors and
    the methods dataclasses generate included."""

    def walk(namespace, top):
        for obj in vars(namespace).values():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            if isinstance(obj, property):
                yield from (f for f in (obj.fget, obj.fset) if f is not None)
            elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__ and top:
                yield from walk(obj, False)

    return list(walk(module, True))


def test_every_annotation_resolves():
    """The package writes its annotations as strings (from __future__ import
    annotations), so a name it never imports fails only when they are
    resolved: typing.get_type_hints must resolve them all."""
    modules = [importlib.import_module(f"moorev1.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))]
    functions = [f for module in modules for f in _package_functions(module)]
    assert len(functions) > 300
    unresolved = []
    for f in functions:
        try:
            typing.get_type_hints(f)
        except NameError as exc:
            unresolved.append(f"{f.__module__}.{f.__qualname__}: {exc}")
    assert unresolved == []


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_importing_the_cli_loads_every_layer_the_tracer_wraps():
    """The benchmark's tracer reads sys.modules["moorev1.<layer>"] for each
    layer of its metric names right after `import moorev1.cli`.  A command
    that imported its modules lazily would make every traced run of an op
    that does not need them raise KeyError, so a fresh interpreter's import
    of the CLI alone must load them all."""
    tracer = _perfbench_module("tracer")
    layers = sorted({name.split(".")[0] for name, _ in tracer.PER_LAYER} - {"trace"})
    assert len(layers) == 8
    code = "import sys, moorev1.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert [m for m in layers if f"moorev1.{m}" not in loaded.stdout.split()] == []


def test_benchmark_tracer_wraps_a_run_of_every_subcommand(tmp_path):
    """The benchmark's tracer wraps functions of every layer by name and
    counts matrix cells with len(); a rename, a changed signature or a
    generator passed to gf2linalg fails one small op here."""
    tracer = _perfbench_module("tracer")
    original = moorev1.gf2poly.enumerate_window
    tr = tracer.Tracer()
    tr.install()
    try:
        codes = []
        for i, op in enumerate(SMALL_OPS):
            tr.op = i
            codes.append(moorev1.cli.run([*op, "--out", str(tmp_path / str(i))]))
    finally:
        tr.uninstall()
    assert all(code in (0, 1) for code in codes), codes
    assert tr.counts["cli.run.calls"] == len(SMALL_OPS)
    assert moorev1.gf2poly.enumerate_window is original


def test_benchmark_tracer_sees_the_e3_endm_quotient_walk(tmp_path):
    """Page 4 of EndM enumerates the E3(EndM) quotient through the wrapped
    enumerate_window, which returns exactly the quotient's basis: the
    benchmark's enumeration counts keep covering that walk."""
    tracer = _perfbench_module("tracer")
    tr = tracer.Tracer()
    tr.install()
    try:
        code = moorev1.cli.run(
            ["page", "--spectrum", "EndM", "--page", "4", "--t-max", "16", "--s-max", "3", "--no-cache",
             "--out", str(tmp_path)]
        )
    finally:
        tr.uninstall()
    assert code == 0
    window = moorev1.default_window(16, 3)
    quotient = moorev1.Workbench(window).presentation("EndM", 3).basis_counts(window).total()
    assert tr.counts["gf2poly.enumerate_window.calls"] >= 1
    assert tr.counts["gf2poly.enumerate_window.monomials"] == quotient > 0


def test_benchmark_tracer_sees_decompose_enumerate_m_over_its_box_only(tmp_path):
    """decompose builds page 4 of M over the decomposition box only: the
    wrapped enumerate_window sees M once, over a window whose t top is
    DECOMPOSITION_STEM_MAX + s_max - 1, with the same 3,960 monomials at
    every t_max, and the Mahowald complex once.  A fallback to the whole
    page (46,128 monomials at t_max 128) fails here."""
    tracer = _perfbench_module("tracer")
    tr = tracer.Tracer()
    tr.install()
    try:
        code = moorev1.cli.run(["decompose", "--t-max", "128", "--no-cache", "--out", str(tmp_path)])
    finally:
        tr.uninstall()
    assert code == 0
    bench = moorev1.Workbench(moorev1.default_window(128))
    m2 = bench.presentation("M", 2)
    windows = [w for _, algebra, w in tr.distinct["gf2poly.enumerate_window"] if algebra == m2.quotient]
    assert windows == [bench._decomposition_window()]
    assert windows[0].t_range[1] == moorev1.specseq.DECOMPOSITION_STEM_MAX + 12 - 1
    m_monomials = m2.basis_counts(windows[0]).total()
    tables = bench.mahowald_tables()
    squares = moorev1.gf2poly.count_window(tables.alphabet, moorev1.mahowald._box_window(tables.p_max, tables.q_max))
    assert tr.counts["gf2poly.enumerate_window.calls"] == 2
    assert tr.counts["gf2poly.enumerate_window.monomials"] == m_monomials + squares.total()
    assert m_monomials == 3960


def test_every_benchmark_op_reproduces_its_reference(tmp_path):
    """Each op of the benchmark's workloads, run cold, gives the exit code,
    stdout and artifact bytes recorded in perfbench/reference.json, which
    this test only reads.  That pins the t_max 128 artifacts as well."""
    workloads = _perfbench_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ops = sorted({op for workload in workloads.WORKLOADS.values() for op in workload.ops})
    assert {workloads.op_key(op) for op in ops} == set(reference)
    sha = lambda data: hashlib.sha256(data).hexdigest()
    for i, op in enumerate(ops):
        ref = reference[workloads.op_key(op)]
        out = tmp_path / str(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = moorev1.cli.run([*op, "--no-cache", "--out", str(out)])
        got = {path.name: sha(path.read_bytes()) for path in out.iterdir()}
        assert (code, sha(buf.getvalue().encode()), got) == (ref["exit_code"], ref["stdout"], ref["files"]), op


def _package_defs(path):
    """(qualified name, first line) of each function or method in a module,
    dunders aside; the first line is where a decorator starts, as in the
    function's code object."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((f"{prefix}{child.name}", first))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return out


def test_every_package_function_has_a_caller_outside_the_tests(tmp_path):
    """Each function or method of the package (dunders aside) is named in
    src/moorev1 or perfbench outside its own def: loaded or read as an
    attribute, or written in a string of perfbench/tracer.py, which patches
    functions by name.  Other strings do not count, so a subcommand name
    such as "verify" hides no method.  Code that only tests call does not
    belong there.

    A name cannot tell two definitions apart, so where package functions
    share a name each must also run in SMALL_OPS, or be listed in
    UNRUN_NAMESAKES with the caller outside the tests that reaches it."""
    modules = sorted(PACKAGE.glob("*.py"))
    tracer = PERFBENCH / "tracer.py"
    used = set()
    for path in modules + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path == tracer:
                used.update(re.findall(r"\w+", node.value))
    defs = [(path, qualname, first) for path in modules for qualname, first in _package_defs(path)]
    bare = lambda qualname: qualname.rsplit(".", 1)[-1]
    assert [f"{path.name}: {q}" for path, q, _ in defs if bare(q) not in used] == []

    called = set()
    profile = lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for i, op in enumerate(SMALL_OPS):
                moorev1.cli.run([*op, "--out", str(tmp_path / str(i))])
        finally:
            sys.setprofile(None)
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    shared = {name for name, n in collections.Counter(bare(q) for _, q, _ in defs).items() if n > 1}
    unrun = [
        f"{path.name}: {q}"
        for path, q, first in defs
        if bare(q) in shared and (os.path.realpath(path), first) not in ran
    ]
    assert [d for d in unrun if d not in UNRUN_NAMESAKES] == []
    assert [d for d in UNRUN_NAMESAKES if d not in unrun] == []
