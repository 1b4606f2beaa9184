"""Source hygiene: every name a module imports is used or re-exported, every
private module-level name is read by library code, the names the
benchmark's tracer wraps still exist, every benchmark workload
still runs and passes at its smoke sizes, and the library neither imports
scipy nor loads a module after its own import."""

import ast
import importlib.util
import inspect
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matrixball"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % (name, line) for line, name in unused))


def test_unused_import_detected():
    src = "import os\nfrom .x import a, b as c\n__all__ = ['a']\n"
    assert _unused_imports(ast.parse(src)) == [(1, "os"), (2, "c")]


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private names (one leading underscore or more) -> their defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names if name.startswith("_") and not name.startswith("__"))
    return out


def _unreferenced_private_names(trees: dict) -> list:
    """(module, name) for each private module-level name of `trees` (module -> ast.Module)
    that no code reads, as a bare name or an attribute, outside its own definition."""
    reads = []  # (module, name, node)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.attr, node))
    out = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            if not any(n == name and not (m == module and id(node) in inside)
                       for m, n, node in reads):
                out.append((module, name))
    return sorted(out)


def test_every_private_name_is_used_in_the_library():
    # a private helper that only tests reach is dead code that the tests keep alive
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = _unreferenced_private_names(trees)
    assert not unused, "private names no library code reads: %s" % (
        ", ".join("%s:%s" % item for item in unused))


def test_unreferenced_private_name_detected():
    a = ("_LIMIT = 3\n"
         "class _Plan:\n    pass\n"
         "def _walk(n):\n    return _walk(n - 1)\n"
         "def _used():\n    return _LIMIT\n"
         "def public():\n    return _used()\n")
    b = "import a\nx = a._Plan\n"
    trees = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _unreferenced_private_names(trees) == [("a.py", "_walk")]
    assert _unreferenced_private_names({"a.py": ast.parse(a)}) == [("a.py", "_Plan"), ("a.py", "_walk")]


def _bench_module(name: str):
    """A perfbench module imported by file path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("_bench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve():
    # perfbench/tracer.py wraps matrixball functions by name and is frozen with
    # the benchmark; a rename in the library would break it without failing any
    # other test. The file is only imported here, never edited.
    tracer = _bench_module("tracer")
    for layer, (module, names) in tracer.LAYERS.items():
        mod = importlib.import_module("matrixball." + module)
        missing = [name for name in names if not callable(getattr(mod, name, None))]
        assert not missing, "layer %s: matrixball.%s lacks %s" % (layer, module, missing)

    from matrixball import poisson, suite

    assert sorted(suite.CRITERIA) == list(range(1, 13))
    for index, fn in suite.CRITERIA.items():
        params = inspect.signature(fn).parameters
        assert {"seed", "profile"} <= set(params), index
    assert callable(poisson._as_evaluator)


def test_benchmark_workloads_pass_at_smoke_sizes():
    # every operation of every perfbench workload passes within its tol at the
    # SMOKE sizes; a field or keyword the frozen benchmark still reads (such as
    # SandwichReport.slack) and the library dropped fails here first
    workloads = _bench_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        for op_name, op in workload.build(7, workloads.SMOKE[name]):
            out = op()
            assert out.passed and out.worst <= out.tol, (name, op_name, out)


def test_library_imports_no_scipy_and_nothing_after_its_import():
    # every process that checks the paper's claims imports the library first,
    # and scipy.linalg and scipy.special were two thirds of that import. In a
    # fresh process: import the CLI, then run criteria 2, 4 and 6, which use
    # expm, c_s's log-Gamma and the Stiefel rule's inverse normal CDF. No scipy
    # module may load, and no module the import did not already load.
    code = ("import sys\n"
            "import matrixball.cli\n"
            "from matrixball import suite\n"
            "loaded = set(sys.modules)\n"
            "for index in (2, 4, 6):\n"
            "    assert suite.CRITERIA[index](seed=7, profile='quick').passed, index\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not scipy, 'scipy modules loaded: %s' % scipy[:5]\n"
            "late = sorted(set(sys.modules) - loaded)\n"
            "assert not late, 'loaded after the import: %s' % late\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
