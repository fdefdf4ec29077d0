import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import cli_env
from tracealign import EventLog, Trace, aligner

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "tracealign").glob("*.py"))
BENCHMARK_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))
# Attributes of numpy 2 that numpy 1.24, the floor ``pyproject.toml``
# declares, lacks.
NUMPY_2_ONLY = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat", "cumulative_prod",
    "cumulative_sum", "isdtype", "matrix_transpose", "matvec", "permute_dims", "pow", "strings",
    "trapezoid", "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack",
    "vecdot", "vecmat",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_runtime_check_depends_on_assert(path):
    # ``python -O`` strips assert statements, so a check made with one can vanish.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def test_sources_are_found():
    assert len(SOURCES) >= 7
    assert len(BENCHMARK_SOURCES) >= 5


def _numpy_2_only(tree):
    """Each numpy-2-only name read as ``np.X`` or ``numpy.X`` or imported from numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and node.attr in NUMPY_2_ONLY:
                yield f"{node.value.id}.{node.attr} (line {node.lineno})"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in NUMPY_2_ONLY:
                    yield f"{alias.name} (line {node.lineno})"


@pytest.mark.parametrize(
    "path", SOURCES + BENCHMARK_SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_runs_on_the_declared_version_floors(path):
    # pyproject.toml allows Python 3.10 and numpy 1.24; only newer ones may
    # be at hand to run the suite, so the source is checked against both.
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    found = list(_numpy_2_only(tree))
    assert found == [], f"{path.name} uses numpy-2-only names {found}"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # It prints the OMS, the OIS and the complexity result on one line.
    (line,) = capsys.readouterr().out.splitlines()
    assert line.split(" ", 2)[2].startswith("ComplexityResult(value=")


def _private_definitions(tree):
    """Each private module-level function, class or constant, with the node defining it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree):
    """How often each name is read, looked up as an attribute or imported under ``tree``."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def test_every_private_helper_is_used():
    # A helper whose last caller went is dead code that still reads as part of the design.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{file}:{name}"
        for file, tree in trees.items()
        for name, node in _private_definitions(tree)
        if uses[name] == _uses(node)[name]
    ]
    assert unused == [], f"private names never used outside their own definition: {unused}"


def _imported_names(tree):
    """Each name a module-level import binds, with its line; ``__future__`` binds none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_import_is_used(path):
    # ``__init__.py`` imports names to re-export them, so it is not checked.
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in read]
    assert unused == [], f"{path.name} never reads the imports {unused}"


# Package modules from the bottom layer up: each imports only modules before it.
LAYERS = ("_kernels", "core", "metrics", "aligner", "experiments", "formats", "cli")
# The one function that turns a document into JSON text.
JSON_SERIALIZER = ("formats.py", "_json_text")


def _with_function(tree):
    """Each node under ``tree``, with the name of the function it is in (None outside any)."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            yield child, function
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield from visit(child, inner)

    yield from visit(tree, None)


def _package_modules(node):
    """The package modules an import statement loads, relative or absolute."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("tracealign.")]
    module = node.module or ""
    if node.level == 0:
        if module != "tracealign" and not module.startswith("tracealign."):
            return []
        module = module.removeprefix("tracealign").lstrip(".")
    if module:
        return [module.partition(".")[0]]
    return [alias.name for alias in node.names]


def _package_imports(path):
    """Each package module ``path`` imports, with the function importing it and the line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node, function in _with_function(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _package_modules(node):
                yield module, function, node.lineno


def test_modules_import_only_lower_layers():
    upward = []
    for path in SOURCES:
        if path.name == "__init__.py":  # re-exports every layer
            continue
        assert path.stem in LAYERS, f"{path.name} has no place in LAYERS"
        below = LAYERS[: LAYERS.index(path.stem)]
        upward += [
            f"{path.name}:{line} imports {module}"
            for module, function, line in _package_imports(path)
            if function is None and module not in below
        ]
    assert upward == [], f"imports that are not of a lower layer: {upward}"


def test_no_package_import_inside_a_function():
    # An import in a function body hides a dependency from the module's
    # header, and from perfbench/traced.py, which swaps module attributes.
    inside = [
        f"{path.name}:{line} {function}() imports {module}"
        for path in SOURCES
        for module, function, line in _package_imports(path)
        if function is not None
    ]
    assert inside == [], f"package imports inside functions: {inside}"


def test_json_is_written_by_one_serializer():
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, function in _with_function(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = {alias.name for alias in node.names}
                if names & {"dump", "dumps"}:
                    calls.append(f"{path.name}:{node.lineno} imports json.dump(s)")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")
                and (path.name, function) != JSON_SERIALIZER
            ):
                calls.append(f"{path.name}:{node.lineno} {function}() calls json.{node.func.attr}")
    assert calls == [], f"JSON written outside formats.{JSON_SERIALIZER[1]}: {calls}"


def _benchmark_tracer():
    """perfbench/traced.py, loaded as a module without running it."""
    path = ROOT / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_benchmark_tracer_finds_what_it_wraps():
    # perfbench/traced.py wraps these functions by name and reads these
    # parameters from each call's bound arguments to count the work done.
    traced = _benchmark_tracer()
    functions = {}
    for module_name, names in traced.TARGETS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            functions[name] = getattr(module, name)
    read = {"nw_scores": "lengths", "profile_fill": "s", "perturb": "moves"}
    for name, parameter in read.items():
        assert name in traced.WORK
        assert parameter in inspect.signature(functions[name]).parameters, f"{name}({parameter})"


def test_cli_import_loads_every_traced_layer():
    # perfbench/traced.py's install() imports tracealign.cli, then looks
    # each TARGETS module up in sys.modules, so a layer imported lazily
    # would break the traced benchmark run.
    traced = _benchmark_tracer()
    probe = "import sys, tracealign.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=cli_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    missing = set(traced.TARGETS) - set(proc.stdout.split())
    assert missing == set(), f"import tracealign.cli leaves out {sorted(missing)}"


def test_progressive_align_merges_through_align_profiles(monkeypatch):
    # The benchmark counts ``align_profiles`` calls, which a lone merge group makes.
    calls = []
    align_profiles = aligner.align_profiles

    def counted(*args, **kwargs):
        calls.append(args)
        return align_profiles(*args, **kwargs)

    monkeypatch.setattr(aligner, "align_profiles", counted)
    log = EventLog([Trace("a", ["x", "y"]), Trace("b", ["x", "z"]), Trace("c", ["y", "z"])])
    aligner.progressive_align(log)
    assert len(calls) >= 1
