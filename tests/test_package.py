import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isowrist
from isowrist.checks import CheckResult, run_checks
from isowrist.classify import ClassMember, SolutionMap
from isowrist.solver import SOLUTION_CATALOG, SolutionRecord

README = Path(__file__).resolve().parents[1] / "README.md"
BENCHMARK = README.parent / "benchmark"
SOURCES = Path(isowrist.__file__).resolve().parent

#: Every (function, parameter) of the library with a default value.  A new
#: settable value means a deliberate edit here, and a caller that sets it.
PARAMETERS_WITH_DEFAULTS = {
    ("isowrist.checks._result", "extra_ok"),
    ("isowrist.cli._output_option", "help_text"),
    ("isowrist.solver.oracle_root_hunt", "n_starts"),
    ("isowrist.solver.oracle_root_hunt", "seed"),
    ("isowrist.solver.oracle_root_hunt", "starts"),
}


def test_all_names_exist_sorted_and_unique():
    names = isowrist.__all__
    assert [name for name in names if not hasattr(isowrist, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_readme_library_overview_names_resolve():
    # every backticked identifier in a row of the module table is an attribute of that row's module
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(isowrist\.\w+)` \| (.*) \|$", section, re.M)
    assert len(rows) == 6
    named = [
        (module_name, name)
        for module_name, contents in rows
        for name in re.findall(r"`([^`]+)`", contents)
        if name.isidentifier()
    ]
    assert ("isowrist.classify", "symmetry_images") in named
    missing = [f"{m}.{name}" for m, name in named if not hasattr(importlib.import_module(m), name)]
    assert missing == []


def _parameters_with_defaults(node, qualname):
    """(qualified function, parameter) for each parameter with a default, in node and every scope inside it."""
    for child in ast.iter_child_nodes(node):
        name = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{qualname}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults) :]:
                yield name, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg
        elif isinstance(child, ast.ClassDef):
            name = f"{qualname}.{child.name}"
        yield from _parameters_with_defaults(child, name)


def test_parameters_with_defaults_are_the_allowed_ones():
    found = set()
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(_parameters_with_defaults(tree, f"isowrist.{path.stem}".removesuffix(".__init__")))
    assert found == PARAMETERS_WITH_DEFAULTS


def _loaded_names(tree):
    """The names a module reads: every name loaded or deleted, and every entry of its __all__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def _imported_names(tree):
    """The names a module's imports bind, except from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _private_definitions(tree):
    """The module-level _private functions, classes and constants of a module, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_import_and_private_name_is_read():
    # no linter runs on the package: an import its module never reads, or a _private name the package never
    # reads, is code that a deletion left behind
    paths = sorted(SOURCES.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in sorted(set(_imported_names(tree)) - set(_loaded_names(tree)))
    ]
    # a private name is read where it is loaded, taken as an attribute, or imported by another module
    read = set()
    for tree in trees.values():
        read.update(_loaded_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [
        f"{module}: {name}" for module, tree in trees.items() for name in _private_definitions(tree) if name not in read
    ]
    assert (unused, unread) == ([], [])


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    block = text[start : text.index("```", start)]  # without the closing fence, which doctest would read as output
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), text.count("\n", 0, start))
    assert doctest.DocTestRunner().run(test) == doctest.TestResults(failed=0, attempted=4)


def _fresh_python(code, *args):
    """Standard output of code run by a fresh interpreter that imports isowrist from this tree."""
    src = str(SOURCES.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True).stdout


def _loaded_after(commands, modules):
    """The modules, of those named, that a fresh interpreter holds after import isowrist.cli and each command."""
    code = (
        "import contextlib, io, sys, isowrist.cli\n"
        "assert isowrist.cli.__file__.startswith(sys.argv[1]), isowrist.cli.__file__\n"
        f"for args in {commands!r}:\n"
        "    sys.argv = ['isowrist'] + args\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        try:\n"
        "            isowrist.cli.main()\n"
        "        except SystemExit as stop:\n"
        "            assert stop.code in (None, 0), (args, stop.code)\n"
        "    assert out.getvalue(), args\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    return _fresh_python(code, str(SOURCES.parent))


def test_import_builds_no_wrist_classes():
    # distinct_wrists builds on its first call, so start-up pays nothing for the classes
    code = "import isowrist.cli\nfrom isowrist import classify\nprint(classify._built_wrists)\n"
    assert _fresh_python(code) == "(None, ())\n"


def test_an_infinite_jacobian_entry_prints_nothing():
    # LAPACK reports an illegal scaling value on the terminal when an SVD reads an inf, so such Jacobians skip it
    code = (
        "import os\n"
        "os.dup2(1, 2)\n"  # anything written to stderr reaches the captured stdout
        "import numpy as np\n"
        "from isowrist.kinematics import isotropy_report_stack, jacobian_from_axes_stack\n"
        "from isowrist.solver import SOLUTION_CATALOG, _axes_of\n"
        "points = np.array(SOLUTION_CATALOG)\n"
        "points[4, 4] = np.inf\n"  # record 5's z
        "sv, _, _, iso = isotropy_report_stack(jacobian_from_axes_stack(_axes_of(points)))\n"
        "print(int(np.isnan(sv).all(axis=1).sum()), int(iso.sum()))\n"
    )
    assert _fresh_python(code) == "1 31\n"


def test_cli_import_pulls_in_no_process_pool():
    # the oracle's workers use os.fork and pickle alone, so start-up imports neither pool module
    assert _loaded_after([], ("multiprocessing", "concurrent.futures")) == "[]\n"


def test_artifact_commands_import_neither_numpy_random_nor_numpy_ma():
    # numpy imports these lazily, at 10 ms or more each; a fresh interpreter per command would pay it every time
    commands = [["enumerate"], ["classify"], ["posture", "c"], ["platonic", "cube"]]
    assert _loaded_after(commands, ("numpy.random", "numpy.ma")) == "[]\n"


def test_only_the_oracle_imports_numpy_random():
    # the sample checks draw from the stdlib generator; numpy.random also loads secrets, hashlib and OpenSSL
    modules = ("hashlib", "numpy.ma", "numpy.random", "secrets")
    assert _loaded_after([["verify", "--oracle-starts", "0"]], modules) == "[]\n"
    # 500 starts find all 32 roots at seed 0, so this verify passes too; the oracle keeps numpy's stream
    assert "'numpy.random'" in _loaded_after([["verify", "--oracle-starts", "500"]], modules)


def test_benchmark_harness_finds_every_name_it_wraps_or_probes():
    # the harness wraps and probes library names by attribute, so a removed name breaks only its traced runs
    code = (
        "import sys\n"
        "sys.dont_write_bytecode = True\n"  # leave no bytecode beside the harness
        "sys.path.insert(0, sys.argv[1])\n"
        "import child\n"
        "child.install(child.Tracer())\n"
        "print(len(list(child.probe_batches())))\n"
    )
    assert _fresh_python(code, str(BENCHMARK)) == "8\n"


def test_benchmark_check_names_match_verify():
    # the harness keeps its own copy of the check names; read it without importing the harness
    tree = ast.parse((BENCHMARK / "run.py").read_text(encoding="utf-8"))
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CHECK_NAMES"]
    ]
    assert ast.literal_eval(value) == tuple(r.name for r in run_checks(0, 0))


#: The value records, an example of each, and its field names.
RECORDS = [
    (CheckResult("solution-residuals", "PASS", 0.0, 1e-12, ""), ("name", "status", "worst", "tolerance", "detail")),
    (SolutionRecord(*SOLUTION_CATALOG[17], 18), ("c", "s", "x", "y", "z", "u", "v", "w", "index")),
    (ClassMember(18, (1, 3, 2, 4), (1, -1)), ("solution_index", "ordering", "joint_signs")),
    (SolutionMap(18, "antipodal", 10, (2,)), ("source_index", "operation", "target_index", "subset")),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS])
def test_value_records_are_immutable_named_tuples(record, fields):
    assert type(record)._fields == fields
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == type(record)(*(getattr(record, name) for name in fields))


def _module_functions(path):
    """The module-level functions of a source file, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return tree, {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _calls(node):
    """The names called inside node, once per call."""
    return [n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]


def test_run_checks_calls_every_check():
    # a new check_* function that run_checks does not call would never run under verify
    _, functions = _module_functions(SOURCES / "checks.py")
    found = {name for name in functions if name.startswith("check_")}
    assert found and found <= set(_calls(functions["run_checks"]))


def test_check_results_are_built_in_three_functions():
    # every other verdict is _result's, so no check can pass by a rule of its own
    tree, functions = _module_functions(SOURCES / "checks.py")
    builders = {name: _calls(node).count("CheckResult") for name, node in functions.items()}
    builders = {name: count for name, count in builders.items() if count}
    assert set(builders) == {"_result", "check_distinctness", "check_oracle"}
    assert sum(builders.values()) == _calls(tree).count("CheckResult")
