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
from isowrist.classify import ClassMember, SolutionMap
from isowrist.solver import SOLUTION_CATALOG, SolutionRecord

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(isowrist.__file__).resolve().parent

#: Every (function, parameter) of the library with a default value.  A new
#: settable value means a deliberate edit here, and a caller that sets it.
PARAMETERS_WITH_DEFAULTS = {
    ("isowrist.checks._result", "extra_ok"),
    ("isowrist.checks._result", "detail"),
    ("isowrist.checks._by_size", "size"),
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


def test_readme_python_example_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    block = text[start : text.index("```", start)]  # without the closing fence, which doctest would read as output
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), text.count("\n", 0, start))
    assert doctest.DocTestRunner().run(test) == doctest.TestResults(failed=0, attempted=4)


def _loaded_after(commands, modules):
    """The modules, of those named, that a fresh interpreter holds after import isowrist.cli and each command."""
    src = str(Path(isowrist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
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
    done = subprocess.run([sys.executable, "-c", code, src], env=env, capture_output=True, text=True, check=True)
    return done.stdout


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


#: The value records built in bulk on every artifact command, an example of each, and its field names.
RECORDS = [
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
