import importlib
import re
from pathlib import Path

import isowrist

README = Path(__file__).resolve().parents[1] / "README.md"


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
