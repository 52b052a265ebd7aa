"""No chromcat module reaches into another module's private names.

A name with a leading underscore is free to change with its module, so
another module may neither import it (``from .categories import _x``) nor
read it off an imported module (``modp._x``).  Each source file is parsed
with ``ast``; nothing is imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import chromcat

SRC = Path(chromcat.__file__).resolve().parent


def _private_uses(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "chromcat":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append("%s imports %s" % (path.name, alias.name))
            elif node.module in (None, "chromcat"):  # from . import modp
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append("%s reads %s.%s" % (path.name, node.value.id, node.attr))
    return found


def test_no_module_uses_another_modules_private_names():
    found = [use for path in sorted(SRC.glob("*.py")) for use in _private_uses(path)]
    assert found == []


def test_the_check_sees_a_private_import_and_read(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .categories import Fusion, _generators\n"
        "from . import modp\n"
        "x = modp._pack\n"
        "y = modp.mat_mul\n"
    )
    assert _private_uses(sample) == [
        "sample.py imports _generators", "sample.py reads modp._pack",
    ]
