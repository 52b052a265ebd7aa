"""No chromcat module reaches into another module's private names, and
only ``groups`` and ``elemab`` read a group's Cayley table.

A name with a leading underscore is free to change with its module, so
another module may neither import it (``from .categories import _x``) nor
read it off an imported module (``modp._x``).  Every other module asks the
group for products and conjugates, so that the table can give way to
another representation in those two modules alone.  Each source file is
parsed with ``ast``; nothing is imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import chromcat

SRC = Path(chromcat.__file__).resolve().parent
TABLE_READERS = {"groups.py", "elemab.py"}


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


def _table_reads(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        "%s reads .table at line %d" % (path.name, node.lineno)
        for node in sorted(
            (n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "table"),
            key=lambda n: (n.lineno, n.col_offset),
        )
    ]


def test_only_groups_and_elemab_read_the_cayley_table():
    readers = {path.name for path in SRC.glob("*.py") if _table_reads(path)}
    assert readers == TABLE_READERS


def test_the_check_sees_a_table_read(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "row = group.table[g]\n"
        "n = group.order\n"
        "t, u = self.table, group.mul(g, h)\n"
    )
    assert _table_reads(sample) == [
        "sample.py reads .table at line 1", "sample.py reads .table at line 3",
    ]
