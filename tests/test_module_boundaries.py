"""No chromcat module reaches into another module's private names, only
``groups`` and ``elemab`` read a group's Cayley table, ``polyfp`` imports
no chromcat module but ``modp``, and every public function, class and
method is reached by something other than the tests.

A name with a leading underscore is free to change with its module, so
another module may neither import it (``from .categories import _x``) nor
read it off an imported module (``modp._x``) or off a name imported from
one (``PolyFp._stored`` after ``from .polyfp import PolyFp``).  Every other module asks the
group for products and conjugates, so that the table can give way to
another representation in those two modules alone.  A public name that no
other part of the package uses and that the benchmark does not run is code
kept for the tests alone, which belongs in ``tests/oracles.py``; the one
exception is ``KEPT_FOR_CALLERS``, two value constructors.  The
polynomials and their linear actions need only F_p linear algebra, so that
a matrix group enters ``polyfp`` by its generators, never listed by a
group walk.  Each source file is parsed with ``ast``; nothing is imported
or run.
"""

from __future__ import annotations

import ast
import copy
from pathlib import Path

import chromcat

SRC = Path(chromcat.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TABLE_READERS = {"groups.py", "elemab.py"}


def _private_uses(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "chromcat":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append("%s imports %s" % (path.name, alias.name))
            else:  # a module (from . import modp) or a name in one
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
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
        "from .polyfp import PolyFp as Poly\n"
        "from . import modp\n"
        "from dataclasses import dataclass\n"
        "x = modp._pack\n"
        "y = modp.mat_mul\n"
        "z = Poly._stored(2, 1, {})\n"
        "w = Fusion.category\n"
        "v = dataclass._private\n"
        "u = self._own\n"
    )
    assert sorted(_private_uses(sample)) == [
        "sample.py imports _generators",
        "sample.py reads Poly._stored",
        "sample.py reads modp._pack",
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


def _chromcat_imports(path: Path) -> set:
    """The chromcat modules that ``path`` imports, relatively or by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] for p in parts if p[0] == "chromcat" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "chromcat":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import modp
                found.update(alias.name for alias in node.names)
    return found


def test_polyfp_imports_only_modp():
    assert _chromcat_imports(SRC / "polyfp.py") == {"modp"}


def test_the_check_sees_every_chromcat_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import itertools\n"
        "from . import modp\n"
        "from .groups import closure\n"
        "from chromcat.fgl import is_prime\n"
        "from chromcat import hopf\n"
        "import chromcat.elemab\n"
    )
    assert _chromcat_imports(sample) == {"modp", "groups", "fgl", "hopf", "elemab"}


def _used_names(node) -> set:
    """The names and attribute names that ``node`` reads or writes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _traced_names(layers: Path) -> set:
    """Every dotted part of the attrs that ``layers.TARGETS`` wraps."""
    tree = ast.parse(layers.read_text(), filename=str(layers))
    return {
        part
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
        for target in node.value.elts
        for part in target.elts[1].value.split(".")
    }


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Value constructors kept for library callers though no src code builds a
# value that way: a single circle-monomial and a single monomial.
KEPT_FOR_CALLERS = ["hopf.HopfExpr.omono", "polyfp.PolyFp.monomial"]


def _units(path: Path):
    """(owner, node) for each top-level statement of ``path`` and each
    statement of a top-level class body; a definition's owner is
    (module, name), or (module, class, name) for a class member, and the
    rest of a class is owned by the class.  A class comes first as its
    header, the definition with its decorators and bases but no body."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        owner = (path.stem, getattr(node, "name", None))
        if not isinstance(node, ast.ClassDef):
            yield owner, node
            continue
        header = copy.copy(node)
        header.body = []
        yield owner, header
        for member in node.body:
            yield (owner + (member.name,) if isinstance(member, DEFS) else owner), member


def _unreached(src: Path, perfbench: Path) -> list:
    """The public top-level functions and classes of the modules in ``src``,
    and the public methods of their classes, that no other src code names
    (``__init__``'s re-exports aside, and a definition's own body aside)
    and that ``perfbench`` names neither as a ``layers.TARGETS`` attr nor
    in its code; metric strings do not count."""
    uses, defined = [], []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for owner, node in _units(path):
            uses.append((owner, _used_names(node)))
            public = isinstance(node, DEFS) and not owner[-1].startswith("_")
            if public and path.name != "__main__.py":
                defined.append(owner)
    benched = _traced_names(perfbench / "layers.py")
    for path in perfbench.glob("*.py"):
        benched |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    return [
        ".".join(key)
        for key in defined
        if key[-1] not in benched
        and not any(key[-1] in used for owner, used in uses if owner[: len(key)] != key)
    ]


def test_every_public_name_is_reached_outside_the_tests():
    assert _unreached(SRC, PERFBENCH) == KEPT_FOR_CALLERS


def test_the_check_sees_a_name_only_tests_reach(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "perfbench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import Kept, loop, unused\n")
    (src / "__main__.py").write_text("from .b import main\nmain()\n")
    (src / "a.py").write_text(
        "class Kept:\n    pass\n\n"
        "class Spare:\n    pass\n\n"
        "def loop(n):\n    return loop(n - 1) if n else Kept()\n\n"
        "def unused():\n    pass\n\n"
        "def traced():\n    pass\n\n"
        "def benched():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Poly:\n"
        "    size = 0\n"
        "    def __init__(self):\n        self.grow()\n"
        "    def grow(self):\n        pass\n"
        "    def recur(self):\n        return self.recur()\n"
        "    def used(self):\n        pass\n"
        "    def sibling(self):\n        pass\n"
        "    def spare(self):\n        return self.sibling()\n"
        "    def timed(self):\n        pass\n"
        "    def measured(self):\n        pass\n"
        "    def _hidden(self):\n        pass\n"
    )
    (src / "b.py").write_text(
        "from . import a\n\ndef main():\n    return a.Kept, a.Poly().used()\n"
    )
    (bench / "layers.py").write_text(
        'TARGETS = (("chromcat.a", "traced", "a.traced", None),\n'
        '           ("chromcat.a", "Poly.timed", "a.timed", None))\n'
        'PER_LAYER = (("a.unused", "count/op", "lower", "count", "a.loop"),)\n'
    )
    (bench / "run.py").write_text(
        "def op(cc):\n    return cc.a.benched(), cc.a.Poly().measured()\n"
    )
    # a sibling method names grow and sibling; recur is named in its own
    # def alone, and the class Spare and the method spare nowhere
    assert _unreached(src, bench) == [
        "a.Spare", "a.loop", "a.unused", "a.Poly.recur", "a.Poly.spare",
    ]
