"""Loading permutation groups from JSON files and the bundled library.

A group file is ``{"name": str, "degree": int, "generators": [[int, ...]]}``
with 0-indexed image arrays, closed into a group of at most
``groups.DEFAULT_ORDER_CAP`` elements.  The bundled library ships as data
files next to this module so a witness scan can be extended by dropping
files in a directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .groups import FiniteGroup, GroupError, group_from_permutations

LIBRARY_DIR = Path(__file__).parent / "library"


def load_group_data(data: dict) -> FiniteGroup:
    try:
        name = data["name"]
        degree = data["degree"]
        generators = data["generators"]
    except (KeyError, TypeError) as exc:
        raise GroupError("group document needs name, degree, generators") from exc
    if not isinstance(name, str):
        raise GroupError("group name must be a string, not %r" % (name,))
    if not _is_int(degree) or degree < 1:
        raise GroupError("degree must be an integer >= 1, not %r" % (degree,))
    if not isinstance(generators, list) or not all(
        isinstance(g, list) and all(_is_int(x) for x in g) for g in generators
    ):
        raise GroupError("generators must be a list of lists of integers")
    return group_from_permutations(degree, generators, name=name)


def _is_int(x) -> bool:
    """An int that is not a bool, which JSON would have written true/false."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_group_file(path) -> FiniteGroup:
    """The group of a group file; every GroupError names the file."""
    with open(path) as fh:
        try:
            return load_group_data(json.load(fh))
        except json.JSONDecodeError as exc:
            raise GroupError("malformed group file %s: %s" % (path, exc)) from exc
        except GroupError as exc:
            raise GroupError("group file %s: %s" % (path, exc)) from exc


def builtin_names() -> list[str]:
    return sorted(p.stem for p in LIBRARY_DIR.glob("*.json"))


def load_builtin(name: str) -> FiniteGroup:
    path = LIBRARY_DIR / (name + ".json")
    if not path.exists():
        raise GroupError(
            "unknown builtin group %r (have: %s)" % (name, ", ".join(builtin_names()))
        )
    return load_group_file(path)


def bundled_library(
    max_order: Optional[int] = None,
    directory: Optional[Path] = None,
) -> list[tuple[str, FiniteGroup]]:
    """(name, group) pairs from a library directory, smallest orders first.

    Groups whose closure exceeds max_order are dropped here (the scan caller
    reports groups over its own cap itself).  A path that is not a directory
    is an error, not an empty library.
    """
    directory = Path(directory) if directory else LIBRARY_DIR
    if not directory.is_dir():
        raise GroupError("group library %s is not a directory" % directory)
    out = []
    for path in sorted(directory.glob("*.json")):
        group = load_group_file(path)
        if max_order is not None and group.order > max_order:
            continue
        out.append((group.name, group))
    out.sort(key=lambda pair: (pair[1].order, pair[0]))
    return out
