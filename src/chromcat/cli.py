"""Command-line front end.

Every command reads a group (builtin name or JSON file), runs one of the
library computations and writes a deterministic report: JSON with sorted
keys, or DOT for skeletons (``category --format dot``).  Exit codes: 0
success, 1 assertion failure (a4-demo), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .categories import (
    Fusion,
    build_category,
    hom_chain_report,
    skeleton,
    witness_scan,
)
from .colimits import (
    ColimResult,
    FqError,
    colim_points,
    component_count,
    filtration_tower,
    q_to_pm,
)
from .demo import DemoFailure, a4_demo
from .elemab import enumerate_elem_abelians, p_rank
from .groups import DEFAULT_ORDER_CAP, GroupError
from .library import LIBRARY_DIR, builtin_names, bundled_library, load_group_file
from .modp import is_prime
from .polyfp import invariant_bases, parse_poly
from .subrings import SubringPresentation, build_CR, sylow_among, sylow_class, weyl_action

class UsageError(ValueError):
    pass


def _load_group(args):
    if args.group is None:
        raise UsageError("a group is required (--group NAME_OR_PATH)")
    path, builtin = Path(args.group), LIBRARY_DIR / (args.group + ".json")
    if path.exists():
        return load_group_file(path)
    if path.name == args.group and builtin.is_file():  # a bare name, no directory
        return load_group_file(builtin)
    raise UsageError(
        "group %r is neither a file nor a builtin (builtins: %s)"
        % (args.group, ", ".join(builtin_names()))
    )


def _emit(args, text):
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, _json_text(payload) + "\n")


# The writer below gives exactly json.dumps(value, indent=2, sort_keys=True).
# The stdlib uses its C encoder only without indent, so reports are written
# here: a list of scalars with one join, of ints with one % template, a
# colimit's class list from its result with one % template per block, the
# rest by a plain recursion that appends every piece to one list, joined
# once, so no piece is copied again into each list or dict around it.  A
# tower's levels share their walks' lead lists, so one call formats each
# block text once: a block with the same leads list, object, size and
# indentation at another level reuses it.

_INDENT = "  "
_SCALAR_TEXT = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value, nl="\n"):
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, where
    nl is the newline and indentation of the line that holds value.  A
    ``ColimResult`` stands for its class list, the records {"rep": [object,
    point], "size": points} of its classes."""
    out = []
    _write(value, nl, out, {})
    return "".join(out)


def _write(value, nl, out, blocks):
    """Append the pieces of _json_text(value, nl) to out.  ``blocks`` holds
    the colimit block texts written so far in this call, keyed by the
    identity of the leads list, the object, the size and the newline; the
    value being written keeps every such list alive, so no key is reused."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
        return
    inner = nl + _INDENT
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[" + inner)
        body = _scalars_body(value, sep)
        if body is None:
            for x in value:
                _write(x, inner, out, blocks)
                out.append(sep)
        else:
            out += (body, sep)
        out[-1] = nl + "]"  # in place of the last separator
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{" + inner)
        # sorted on the keys themselves, as json.dumps sorts before it
        # turns int, float, bool or None keys into strings
        for k, v in sorted(value.items()):
            out.append(encode_basestring_ascii(_key_text(k)) + ": ")
            _write(v, inner, out, blocks)
            out.append(sep)
        out[-1] = nl + "}"
    elif type(value) is ColimResult:
        # one template per block, its object and size written in, takes the
        # block's point indices
        key, item = inner + _INDENT, inner + 2 * _INDENT
        rows = []
        for least, points, leads in value.blocks:
            if not leads:
                continue
            block = (id(leads), least, points, nl)
            if block not in blocks:
                blocks[block] = sep.join([
                    "{" + key + '"rep": [' + item + "%d," % least + item + "%d" + key + "],"
                    + key + '"size": %d' % points + inner + "}"
                ] * len(leads)) % tuple(leads)
            rows.append(blocks[block])
        out += ("[" + inner, sep.join(rows), nl + "]") if rows else ("[]",)
    else:
        # floats, subclasses of the scalar types, and anything json.dumps
        # refuses with its own TypeError
        out.append(json.dumps(value))


def _key_text(key):
    if isinstance(key, str):
        return key
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(
            "keys must be str, int, float, bool or None, not %s"
            % key.__class__.__name__
        )
    return json.dumps(key)


def _scalars_body(items, sep):
    """Exact ints, strings, bools and Nones joined by sep, or None when any
    item is something else.  Exact ints alone take one % template."""
    if {int}.issuperset(map(type, items)):
        return sep.join(["%d"] * len(items)) % tuple(items)
    try:
        return sep.join([_SCALAR_TEXT[type(x)](x) for x in items])
    except KeyError:
        return None


def _parse_prime(value):
    p = int(value)
    # a larger prime divides no group order the loaders accept
    if p > DEFAULT_ORDER_CAP:
        raise argparse.ArgumentTypeError(
            "%s exceeds the group order cap %d" % (value, DEFAULT_ORDER_CAP)
        )
    if not is_prime(p):
        raise argparse.ArgumentTypeError("%s is not a prime" % value)
    return p


_parse_prime.__name__ = "prime"


def _at_least(k, what):
    """The argparse type of an int that is at least k, named what."""

    def parse(value):
        n = int(value)
        if n < k:
            raise argparse.ArgumentTypeError("%s must be >= %d" % (what, k))
        return n

    parse.__name__ = what
    return parse


def _parse_level(value):
    """A level, or None for ``inf``, the Quillen category."""
    return None if value == "inf" else _at_least(0, "level")(value)


_parse_level.__name__ = "level"


def _parse_max_order(value):
    n = _at_least(1, "max order")(value)
    # the loaders refuse every group past the cap, so a larger bound does
    # nothing
    if n > DEFAULT_ORDER_CAP:
        raise argparse.ArgumentTypeError(
            "%s exceeds the group order cap %d" % (value, DEFAULT_ORDER_CAP)
        )
    return n


_parse_max_order.__name__ = "max order"


# -- commands -------------------------------------------------------------------


def cmd_group_info(args):
    group = _load_group(args)
    info = {
        "name": group.name,
        "order": group.order,
        "abelian": group.is_abelian(),
        "exponent": group.exponent(),
        "center_order": len(group.center()),
        "conjugacy_classes": group.conjugacy_class_count(),
        "p_ranks": {
            str(p): p_rank(group, p)
            for p in range(2, group.order + 1) if group.order % p == 0 and is_prime(p)
        },
    }
    _emit_json(args, info)
    return 0


def cmd_elemab(args):
    group = _load_group(args)
    subs = enumerate_elem_abelians(group, args.p)
    payload = {
        "group": group.name,
        "p": args.p,
        "p_rank": max(v.rank for v in subs),
        "subgroups": [
            {
                "rank": v.rank,
                "elements": list(v.sorted_elements()),
                "basis": list(v.basis),
                "labels": [group.labels[b] for b in v.basis],
            }
            for v in subs
        ],
    }
    _emit_json(args, payload)
    return 0


def cmd_category(args):
    group = _load_group(args)
    cat = build_category(group, args.p, args.n)
    report = skeleton(cat)
    if args.format == "dot":
        _emit(args, report.to_dot())
        return 0
    payload = {
        "group": group.name,
        "p": args.p,
        "level": "inf" if args.n is None else args.n,
        "objects": len(cat.objects),
        "morphisms": cat.morphism_count(),
        "skeleton": report.to_dict(),
    }
    _emit_json(args, payload)
    return 0


def cmd_stab(args):
    group = _load_group(args)
    report = hom_chain_report(group, args.p)
    _emit_json(args, {"group": group.name, "p": args.p, **report})
    return 0


def cmd_colim(args):
    q_to_pm(args.q, args.p)
    group = _load_group(args)
    if args.tower:
        tower = filtration_tower(group, args.p, args.q)
        levels = [{"n": n, "size": res.size, "classes": res} for n, res in tower.levels]
        fields = {"q": tower.q, "levels": levels, "surjections": tower.surjections}
    else:
        cat = build_category(group, args.p, args.n)
        res = colim_points(cat, args.q)
        fields = {
            "level": "inf" if args.n is None else args.n,
            "components": component_count(cat),
            "q": res.q,
            "object_counts": res.object_counts,
            "size": res.size,
            "classes": res,
        }
    _emit_json(args, {"group": group.name, "p": args.p, **fields})
    return 0


def _read_generators(path, rank):
    """Generator polynomials and subring name from a JSON generator file."""
    doc = json.loads(Path(path).read_text())
    strings = doc.get("generators") if isinstance(doc, dict) else None
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        raise UsageError('%s must hold {"generators": [polynomial strings]}' % path)
    name = doc.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise UsageError('%s: "name" must be a string' % path)
    try:
        gens = [parse_poly(s, 2, rank) for s in strings]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return gens, name


def cmd_cr(args):
    group = _load_group(args)
    fusion = Fusion(group, 2)
    rank = sylow_among(fusion.objects).rank
    if args.generators:
        gens, name = _read_generators(args.generators, rank)
    else:
        gens, name = [], "unit"
    try:
        presentation = SubringPresentation(fusion, gens, name=name)
    except ValueError as exc:  # an inhomogeneous or non-invariant generator
        raise UsageError(str(exc)) from exc
    cat = build_CR(group, presentation)
    comparisons = {}
    for n in range(0, fusion.rank + 1):
        comparisons["A^(%d)" % n] = cat.equals(fusion.category(n))
    comparisons["quillen"] = cat.equals(fusion.category(None))
    payload = {
        "group": group.name,
        "subring": name,
        "generators": [g.render() for g in gens],
        "morphisms": cat.morphism_count(),
        "equals": comparisons,
        "skeleton": skeleton(cat).to_dict(),
    }
    _emit_json(args, payload)
    return 0


def cmd_invariants(args):
    group = _load_group(args)
    fusion = Fusion(group, args.p)
    weyl = weyl_action(fusion)
    bases = invariant_bases(weyl, range(0, args.max_degree + 1))
    payload = {
        "group": group.name,
        "p": args.p,
        "sylow_rank": weyl.nvars,
        "weyl_order": len(sylow_class(fusion)[0]),  # |W| = |Aut_G(P)|
        "invariants": {
            str(d): [f.render() for f in basis] for d, basis in bases.items()
        },
    }
    _emit_json(args, payload)
    return 0


def cmd_witness(args):
    directory = Path(args.library) if args.library else None
    library = bundled_library(max_order=args.max_order, directory=directory)
    result = witness_scan(library, args.p, args.n)
    _emit_json(args, result)
    return 0


def cmd_a4_demo(args):
    try:
        report = a4_demo()
    except DemoFailure as exc:
        _emit_json(args, {"ok": False, "error": str(exc)})
        return 1
    _emit_json(args, report)
    return 0


# -- argument parsing -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chromcat",
        description="chromatic categories of elementary abelian subgroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, group=True, prime=True):
        if group:
            sp.add_argument("--group", "-g", help="builtin name or JSON file path")
        if prime:
            sp.add_argument("-p", type=_parse_prime, default=2, help="prime (default 2)")
        sp.add_argument("--output", "-o", help="write report to this path")

    sp = sub.add_parser("group-info", help="order, center, classes, p-ranks")
    common(sp, prime=False)
    sp.set_defaults(func=cmd_group_info)

    sp = sub.add_parser("elemab", help="list elementary abelian p-subgroups")
    common(sp)
    sp.set_defaults(func=cmd_elemab)

    sp = sub.add_parser("category", help="skeleton of the level-n category")
    common(sp)
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.add_argument("-n", type=_parse_level, default=None, help="level (int or 'inf')")
    sp.set_defaults(func=cmd_category)

    sp = sub.add_parser("stab", help="stabilization rank and hom-chain strictness")
    common(sp)
    sp.set_defaults(func=cmd_stab)

    sp = sub.add_parser("colim", help="F_q-points of the colimit")
    common(sp)
    sp.add_argument(
        "-q", type=int, required=True,
        help="field size, any power of p within the colimit work bound",
    )
    which = sp.add_mutually_exclusive_group()
    which.add_argument("-n", type=_parse_level, default=None)
    which.add_argument("--tower", action="store_true", help="full filtration tower")
    sp.set_defaults(func=cmd_colim)

    sp = sub.add_parser("cr", help="subring category C_R from a generator file")
    common(sp, prime=False)
    sp.add_argument(
        "--generators",
        help="JSON file {'generators': [poly strings], 'name': str}; empty for the unit subring",
    )
    sp.set_defaults(func=cmd_cr)

    sp = sub.add_parser("invariants", help="Weyl-invariant bases per degree")
    common(sp)
    sp.add_argument("--max-degree", type=_at_least(0, "degree"), default=6)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("witness", help="scan a library for A^(n) != A^(n+1)")
    common(sp, group=False)
    sp.add_argument("-n", type=_at_least(0, "level"), default=1)
    sp.add_argument("--library", help="directory of group JSON files (default: bundled)")
    sp.add_argument(
        "--max-order", type=_parse_max_order, default=64,
        help="largest group order scanned, at most the group order cap %d "
        "(default 64)" % DEFAULT_ORDER_CAP,
    )
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("a4-demo", help="run the A_4 worked example")
    common(sp, group=False, prime=False)
    sp.set_defaults(func=cmd_a4_demo)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, GroupError, FqError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # unreadable or malformed input files
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
