"""The CLI's JSON writer against its oracle, json.dumps(indent=2, sort_keys=True)."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromcat.cli as cli
from chromcat import ColimResult, filtration_tower
from conftest import group
from oracles import colim_classes


def expected(value):
    return json.dumps(value, indent=2, sort_keys=True, default=colim_classes)


# quotes, backslashes, control characters, "%", non-ASCII and astral
# characters, besides whatever text() draws
awkward = st.text(alphabet=st.sampled_from('a"\\\n\t\x00\x1f\x7f%é€\U0001f600'))
strings = awkward | st.text()
ints = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
scalars = (
    strings | ints | st.booleans() | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def records(draw):
    """Same-shaped int records, sometimes with one row that breaks the shape."""
    keys = draw(st.lists(strings, min_size=1, max_size=4, unique=True))
    widths = {k: draw(st.none() | st.integers(0, 3)) for k in keys}

    def value(w):
        if w is None:
            return draw(ints)
        return draw(st.lists(ints, min_size=w, max_size=w))

    rows = [
        {k: value(w) for k, w in widths.items()}
        for _ in range(draw(st.integers(1, 5)))
    ]
    odd = draw(st.sampled_from([None, "bool", "missing", "length", "order"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    key = draw(st.sampled_from(keys))
    w = widths[key]
    if odd == "bool":
        if w:
            row[key][draw(st.integers(0, w - 1))] = draw(st.booleans())
        else:
            row[key] = draw(st.booleans())
    elif odd == "missing":
        del row[key]
    elif odd == "length":
        row[key] = value(0 if w is None else w + 1)
    elif odd == "order":
        reordered = dict(reversed(list(row.items())))
        row.clear()
        row.update(reordered)
    return rows


payloads = st.recursive(
    scalars | records(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(strings, inner, max_size=4)
        | st.dictionaries(ints, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_writer_matches_json_dumps(value):
    assert cli._json_text(value) == expected(value)


def test_writer_edge_cases():
    for value in (
        [], {}, [[]], [{}], {"": []}, [1, True, None, "x"], [True, 1],
        [{"a": 1}, {"a": True}], [{"a": [1]}, {"a": [1, 2]}],
        [{"a": 1}, {"a": 1, "b": 2}], [{"b": 1, "a": [2, 3]}, {"a": [4, 5], "b": 6}],
        [{"%d": 1}, {"%d": 2}], [{"a": []}, {"a": []}],
        {2: "b", 10: "a", 1: "c"}, {1.5: 0, 0.25: 1}, {None: 1},
        {True: [1.5, float("nan"), -float("inf")]},
    ):
        assert cli._json_text(value) == expected(value), value
    for value in ({(1, 2): 3}, [{1, 2}], {1: "a", "b": 2}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_text(value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(ints, ints, st.lists(ints, max_size=4)), max_size=5),
    st.integers(0, 3),
)
def test_class_rows_match_json_dumps(blocks, depth):
    # blocks as a colimit result holds them, empty ones among them; the
    # writer reads nothing else of the result
    value = ColimResult(q=0, object_counts=[], size=0, blocks=blocks)
    for _ in range(depth):
        value = {"classes": value, "n": depth}
    assert cli._json_text(value) == expected(value)


def _recorded_memos(monkeypatch) -> list:
    """Each block memo the writer is handed, in order of first use."""
    memos = []
    write = cli._write

    def recording(value, nl, out, blocks):
        if not any(blocks is memo for memo in memos):
            memos.append(blocks)
        write(value, nl, out, blocks)

    monkeypatch.setattr(cli, "_write", recording)
    return memos


def test_repeated_blocks_are_written_once_per_call(monkeypatch):
    # a tower's levels share their walks' lead lists; each call formats a
    # block once per leads list, object, size and indentation, and its memo
    # is its own: a fresh dict that nothing holds once the call returns or
    # raises
    memos = _recorded_memos(monkeypatch)
    tower = filtration_tower(group("e8"), 2, 16)
    e8 = {
        "group": "E8", "p": 2, "q": tower.q, "surjections": tower.surjections,
        "levels": [{"n": n, "size": res.size, "classes": res} for n, res in tower.levels],
    }
    leads, other = [3, 5, 8], [1]
    a = ColimResult(q=4, object_counts=[], size=0,
                    blocks=[(0, 4, leads), (1, 4, leads), (1, 7, leads), (2, 1, [])])
    b = ColimResult(q=4, object_counts=[], size=0,
                    blocks=[(0, 4, leads), (2, 2, other), (1, 4, leads), (3, 5, [])])
    synthetic = {
        "levels": [{"n": 2, "classes": a}, {"n": 1, "classes": b}],
        "again": [a, b],
        "top": a,
        "empty": ColimResult(q=4, object_counts=[], size=0, blocks=[(0, 1, [])]),
    }
    # e8's three levels hold the same 16 blocks; the synthetic payload
    # formats a's three blocks at each of three indentations and b's one
    # block that a lacks at two
    for payload, formatted in ((e8, 16), (synthetic, 3 + 1 + 3 + 1 + 3)):
        assert cli._json_text(payload) == expected(payload)
        assert len(memos[-1]) == formatted
    bad = {"a": a, "b": {(1, 2): 3}}
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, sort_keys=True, default=colim_classes)
    with pytest.raises(TypeError):
        cli._json_text(bad)
    assert len(memos) == 3 and memos[-1]
    assert [sys.getrefcount(memos[i]) for i in range(3)] == [2, 2, 2]


# The stdout of three reports larger than any golden, as it was before class
# lists were written from the colimit result: a change to the payload itself
# shows here, where the json.dumps comparison below reads the same run's
# payload.
PRODUCTION_REPORTS = [
    (
        ("colim", "-g", "e8", "-q", "16", "--tower"),
        "cd7a205f499b02e0bfd4f7e6b1473f43bcba5aa1ddbf47bbdda55bd0b8ae479f",
    ),
    (
        ("colim", "-g", "h27", "-p", "3", "-q", "27", "--tower"),
        "874678281742751a7609dc63229bfdfbc179b0374ceaec6970d85b85593a724b",
    ),
    (
        ("colim", "-g", "e8", "-q", "16", "-n", "1"),
        "05857816f7bd1ae49eb8a18115e64913ca35a88c4926e74aa0e80d46f34dd451",
    ),
]


@pytest.mark.parametrize("argv,digest", PRODUCTION_REPORTS)
def test_production_reports_keep_their_bytes(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [argv for argv, _ in PRODUCTION_REPORTS])
def test_live_reports_match_json_dumps(argv, capsys, monkeypatch):
    # written byte for byte as json.dumps writes the payload, its class
    # lists expanded from the result's blocks
    payloads = []
    emit_json = cli._emit_json

    def recorded(args, payload):
        payloads.append(payload)
        emit_json(args, payload)

    monkeypatch.setattr(cli, "_emit_json", recorded)
    assert cli.main(list(argv)) == 0
    out, want = capsys.readouterr().out, expected(payloads[0]) + "\n"
    if out != want:  # pytest's diff of megabyte strings would take minutes
        at = next(i for i, (a, b) in enumerate(zip(out + "$", want)) if a != b)
        pytest.fail("differs from json.dumps at %d: %r" % (at, out[at - 40:at + 40]))
