"""The CLI's JSON writer against its oracle, json.dumps(indent=2, sort_keys=True)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromcat.cli as cli


def expected(value):
    return json.dumps(value, indent=2, sort_keys=True)


# quotes, backslashes, control characters, "%" (the record template's own
# escape), non-ASCII and astral characters, besides whatever text() draws
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


@pytest.mark.parametrize(
    "argv",
    [
        ("colim", "-g", "e8", "-q", "16", "--tower"),
        ("colim", "-g", "h27", "-p", "3", "-q", "27", "--tower"),
        ("colim", "-g", "e8", "-q", "16", "-n", "1"),
    ],
)
def test_live_reports_match_json_dumps(argv, capsys, monkeypatch):
    # reports larger than any golden, written byte for byte as json.dumps would
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
