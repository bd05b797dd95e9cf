"""The CLI's JSON writer against ``json.dumps(indent=2)``."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

import analogical.cli as cli

_ESCAPES = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "☃", " ", "\U0001d11e", "\ud800"]
_text = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_ESCAPES)), max_size=8)
_ints = st.integers(min_value=-(2**70), max_value=2**70)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf")]),
)
_bits = st.integers(min_value=0, max_value=1)
_scalars = st.one_of(_text, _ints, st.booleans(), _floats, st.none())
_int_lists = st.one_of(
    st.lists(_ints, max_size=6),
    st.lists(st.tuples(_ints, _ints), max_size=5),
    st.lists(st.lists(_ints, max_size=4), max_size=4),
    st.integers(min_value=0, max_value=4).flatmap(
        lambda w: st.lists(st.lists(_bits, min_size=w, max_size=w), max_size=4)
    ),
    st.lists(st.one_of(st.booleans(), _bits), max_size=6),
)
_values = st.recursive(
    st.one_of(_scalars, _int_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=25,
)
_reports = st.dictionaries(_text, _values, max_size=5)


def _emitted(report) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_json(report)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@hgiven(_values)
def test_writer_matches_json_dumps(obj):
    assert cli._json(obj, "\n") == json.dumps(obj, indent=2)


@settings(max_examples=100, deadline=None)
@hgiven(_reports, st.data())
def test_streamed_report_matches_json_dumps(report, data):
    expected = json.dumps(report, indent=2) + "\n"
    assert _emitted(report) == expected
    # any top-level list may arrive as an iterator of its items
    lazy = {k: iter(v) if type(v) is list and data.draw(st.booleans()) else v for k, v in report.items()}
    assert _emitted(lazy) == expected


def test_writer_report_shapes():
    masks = [
        {"members": [], "subcontexts": {}, "pointers": [], "offending_pairs": [(1, 2)]},
        {"members": [1, 2], "verdicts": {"pointer": True}, "c2": [[0, 1], [1, 0]]},
    ]
    expected = {
        "given": ['a"b', "c\\d", "é", "☃", "\U0001d11e"],
        "masks": masks,
        "empty": [],
        "mixed": [True, 1, 0, False],
        "ragged": [[1], [], [2, 3]],
        "entropy_bits": -0.0,
        "nothing": None,
    }
    report = {**expected, "masks": iter(masks), "empty": iter([])}
    assert _emitted(report) == json.dumps(expected, indent=2) + "\n"
    # a list may also arrive as its items' text, rendered at the item indent
    rendered = (cli._json(mask, "\n    ") for mask in masks)
    report = {**expected, "masks": cli._Rendered(rendered), "empty": cli._Rendered([])}
    assert _emitted(report) == json.dumps(expected, indent=2) + "\n"
    assert _emitted({}) == "{}\n"


@pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, [np.int64(1)], [[1, np.int64(2)]], object()])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._json(obj, "\n")
    with pytest.raises(TypeError):
        _emitted({"value": obj})


def test_writer_rejects_non_str_keys():
    # json.dumps would turn the key into a string; no report has such a key
    for obj in ({1: "a"}, {None: 1}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            cli._json(obj, "\n")
