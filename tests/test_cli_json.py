"""The CLI's JSON writer against ``json.dumps(indent=2)``, with and without pre-rendered parts."""

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


def _emitted(report, /, **rendered) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_json(report, **rendered)
    return out.getvalue()


def _at(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` renders it at newline-and-indent ``indent``."""
    return json.dumps(value, indent=2).replace("\n", indent)


@settings(max_examples=100, deadline=None)
@hgiven(_reports, st.data())
def test_streamed_report_matches_json_dumps(report, data):
    expected = json.dumps(report, indent=2) + "\n"
    assert _emitted(report) == expected
    # any top-level list may arrive as its entries' text, streamed one at a time,
    # and any top-level value as its text; the report then holds None there
    rendered = {}
    for key, value in report.items():
        ways = ["plain", "text", "streamed"] if type(value) is list else ["plain", "text"]
        how = data.draw(st.sampled_from(ways))
        if how == "text":
            rendered[key] = [_at(value, "\n  ")]
        elif how == "streamed":
            rendered[key] = cli._streamed(_at(entry, "\n    ") for entry in value)
    assert _emitted({**report, **dict.fromkeys(rendered)}, **rendered) == expected


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
    assert _emitted(expected) == json.dumps(expected, indent=2) + "\n"
    # a list may also arrive as its entries' text, and a value as its text
    report = {**expected, "masks": None, "empty": None, "ragged": None}
    assert _emitted(
        report,
        masks=cli._streamed(_at(mask, "\n    ") for mask in masks),
        empty=cli._streamed([]),
        ragged=[_at(expected["ragged"], "\n  ")],
    ) == json.dumps(expected, indent=2) + "\n"
    # the placeholder is found by its key, whatever the key holds or is called
    assert _emitted({'"report": null': None, "report": None}, report=["1"]) == (
        '{\n  "\\"report\\": null": null,\n  "report": 1\n}\n'
    )
    assert _emitted({}) == "{}\n"


@pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, [np.int64(1)], [[1, np.int64(2)]], object()])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _emitted({"value": obj})


def test_report_json_cannot_encode_writes_nothing(capsys):
    with pytest.raises(TypeError):
        cli._emit_json({"a": 1, "b": object()})
    assert capsys.readouterr().out == ""
