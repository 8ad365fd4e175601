"""`cli._json_dump` writes the bytes of `json.dumps(v, indent=2,
sort_keys=True) + "\\n"` for every JSON value it accepts, and refuses
the rest.  hypothesis runs derandomized, with no example database and no
deadline, so the test is deterministic and writes nothing."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from twirl.cli import _json_dump

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           # every code point but the surrogates: ASCII, controls, non-ASCII
           | st.text() | st.text(st.characters(max_codepoint=0x1f)))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40)


def want(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(VALUES)
@example({"\x00\x1f\"\\": ["é中\U0001f600", "\t\n\r\x7f"]})
@example({"": {}, "a": [], "b": [[], {}], "c": [True, False, None]})
@example([0, -1, 2 ** 70, 0.0, -0.0, 1e-300, 1.4177273065810022e-13, 1e16])
@example({"z": 1, "a": {"y": "x", "b": [1.5, "s"]}, "m": ()})
def test_json_dump_writes_the_bytes_of_json_dumps(v):
    assert _json_dump(v) == want(v)


@pytest.mark.parametrize("v", [math.nan, [math.inf], {"x": -math.inf}])
def test_json_dump_refuses_nan_and_the_infinities(v):
    """json.dumps prints them as NaN and Infinity, which is not JSON; no
    report holds one."""
    with pytest.raises(ValueError):
        _json_dump(v)


@pytest.mark.parametrize("v", [{1: "a"}, {"a": 1, None: 2}, {"a": {2.5: 1}},
                               b"bytes", {1, 2}, ["a", object()],
                               {"a": [1, 2, complex(1, 2)]}])
def test_json_dump_refuses_what_the_reports_never_hold(v):
    """A value other than str, int, float, bool, None, list, tuple or dict,
    and a key that is not a str, raise TypeError (json.dumps would print
    an int key as a string)."""
    with pytest.raises(TypeError):
        _json_dump(v)
